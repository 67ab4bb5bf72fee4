//! One parsed source file: the token stream plus per-line metadata.
//!
//! [`parse`] lexes a file once ([`crate::lexer`]) and builds, for every
//! line, what the rules match against besides tokens: whether the line is
//! a doc comment, whether it lives inside test-only code (`#[cfg(test)]` /
//! `#[test]` / `#[bench]` items), and the `lint:` directives of its
//! comments. A line carries code when at least one token starts on it.

use std::ops::Range;

use crate::lexer::{lex, spells, Tok, Token};

/// A lexed file and the metadata of each of its lines.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Every token, in source order.
    pub tokens: Vec<Token>,
    /// One entry per source line, in order.
    pub lines: Vec<SourceLine>,
}

impl SourceFile {
    /// The metadata of 1-based line `number`.
    pub fn line(&self, number: usize) -> Option<&SourceLine> {
        self.lines.get(number.wrapping_sub(1))
    }

    /// The tokens that start on `line`.
    pub fn tokens_on(&self, line: &SourceLine) -> &[Token] {
        &self.tokens[line.tokens.clone()]
    }
}

/// One source line plus the metadata rules match against.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The original line, verbatim (used for excerpts in reports).
    pub raw: String,
    /// Indices into [`SourceFile::tokens`] of the tokens that start on this
    /// line; empty when the line carries no code.
    pub tokens: Range<usize>,
    /// True when the line carries outer/inner doc comments (`///`, `//!`,
    /// `/** .. */`, `/*! .. */`).
    pub is_doc: bool,
    /// True when any part of the line is inside test-only code.
    pub in_test: bool,
    /// Rule codes suppressed on this line via `lint: allow(TLxxx, ...)`.
    pub allows: Vec<String>,
    /// `(directive, argument)` for every parenthesised directive of
    /// [`DIRECTIVES`] on this line, in source order. For a reasoned waiver
    /// the argument is the justification, and an empty one waives nothing:
    /// the directive must say *why* the site is acceptable. For `root` it
    /// names the analyses the function on this line starts.
    pub directives: Vec<(&'static str, String)>,
}

impl SourceLine {
    /// Whether at least one token starts on this line.
    pub fn has_code(&self) -> bool {
        !self.tokens.is_empty()
    }

    /// Whether `rule_code` is suppressed on this line.
    pub fn allows(&self, rule_code: &str) -> bool {
        self.allows.iter().any(|a| a == rule_code)
    }

    /// Every argument `directive` carries on this line, in source order.
    pub fn args<'a, 'd>(
        &'a self,
        directive: &'d str,
    ) -> impl Iterator<Item = &'a str> + use<'a, 'd> {
        self.directives
            .iter()
            .filter(move |(d, _)| *d == directive)
            .map(|(_, arg)| arg.as_str())
    }

    /// The first non-empty argument of `directive` on this line: the
    /// reason a waiver needs to waive anything.
    pub fn reason(&self, directive: &str) -> Option<&str> {
        self.args(directive).find(|arg| !arg.is_empty())
    }
}

/// The parenthesised `lint:` directives besides `allow(...)`: the reasoned
/// waivers (`nondeterministic` for TL007–TL009, `unsafe` for TL010,
/// `concurrency` for TL011–TL013, `alloc` for TL014, `panicfree` for
/// TL016) and the `root` marker that declares a reachability root.
const DIRECTIVES: [&str; 6] = [
    "nondeterministic",
    "unsafe",
    "concurrency",
    "alloc",
    "panicfree",
    "root",
];

/// Lexes `source` once and annotates each of its lines.
pub fn parse(source: &str) -> SourceFile {
    let (tokens, comments) = lex(source);
    let mut next = 0;
    let mut lines: Vec<SourceLine> = source
        .lines()
        .enumerate()
        .map(|(idx, raw)| {
            let start = next;
            next += tokens[start..]
                .iter()
                .take_while(|t| t.line == idx + 1)
                .count();
            SourceLine {
                number: idx + 1,
                raw: raw.to_string(),
                tokens: start..next,
                is_doc: false,
                in_test: false,
                allows: Vec::new(),
                directives: Vec::new(),
            }
        })
        .collect();
    // A block comment's text continues on the lines it spans; each line
    // parses the directives of all its comment text together.
    let mut comment_text = vec![String::new(); lines.len()];
    for c in &comments {
        for (k, part) in c.text.split('\n').enumerate() {
            let idx = c.line - 1 + k;
            if let (Some(line), Some(text)) = (lines.get_mut(idx), comment_text.get_mut(idx)) {
                line.is_doc |= c.doc;
                text.push_str(part);
            }
        }
    }
    for (line, text) in lines.iter_mut().zip(&comment_text) {
        (line.allows, line.directives) = parse_directives(text);
    }
    mark_test_regions(&tokens, &mut lines);
    propagate_standalone_directives(&mut lines);
    SourceFile { tokens, lines }
}

/// A directive on a line without code also applies to the next line
/// carrying code. Trailing same-line directives remain the primary form, but
/// rustfmt wraps long statements, which would detach a trailing comment from
/// the construct it suppresses; a standalone comment directly above survives
/// reformatting.
fn propagate_standalone_directives(lines: &mut [SourceLine]) {
    let mut allows: Vec<String> = Vec::new();
    let mut directives: Vec<(&'static str, String)> = Vec::new();
    for line in lines.iter_mut() {
        if line.has_code() {
            line.allows.append(&mut allows);
            line.directives.append(&mut directives);
        } else {
            allows.extend(line.allows.iter().cloned());
            directives.extend(line.directives.iter().cloned());
        }
    }
}

/// Extracts directives from `lint:` comments: `allow(TL001, TL002)` rule
/// suppressions, plus every [`DIRECTIVES`] entry with its argument. Several
/// may appear in one comment (`// lint: allow(TL003),
/// nondeterministic(telemetry only)`), and an argument may itself contain
/// balanced parentheses.
fn parse_directives(comment: &str) -> (Vec<String>, Vec<(&'static str, String)>) {
    let mut allows = Vec::new();
    let mut directives = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:") {
        rest = &rest[pos + 5..];
        let mut text = rest.trim_start();
        loop {
            if let Some(args) = text.strip_prefix("allow(") {
                let Some(end) = args.find(')') else { break };
                for code in args[..end].split(',') {
                    let code = code.trim();
                    if !code.is_empty() {
                        allows.push(code.to_string());
                    }
                }
                text = args[end + 1..].trim_start();
            } else if let Some((name, args)) = DIRECTIVES
                .iter()
                .find_map(|d| Some((*d, text.strip_prefix(d)?.strip_prefix('(')?)))
            {
                let Some(end) = matching_paren(args) else {
                    break;
                };
                directives.push((name, args[..end].trim().to_string()));
                text = args[end + 1..].trim_start();
            } else {
                break;
            }
            text = text.strip_prefix(',').unwrap_or(text).trim_start();
        }
    }
    (allows, directives)
}

/// Byte index of the `)` closing an already-open paren, skipping balanced
/// inner pairs.
fn matching_paren(s: &str) -> Option<usize> {
    let mut depth = 1usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The attributes that make the next item test-only code.
const TEST_ATTRS: [&[&str]; 3] = [
    &["#", "[", "cfg", "(", "test", ")", "]"],
    &["#", "[", "test", "]"],
    &["#", "[", "bench", "]"],
];

/// Marks the lines of `#[cfg(test)]` / `#[test]` / `#[bench]` items: from
/// the attribute to the closing `}` of the item's body, or to the `;` that
/// ends a bodiless item (`#[cfg(test)] use helpers;`) at the attribute's
/// own brace depth, so the `;` of a `use` inside a nested `mod` ends it too.
fn mark_test_regions(tokens: &[Token], lines: &mut [SourceLine]) {
    let mut depth: usize = 0;
    // Brace depth of a test attribute whose item has not begun its body.
    let mut armed: Option<usize> = None;
    let mut test_floor: Option<usize> = None;
    for line in lines.iter_mut() {
        if test_floor.is_some() {
            line.in_test = true;
        }
        for i in line.tokens.clone() {
            if test_floor.is_none() && TEST_ATTRS.iter().any(|attr| spells(&tokens[i..], attr)) {
                armed = Some(depth);
                line.in_test = true;
            }
            match tokens[i].kind {
                Tok::Open('{') => {
                    if armed.take().is_some() {
                        test_floor = Some(depth);
                        line.in_test = true;
                    }
                    depth += 1;
                }
                Tok::Close('}') => {
                    depth = depth.saturating_sub(1);
                    if test_floor.is_some_and(|floor| depth <= floor) {
                        test_floor = None;
                    }
                }
                Tok::Punct(";") if armed == Some(depth) => armed = None,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<SourceLine> {
        parse(src).lines
    }

    #[test]
    fn a_line_has_code_when_a_token_starts_on_it() {
        let src = "let s = \"a\n  b\";\n// comment\n\n/* x\n */ y();\nlet t = \"c\n  d\"\n;\n";
        let file = parse(src);
        let code: Vec<bool> = file.lines.iter().map(SourceLine::has_code).collect();
        assert_eq!(
            code,
            vec![true, true, false, false, false, true, true, false, true]
        );
        let idents: Vec<&str> = file
            .tokens_on(&file.lines[5])
            .iter()
            .filter_map(Token::ident)
            .collect();
        assert_eq!(idents, vec!["y"]);
    }

    #[test]
    fn doc_comments_are_flagged() {
        let lines = scan("/// docs\npub fn f() {}\n//! inner\n");
        assert!(lines[0].is_doc);
        assert!(!lines[1].is_doc);
        assert!(lines[2].is_doc);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn after() {}\n";
        let lines = scan(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn cfg_test_use_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nuse helpers::*;\npub fn lib() {\n    x.unwrap();\n}\n#[bench]\nfn b() {}\n";
        let in_test: Vec<bool> = scan(src).iter().map(|l| l.in_test).collect();
        assert_eq!(in_test, vec![true, false, false, false, false, true, true]);
        // Inside a nested module the `;` ends the item at the attribute's
        // own brace depth.
        let src = "mod inner {\n    #[cfg(test)]\n    use super::*;\n    pub fn lib() {\n        x.unwrap();\n    }\n}\n";
        let in_test: Vec<bool> = scan(src).iter().map(|l| l.in_test).collect();
        assert_eq!(
            in_test,
            vec![false, true, false, false, false, false, false]
        );
    }

    #[test]
    fn test_attr_function_is_marked() {
        let src = "#[test]\nfn check() {\n    y.unwrap();\n}\nfn lib() {}\n";
        let lines = scan(src);
        assert!(lines[2].in_test);
        assert!(!lines[4].in_test);
    }

    #[test]
    fn allow_directives_are_parsed() {
        let lines = scan("panic!(\"bad\"); // lint: allow(TL002, TL001)\n");
        assert!(lines[0].allows("TL002"));
        assert!(lines[0].allows("TL001"));
        assert!(!lines[0].allows("TL003"));
    }

    #[test]
    fn nondeterministic_directive_requires_a_reason() {
        let lines = scan(
            "a(); // lint: nondeterministic(wall-clock telemetry only)\nb(); // lint: nondeterministic()\nc();\n",
        );
        assert_eq!(
            lines[0].reason("nondeterministic"),
            Some("wall-clock telemetry only")
        );
        assert!(
            lines[1].reason("nondeterministic").is_none(),
            "empty reason is no waiver"
        );
        assert!(lines[2].reason("nondeterministic").is_none());
    }

    #[test]
    fn combined_allow_and_nondeterministic_directive() {
        let lines =
            scan("t(); // lint: allow(TL003), nondeterministic(timing (stage) telemetry)\n");
        assert!(lines[0].allows("TL003"));
        assert_eq!(
            lines[0].reason("nondeterministic"),
            Some("timing (stage) telemetry")
        );
    }

    #[test]
    fn standalone_nondeterministic_comment_covers_next_code_line() {
        let src = "// lint: nondeterministic(jitter is display-only)\nnow();\nlater();\n";
        let lines = scan(src);
        assert!(lines[1].reason("nondeterministic").is_some());
        assert!(lines[2].reason("nondeterministic").is_none());
    }

    #[test]
    fn unsafe_directive_requires_a_reason() {
        let lines = scan(
            "a(); // lint: unsafe(read within bounds checked above)\nb(); // lint: unsafe()\nc();\n",
        );
        assert_eq!(
            lines[0].reason("unsafe"),
            Some("read within bounds checked above")
        );
        assert!(
            lines[1].reason("unsafe").is_none(),
            "empty reason is no waiver"
        );
        assert!(lines[2].reason("unsafe").is_none());
    }

    #[test]
    fn concurrency_directive_requires_a_reason() {
        let lines = scan(
            "a(); // lint: concurrency(claim counter; order never reaches results)\nb(); // lint: concurrency()\n",
        );
        assert_eq!(
            lines[0].reason("concurrency"),
            Some("claim counter; order never reaches results")
        );
        assert!(
            lines[1].reason("concurrency").is_none(),
            "empty reason is no waiver"
        );
    }

    #[test]
    fn standalone_unsafe_and_concurrency_comments_cover_next_code_line() {
        let src = "// lint: unsafe(audited)\nraw();\n// lint: concurrency(worker-local)\nshared();\nafter();\n";
        let lines = scan(src);
        assert_eq!(lines[1].reason("unsafe"), Some("audited"));
        assert!(lines[1].reason("concurrency").is_none());
        assert_eq!(lines[3].reason("concurrency"), Some("worker-local"));
        assert!(lines[4].reason("unsafe").is_none());
        assert!(lines[4].reason("concurrency").is_none());
    }

    #[test]
    fn combined_allow_and_concurrency_directive() {
        let lines =
            scan("t(); // lint: allow(TL012), concurrency(join supplies the (only) edge)\n");
        assert!(lines[0].allows("TL012"));
        assert_eq!(
            lines[0].reason("concurrency"),
            Some("join supplies the (only) edge")
        );
    }

    #[test]
    fn alloc_and_panicfree_directives_require_a_reason() {
        let lines = scan(
            "a(); // lint: alloc(one-time ring growth, amortised)\nb(); // lint: alloc()\nc(); // lint: panicfree(index < len checked by the assert above)\nd(); // lint: panicfree()\n",
        );
        assert_eq!(
            lines[0].reason("alloc"),
            Some("one-time ring growth, amortised")
        );
        assert!(
            lines[1].reason("alloc").is_none(),
            "empty reason is no waiver"
        );
        assert_eq!(
            lines[2].reason("panicfree"),
            Some("index < len checked by the assert above")
        );
        assert!(
            lines[3].reason("panicfree").is_none(),
            "empty reason is no waiver"
        );
    }

    #[test]
    fn standalone_alloc_and_panicfree_comments_cover_next_code_line() {
        let src = "// lint: alloc(cold branch)\ngrow();\n// lint: panicfree(bounds pinned)\nidx();\nafter();\n";
        let lines = scan(src);
        assert_eq!(lines[1].reason("alloc"), Some("cold branch"));
        assert!(lines[1].reason("panicfree").is_none());
        assert_eq!(lines[3].reason("panicfree"), Some("bounds pinned"));
        assert!(lines[4].reason("alloc").is_none());
        assert!(lines[4].reason("panicfree").is_none());
    }

    #[test]
    fn standalone_allow_comment_suppresses_next_code_line() {
        let src = "// lint: allow(TL002)\npanic!(\"bad\");\nafter();\n";
        let lines = scan(src);
        assert!(!lines[0].has_code());
        assert!(lines[1].allows("TL002"));
        assert!(
            !lines[2].allows("TL002"),
            "directive must not leak past one code line"
        );
    }
}
