//! A small comment/string-aware scanner for Rust source.
//!
//! The rule set only needs line-level pattern matching, but naive substring
//! search would fire on comments, doc examples, and string literals. This
//! scanner produces a *cleaned* view of each line — comments removed and
//! string/char literal contents blanked out — together with the metadata the
//! rules need: whether the line is a doc comment, whether it lives inside
//! test-only code (`#[cfg(test)]` / `#[test]` items), and any inline
//! `lint: allow(...)` suppressions found in trailing comments.
//!
//! The scanner is deliberately not a full lexer: it tracks exactly the state
//! needed to distinguish code from non-code (line comments, nested block
//! comments, string/raw-string/byte-string literals, char literals vs
//! lifetimes) and leaves everything else to the per-rule matchers.

/// One source line plus the metadata rules match against.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The original line, verbatim (used for excerpts in reports).
    pub raw: String,
    /// The line with comments removed and literal contents blanked.
    pub code: String,
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    /// Block comment nesting depth; `doc` marks `/**` / `/*!` forms.
    Block {
        depth: usize,
        doc: bool,
    },
    Str,
    RawStr {
        hashes: usize,
    },
    Char,
}

/// Scans `source` into cleaned, annotated lines.
pub fn scan(source: &str) -> Vec<SourceLine> {
    let mut lines = clean(source);
    mark_test_regions(&mut lines);
    propagate_standalone_directives(&mut lines);
    lines
}

/// Pass 3: a directive on a comment-only line also applies to the next line
/// carrying code. Trailing same-line directives remain the primary form, but
/// rustfmt wraps long statements, which would detach a trailing comment from
/// the construct it suppresses; a standalone comment directly above survives
/// reformatting.
fn propagate_standalone_directives(lines: &mut [SourceLine]) {
    let mut allows: Vec<String> = Vec::new();
    let mut directives: Vec<(&'static str, String)> = Vec::new();
    for line in lines.iter_mut() {
        if line.code.trim().is_empty() {
            allows.extend(line.allows.iter().cloned());
            directives.extend(line.directives.iter().cloned());
        } else {
            line.allows.append(&mut allows);
            line.directives.append(&mut directives);
        }
    }
}

/// Pass 1: strip comments, blank literal contents, collect doc/allow info.
fn clean(source: &str) -> Vec<SourceLine> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for (idx, raw) in source.lines().enumerate() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(raw.len());
        let mut comment_text = String::new();
        let mut is_doc = false;
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => {
                    if c == '/' && next == Some('/') {
                        // Line comment; `///` and `//!` are doc comments.
                        let third = chars.get(i + 2).copied();
                        if third == Some('/') && chars.get(i + 3).copied() != Some('/') {
                            is_doc = true;
                        }
                        if third == Some('!') {
                            is_doc = true;
                        }
                        comment_text.push_str(&chars[i..].iter().collect::<String>());
                        break;
                    } else if c == '/' && next == Some('*') {
                        let third = chars.get(i + 2).copied();
                        let doc = third == Some('*') && chars.get(i + 3).copied() != Some('*')
                            || third == Some('!');
                        if doc {
                            is_doc = true;
                        }
                        state = State::Block { depth: 1, doc };
                        i += 2;
                        continue;
                    } else if c == '"' {
                        code.push('"');
                        state = State::Str;
                        i += 1;
                        continue;
                    } else if is_raw_string_start(&chars, i) {
                        // r"..."  r#"..."#  br##"..."##  (b consumed earlier)
                        let mut j = i + 1; // skip the `r`
                        let mut hashes = 0;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        code.push_str(&"r".to_string());
                        code.push_str(&"#".repeat(hashes));
                        code.push('"');
                        state = State::RawStr { hashes };
                        i = j + 1;
                        continue;
                    } else if c == '\'' {
                        if is_lifetime(&chars, i) {
                            code.push(c);
                            i += 1;
                            continue;
                        }
                        code.push('\'');
                        state = State::Char;
                        i += 1;
                        continue;
                    }
                    code.push(c);
                    i += 1;
                }
                State::Block { depth, doc } => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::Block {
                                depth: depth - 1,
                                doc,
                            };
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::Block {
                            depth: depth + 1,
                            doc,
                        };
                        i += 2;
                    } else {
                        if doc {
                            is_doc = true;
                        }
                        comment_text.push(c);
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        i += 2; // skip the escaped character
                    } else if c == '"' {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::RawStr { hashes } => {
                    if c == '"' && raw_string_closes(&chars, i, hashes) {
                        code.push('"');
                        code.push_str(&"#".repeat(hashes));
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Char => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '\'' {
                        code.push('\'');
                        state = State::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        // Unterminated single-line states fall back to code at end of line
        // (strings can span lines only in raw/regular multiline form, which
        // the state machine already carries across the loop).
        if state == State::Char {
            state = State::Code;
        }
        let (allows, directives) = parse_directives(&comment_text);
        out.push(SourceLine {
            number: idx + 1,
            raw: raw.to_string(),
            code,
            is_doc,
            in_test: false,
            allows,
            directives,
        });
    }
    out
}

/// True when `chars[i]` starts a raw (or raw byte) string literal.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if chars[i] != 'r' {
        return false;
    }
    // `r` must be its own token, not the tail of an identifier like `var`.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            // allow the `b` of a raw byte string prefix
            if !(prev == 'b' && (i < 2 || !is_ident(chars[i - 2]))) {
                return false;
            }
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// True when the `"` at `chars[i]` is followed by `hashes` `#` characters.
fn raw_string_closes(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes `'a` (lifetime) from `'a'` (char literal) at a `'`.
fn is_lifetime(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some(&c) if c.is_alphabetic() || c == '_' => chars.get(i + 2) != Some(&'\''),
        _ => false,
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
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

/// Pass 2: mark lines belonging to `#[cfg(test)]` / `#[test]` items.
///
/// Tracks brace depth over the cleaned text; when a test attribute is seen,
/// the next brace-delimited item at the same depth is marked as test code.
fn mark_test_regions(lines: &mut [SourceLine]) {
    let mut depth: usize = 0;
    let mut armed = false;
    let mut test_floor: Option<usize> = None;
    for line in lines.iter_mut() {
        let code = line.code.clone();
        if test_floor.is_some() {
            line.in_test = true;
        }
        if test_floor.is_none() && (code.contains("#[cfg(test)]") || has_test_attr(&code)) {
            armed = true;
            line.in_test = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if armed {
                        test_floor = Some(depth);
                        armed = false;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if let Some(floor) = test_floor {
                        if depth <= floor {
                            test_floor = None;
                        }
                    }
                }
                ';' if armed && depth == 0 => {
                    // e.g. `#[cfg(test)] use helpers;` — no body to skip.
                    armed = false;
                }
                _ => {}
            }
        }
    }
}

/// Matches the `#[test]` attribute (not `#[testsomething]`).
fn has_test_attr(code: &str) -> bool {
    code.contains("#[test]") || code.contains("#[bench]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_stripped() {
        let c = codes("let x = 1; // note: unwrap() here is fine\n");
        assert_eq!(c[0], "let x = 1; ");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "a /* outer /* inner */ still comment */ b\nc /* open\nclose */ d\n";
        let c = codes(src);
        assert_eq!(c[0], "a  b");
        assert_eq!(c[1], "c ");
        assert_eq!(c[2], " d");
    }

    #[test]
    fn string_contents_are_blanked() {
        let c = codes("let s = \"call .unwrap() now\"; s.len();\n");
        assert!(!c[0].contains("unwrap"));
        assert!(c[0].contains(".len()"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let c = codes("let s = \"a\\\"b.unwrap()\"; x()\n");
        assert!(!c[0].contains("unwrap"));
        assert!(c[0].contains("x()"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let c = codes("let s = r#\"panic!(\"no\")\"#; go()\n");
        assert!(!c[0].contains("panic"));
        assert!(c[0].contains("go()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let c = codes("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert_eq!(c[0], "fn f<'a>(x: &'a str) -> &'a str { x }");
    }

    #[test]
    fn char_literals_are_blanked() {
        let c = codes("let q = '\\''; let z = 'z'; done()\n");
        assert!(c[0].contains("done()"));
        assert!(!c[0].contains("'z'"), "char contents blanked: {}", c[0]);
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
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[1].allows("TL002"));
        assert!(
            !lines[2].allows("TL002"),
            "directive must not leak past one code line"
        );
    }
}
