//! Item extraction: turns a token stream into per-function records.
//!
//! For every `fn` in a file this pass records where it lives (file, line,
//! enclosing `impl` type and trait), which analyses it is declared a root of
//! (a `root(...)` marker in a `lint:` comment on the `fn` line or directly
//! above it), which [`Fact`]s its body exhibits, and which functions it
//! calls. A fact is direct evidence of an allocating, blocking or
//! panic-capable op. The extractor is syntactic: it has no type
//! information, so call targets are names (optionally qualified) that
//! [`crate::callgraph`] later resolves over-approximately.
//!
//! Closure bodies are attributed to the enclosing function, while nested
//! named `fn`s become records of their own.

use std::collections::BTreeSet;

use crate::lexer::{Tok, Token};
use crate::rules::Rule;
use crate::source::{SourceFile, SourceLine};

/// What a [`Fact`] is evidence of. [`crate::reach`] maps each kind to the
/// rule it fires when a root's walk reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// A heap allocation: `Vec::new`/`with_capacity`, `vec![]`, `Box::new`,
    /// `String::from`, `format!`, `.to_vec()`, `.collect()`, `.clone()`,
    /// `.to_string()`, `.to_owned()`.
    HeapAlloc,
    /// A blocking operation: `Mutex`/`RwLock` lock acquisition, channel
    /// `recv`, `std::fs`/`std::io` calls, `thread::sleep`.
    Blocking,
    /// A panic-capable op: slice/array `[i]` indexing, `copy_from_slice`,
    /// integer division/modulo by a non-literal divisor.
    PanicCapable,
}

impl FactKind {
    /// Human description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            FactKind::HeapAlloc => "heap allocation on a latency-critical path",
            FactKind::Blocking => "blocking operation on a latency-critical path",
            FactKind::PanicCapable => "panic-capable op on the serve path",
        }
    }

    /// The reasoned directive that waives the rule this kind fires.
    /// Blocking ops have none: a blocking call on a hot path is either cut
    /// out of it or explicitly `allow(TL015)`ed.
    pub(crate) fn waiver(self) -> Option<&'static str> {
        match self {
            FactKind::HeapAlloc => Some("alloc"),
            FactKind::PanicCapable => Some("panicfree"),
            FactKind::Blocking => None,
        }
    }
}

/// One fact inside a `fn` body, located and carrying its suppression
/// state. A function records at most one fact of each kind per line: one
/// waiver covers one line, so `a[i][j] = b[k]` is one indexing site, not
/// three.
#[derive(Debug, Clone)]
pub struct Fact {
    /// What the site is evidence of.
    pub kind: FactKind,
    /// 1-based line of the source expression.
    pub line: usize,
    /// Short rendering of the offending expression for diagnostics.
    pub what: String,
    /// Rule codes suppressed at this line via `lint: allow(...)`.
    pub allows: Vec<String>,
    /// True when the line carries the kind's `FactKind::waiver` with a
    /// non-empty reason.
    pub waived: bool,
}

impl Fact {
    /// True when this site silences `rule`: an explicit `allow(TLxxx)` or
    /// the kind's reasoned waiver.
    pub(crate) fn suppresses(&self, rule: Rule) -> bool {
        self.waived || self.allows.iter().any(|a| a == rule.code())
    }
}

/// An analysis a function is declared a root of with a `root(...)` marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// `root(hot)`: everything reachable, up to the setup cut, is
    /// latency-critical (TL014–TL016).
    Hot,
}

impl RootKind {
    fn from_name(name: &str) -> Option<RootKind> {
        match name {
            "hot" => Some(RootKind::Hot),
            _ => None,
        }
    }
}

/// An outgoing call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name (`select`, `now`, ...).
    pub name: String,
    /// Path or receiver-type qualifier when visible: `Executor` for
    /// `Executor::run`, the impl type for `self.method(...)`.
    pub qualifier: Option<String>,
    /// 1-based line of the call site.
    pub line: usize,
}

/// One function extracted from a file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Simple name (`run`, `train`).
    pub name: String,
    /// Enclosing `impl` self-type, when any (`TagletsSystem`).
    pub impl_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Analyses this function is declared a root of.
    pub roots: Vec<RootKind>,
    /// Facts found in the body, in source order.
    pub facts: Vec<Fact>,
    /// Outgoing call sites in the body, in source order.
    pub calls: Vec<Call>,
}

impl FnInfo {
    /// Display name: `Type::name` inside an impl, plain `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "impl", "struct", "enum",
    "trait", "type", "use", "mod", "pub", "unsafe", "move", "as", "in", "where", "ref", "mut",
    "break", "continue", "dyn", "await",
];

#[derive(Debug)]
enum Scope {
    /// `impl Type` / `impl Trait for Type` block.
    Impl {
        type_name: Option<String>,
        trait_name: Option<String>,
    },
    /// A function body; indexes into the output vec.
    Fn {
        index: usize,
    },
    Other,
}

/// Everything one file contributes to the workspace-level analyses.
#[derive(Debug, Default)]
pub struct Extraction {
    /// All non-test functions, in source order.
    pub fns: Vec<FnInfo>,
    /// `file:line: message` for every `root(...)` marker that names an
    /// unknown analysis or sits on no function definition.
    pub marker_errors: Vec<String>,
}

/// Extracts all non-test functions from one parsed file. Its lines supply
/// test-region, suppression and root-marker metadata.
pub fn extract(file: &str, src: &SourceFile) -> Extraction {
    let tokens = &src.tokens;
    let mut fns: Vec<FnInfo> = Vec::new();
    // Lines where a function definition starts: the only lines a root
    // marker may land on.
    let mut fn_lines: BTreeSet<usize> = BTreeSet::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Pending scope classification for the next `{`.
    let mut pending: Option<Scope> = None;

    let in_test = |line: usize| src.line(line).is_some_and(|l| l.in_test);

    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        match &tok.kind {
            Tok::Ident(name) if name == "impl" => {
                let (scope, next) = parse_impl_header(tokens, i + 1);
                pending = Some(scope);
                i = next;
                continue;
            }
            Tok::Ident(name) if name == "fn" => {
                if let Some(Tok::Ident(fn_name)) = tokens.get(i + 1).map(|t| &t.kind) {
                    if in_test(tok.line) {
                        i += 2;
                        continue;
                    }
                    let (impl_type, trait_name) = enclosing_impl(&scopes);
                    let next = skip_signature(tokens, i + 2);
                    // A trait method *declaration* ends in `;` — parse past
                    // the signature; the `{` case arms the fn scope.
                    if tokens.get(next).map(|t| t.is(";")).unwrap_or(false) {
                        i = next + 1;
                        continue;
                    }
                    fn_lines.insert(tok.line);
                    let index = fns.len();
                    fns.push(FnInfo {
                        name: fn_name.clone(),
                        impl_type,
                        trait_name,
                        file: file.to_string(),
                        line: tok.line,
                        roots: src.line(tok.line).map(root_kinds).unwrap_or_default(),
                        facts: Vec::new(),
                        calls: Vec::new(),
                    });
                    pending = Some(Scope::Fn { index });
                    i = next;
                    continue;
                }
                i += 1;
                continue;
            }
            Tok::Open('{') => {
                scopes.push(pending.take().unwrap_or(Scope::Other));
                i += 1;
                continue;
            }
            Tok::Close('}') => {
                scopes.pop();
                i += 1;
                continue;
            }
            _ => {}
        }

        // Everything below only matters inside a function body.
        let Some(fn_index) = innermost_fn(&scopes) else {
            i += 1;
            continue;
        };

        // Allocation / blocking / panic-capable evidence, collected without
        // consuming tokens, so call recording below sees the same stream.
        let fact = match &tok.kind {
            Tok::Ident(name) => hotpath_fact(tokens, i, name),
            Tok::Open('[') => indexing_site(tokens, i).map(|w| (FactKind::PanicCapable, w)),
            Tok::Punct(op) if matches!(*op, "/" | "%" | "/=" | "%=") => {
                integer_division_site(tokens, i, op).map(|w| (FactKind::PanicCapable, w))
            }
            _ => None,
        };
        if let Some((kind, what)) = fact {
            push_fact(&mut fns[fn_index].facts, kind, tok.line, what, src);
        }

        // Plain call sites: `name(...)`, `Qual::name(...)`, `.name(...)`.
        if let Tok::Ident(name) = &tok.kind {
            let opens_call = matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::Open('(')));
            if opens_call && !KEYWORDS.contains(&name.as_str()) {
                record_call(&mut fns[fn_index], tokens, i);
            }
        }
        i += 1;
    }
    let marker_errors = check_root_markers(file, &src.lines, &fn_lines);
    Extraction { fns, marker_errors }
}

/// The analyses the `root(...)` markers on a function's `fn` line name.
/// Unknown names are skipped here and reported by [`check_root_markers`].
fn root_kinds(line: &SourceLine) -> Vec<RootKind> {
    line.args("root")
        .flat_map(|arg| arg.split(','))
        .filter_map(|name| RootKind::from_name(name.trim()))
        .collect()
}

/// Every `root(...)` marker must name only known analyses and land on a
/// line where a non-test function definition starts — trailing on that
/// line, or on a comment-only line directly above it (see
/// [`crate::source`]). A marker anywhere else would declare nothing and
/// silently drop the root, so each one is an error naming its line.
fn check_root_markers(file: &str, lines: &[SourceLine], fn_lines: &BTreeSet<usize>) -> Vec<String> {
    // A comment-only line's directives also ride on the next code line,
    // which is checked in its place; only one with no code after it is
    // checked where it sits.
    let last_code = lines.iter().rposition(SourceLine::has_code);
    let mut errors = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if !line.has_code() && last_code.is_some_and(|c| c > idx) {
            continue;
        }
        for arg in line.args("root") {
            let at = format!("{file}:{}: `root({arg})`", line.number);
            if arg
                .split(',')
                .any(|n| RootKind::from_name(n.trim()).is_none())
            {
                errors.push(format!("{at} must name `hot`"));
            }
            if !fn_lines.contains(&line.number) {
                errors.push(format!(
                    "{at} is not on a function definition; put it on the `fn` line or on a comment line directly above it"
                ));
            }
        }
    }
    errors
}

/// Classifies the identifier token at `i` as a hot-path hygiene fact, if it
/// is one. Shapes recognised:
/// - method calls `.name(` / `.name::<..>(`: allocating (`to_vec`, `clone`,
///   `collect`, ...), blocking (`lock`, `recv*`, and argument-less
///   `read()`/`write()` — the `RwLock` shape; the `io` variants take a
///   buffer argument), panic-capable (`copy_from_slice`, `clone_from_slice`)
/// - qualified calls `Type::method(`: `Vec::new`/`with_capacity`,
///   `Box::new`, `String::from`, `File::open`, `thread::sleep`, `fs::*`,
///   `io::*`
/// - macro invocations `vec![..]`, `format!(..)`
fn hotpath_fact(tokens: &[Token], i: usize, name: &str) -> Option<(FactKind, String)> {
    let prev_dot = i >= 1 && tokens[i - 1].is(".");
    let next = tokens.get(i + 1);
    let next_open = matches!(next.map(|t| &t.kind), Some(Tok::Open('(')));
    let next_turbofish = next.map(|t| t.is("::")).unwrap_or(false);

    if prev_dot && (next_open || next_turbofish) {
        match name {
            "to_vec" | "to_string" | "to_owned" | "clone" | "collect" => {
                return Some((FactKind::HeapAlloc, format!(".{name}()")));
            }
            "lock" | "recv" | "recv_timeout" | "recv_deadline" => {
                return Some((FactKind::Blocking, format!(".{name}()")));
            }
            "copy_from_slice" | "clone_from_slice" => {
                return Some((FactKind::PanicCapable, format!(".{name}(..)")));
            }
            "read" | "write"
                if next_open
                    && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(Tok::Close(')'))) =>
            {
                return Some((FactKind::Blocking, format!(".{name}()")));
            }
            _ => {}
        }
    }

    if next_turbofish {
        if let Some(method) = tokens.get(i + 2).and_then(Token::ident) {
            if matches!(tokens.get(i + 3).map(|t| &t.kind), Some(Tok::Open('('))) {
                if matches!(name, "Vec" | "VecDeque" | "Box" | "String")
                    && matches!(method, "new" | "with_capacity" | "from")
                {
                    return Some((FactKind::HeapAlloc, format!("{name}::{method}()")));
                }
                if name == "thread" && method == "sleep" {
                    return Some((FactKind::Blocking, "thread::sleep".to_string()));
                }
                if name == "File" && matches!(method, "open" | "create") {
                    return Some((FactKind::Blocking, format!("File::{method}()")));
                }
                if matches!(name, "fs" | "io") {
                    return Some((FactKind::Blocking, format!("{name}::{method}()")));
                }
            }
        }
    }

    if matches!(name, "vec" | "format") && next.map(|t| t.is("!")).unwrap_or(false) {
        return Some((FactKind::HeapAlloc, format!("{name}![..]")));
    }
    None
}

/// `[` at `i` opens an index expression when the preceding token is a value
/// (identifier or closing bracket): `buf[i]`, `row(r)[c]`, `grid[r][c]`.
/// Attribute (`#[..]`), slice-literal (`&[..]`, `= [..]`), type
/// (`: [f32; 4]`), and pattern positions are excluded because their
/// preceding token is not value-like; keyword identifiers exclude
/// `for x in [..]` and `&mut [f32]`.
fn indexing_site(tokens: &[Token], i: usize) -> Option<String> {
    if i == 0 {
        return None;
    }
    match &tokens[i - 1].kind {
        Tok::Close(')') | Tok::Close(']') => Some("[..] indexing".to_string()),
        Tok::Ident(prev) if !KEYWORDS.contains(&prev.as_str()) => {
            Some(format!("{prev}[..] indexing"))
        }
        _ => None,
    }
}

/// A `/`-family operator at `i` counts as panic-capable integer division
/// when the divisor is an identifier (a literal divisor cannot be zero, so
/// `x / 2` is fine) and the line shows no floating-point evidence — float
/// literals or `f32`/`f64` identifiers — since float division never panics.
fn integer_division_site(tokens: &[Token], i: usize, op: &str) -> Option<String> {
    let divisor = tokens.get(i + 1).and_then(Token::ident)?;
    if KEYWORDS.contains(&divisor) {
        return None;
    }
    let line = tokens[i].line;
    let mut lo = i;
    while lo > 0 && tokens[lo - 1].line == line {
        lo -= 1;
    }
    let mut hi = i;
    while hi + 1 < tokens.len() && tokens[hi + 1].line == line {
        hi += 1;
    }
    let floaty = tokens[lo..=hi]
        .iter()
        .any(|t| matches!(t.kind, Tok::Float) || matches!(t.ident(), Some("f32") | Some("f64")));
    if floaty {
        return None;
    }
    Some(format!("{op} {divisor} (integer division)"))
}

/// Appends a fact, capturing the line's suppression metadata. Facts are
/// deduplicated per (kind, line), which decides what one waiver covers;
/// they arrive in source order, so only the current line's tail needs
/// checking.
fn push_fact(facts: &mut Vec<Fact>, kind: FactKind, line: usize, what: String, src: &SourceFile) {
    if facts
        .iter()
        .rev()
        .take_while(|f| f.line == line)
        .any(|f| f.kind == kind)
    {
        return;
    }
    let meta = src.line(line);
    facts.push(Fact {
        kind,
        line,
        what,
        allows: meta.map(|l| l.allows.clone()).unwrap_or_default(),
        waived: match (meta, kind.waiver()) {
            (Some(l), Some(waiver)) => l.reason(waiver).is_some(),
            _ => false,
        },
    });
}

/// Records the call at token `i` (an identifier followed by `(`), deriving
/// the qualifier from `Qual::name(` or, for `self.name(`, the impl type
/// resolved later by the call-graph (kept as the literal `self` marker).
fn record_call(f: &mut FnInfo, tokens: &[Token], i: usize) {
    let name = match tokens[i].ident() {
        Some(n) => n.to_string(),
        None => return,
    };
    // Macro invocation `name!(...)` — the `!` sits between name and paren,
    // so this branch never sees it; guard anyway for `name !(`-style spacing.
    if tokens.get(i + 1).map(|t| t.is("!")).unwrap_or(false) {
        return;
    }
    let before = |k: usize| i.checked_sub(k).map(|p| &tokens[p]);
    let qualifier = if before(1).is_some_and(|t| t.is("::")) {
        before(2).and_then(Token::ident).map(str::to_string)
    } else if before(1).is_some_and(|t| t.is("."))
        && before(2).and_then(Token::ident) == Some("self")
    {
        // `self.method(...)` — resolvable to the impl type.
        Some("self".to_string())
    } else {
        None
    };
    f.calls.push(Call {
        name,
        qualifier,
        line: tokens[i].line,
    });
}

/// Finds the innermost enclosing fn scope.
fn innermost_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Fn { index } => Some(*index),
        _ => None,
    })
}

/// Finds the innermost enclosing impl scope's (type, trait).
fn enclosing_impl(scopes: &[Scope]) -> (Option<String>, Option<String>) {
    scopes
        .iter()
        .rev()
        .find_map(|s| match s {
            Scope::Impl {
                type_name,
                trait_name,
            } => Some((type_name.clone(), trait_name.clone())),
            _ => None,
        })
        .unwrap_or_default()
}

/// Parses an `impl` header starting after the `impl` keyword; returns the
/// scope and the index of the token that opens the body (or wherever parsing
/// stopped). Handles `impl<T> Foo<T> for bar::Baz<T> where ...`.
fn parse_impl_header(tokens: &[Token], start: usize) -> (Scope, usize) {
    let mut angle = 0isize;
    let mut first_path: Option<String> = None;
    let mut second_path: Option<String> = None;
    let mut saw_for = false;
    let mut collecting = true;
    let mut j = start;
    while j < tokens.len() {
        angle += angle_delta(&tokens[j].kind);
        match &tokens[j].kind {
            Tok::Ident(id) if angle == 0 => match id.as_str() {
                "for" => {
                    saw_for = true;
                }
                "where" => collecting = false,
                _ if collecting => {
                    // Keep the last path segment seen on each side of `for`.
                    if saw_for {
                        second_path = Some(id.clone());
                    } else {
                        first_path = Some(id.clone());
                    }
                }
                _ => {}
            },
            Tok::Open('{') | Tok::Punct(";") if angle == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let (type_name, trait_name) = if saw_for {
        (second_path, first_path)
    } else {
        (first_path, None)
    };
    (
        Scope::Impl {
            type_name,
            trait_name,
        },
        j,
    )
}

/// Skips a fn signature from just after the name (generics, parameters,
/// return type and where clause) and returns the index of the body `{` /
/// terminating `;`.
fn skip_signature(tokens: &[Token], start: usize) -> usize {
    let mut j = start;
    // Skip `<...>` generics.
    if tokens.get(j).map(|t| t.is("<")).unwrap_or(false) {
        let mut angle = 0isize;
        while j < tokens.len() {
            angle += angle_delta(&tokens[j].kind);
            j += 1;
            if angle == 0 {
                break;
            }
        }
    }
    if tokens
        .get(j)
        .map(|t| matches!(t.kind, Tok::Open('(')))
        .unwrap_or(false)
    {
        let mut depth = 0usize;
        while j < tokens.len() {
            match &tokens[j].kind {
                Tok::Open('(') => depth += 1,
                Tok::Close(')') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Skip return type / where clause up to the body `{` or `;`.
    let mut angle = 0isize;
    while j < tokens.len() {
        angle += angle_delta(&tokens[j].kind);
        if matches!(tokens[j].kind, Tok::Open('{') | Tok::Punct(";")) && angle <= 0 {
            break;
        }
        j += 1;
    }
    j
}

/// Generic-bracket nesting change of one token (`<<`/`>>` lex as one).
fn angle_delta(kind: &Tok) -> isize {
    match kind {
        Tok::Punct("<") => 1,
        Tok::Punct(">") => -1,
        Tok::Punct("<<") => 2,
        Tok::Punct(">>") => -2,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::parse;

    fn extract_src(src: &str) -> Vec<FnInfo> {
        extract("crates/x/src/lib.rs", &parse(src)).fns
    }

    #[test]
    fn root_markers_attach_to_the_fn_line() {
        let src =
            "fn a() {} // lint: root(hot)\n/// Docs.\n// lint: root(hot)\nfn b() {}\nfn c() {}\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        let roots: Vec<&[RootKind]> = ex.fns.iter().map(|f| f.roots.as_slice()).collect();
        assert_eq!(roots, vec![&[RootKind::Hot][..], &[RootKind::Hot], &[]]);
        assert!(ex.marker_errors.is_empty(), "{:?}", ex.marker_errors);
    }

    #[test]
    fn misplaced_and_unknown_root_markers_are_errors() {
        let src = "// lint: root(hot)\n#[inline]\nfn a() {} // lint: root(determinism)\nstruct S; // lint: root(hot)\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        let lines: Vec<&str> = ex
            .marker_errors
            .iter()
            .map(|e| e.split(": ").next().unwrap_or(""))
            .collect();
        assert_eq!(
            lines,
            vec![
                "crates/x/src/lib.rs:2",
                "crates/x/src/lib.rs:3",
                "crates/x/src/lib.rs:4"
            ]
        );
        assert!(ex.fns[0].roots.is_empty());
    }

    #[test]
    fn impl_and_trait_context_is_recorded() {
        let fns = extract_src(
            "impl TagletModule for FixMatch {\n    fn train(&self) {}\n}\nimpl Plain {\n    fn go(&self) {}\n}\nfn free() {}\n",
        );
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].qualified(), "FixMatch::train");
        assert_eq!(fns[0].trait_name.as_deref(), Some("TagletModule"));
        assert_eq!(fns[1].qualified(), "Plain::go");
        assert_eq!(fns[1].trait_name, None);
        assert_eq!(fns[2].qualified(), "free");
    }

    #[test]
    fn calls_capture_qualifiers() {
        let fns = extract_src(
            "impl System {\n    fn run(&self) {\n        self.select();\n        Executor::launch();\n        helper();\n        println!(\"no\");\n    }\n}\n",
        );
        let calls: Vec<(Option<&str>, &str)> = fns[0]
            .calls
            .iter()
            .map(|c| (c.qualifier.as_deref(), c.name.as_str()))
            .collect();
        assert_eq!(
            calls,
            vec![
                (Some("self"), "select"),
                (Some("Executor"), "launch"),
                (None, "helper"),
            ]
        );
    }

    #[test]
    fn test_functions_are_skipped() {
        let fns = extract_src(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = Instant::now(); }\n}\n",
        );
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "lib");
    }

    #[test]
    fn hotpath_allocation_shapes_are_found() {
        let fns = extract_src(
            "fn f() {\n    let a = Vec::with_capacity(8);\n    let b = vec![0u8; 4];\n    let c = xs.to_vec();\n    let d = xs.iter().collect::<Vec<u32>>();\n    let e = cfg.clone();\n    let g = format!(\"x\");\n    let h = Box::new(0);\n    let i = String::from(\"y\");\n}\n",
        );
        let whats: Vec<&str> = fns[0]
            .facts
            .iter()
            .filter(|h| h.kind == FactKind::HeapAlloc)
            .map(|h| h.what.as_str())
            .collect();
        assert_eq!(
            whats,
            vec![
                "Vec::with_capacity()",
                "vec![..]",
                ".to_vec()",
                ".collect()",
                ".clone()",
                "format![..]",
                "Box::new()",
                "String::from()",
            ]
        );
    }

    #[test]
    fn hotpath_blocking_shapes_are_found() {
        let fns = extract_src(
            "fn f() {\n    let g = m.lock().unwrap();\n    let v = rx.recv().unwrap();\n    thread::sleep(d);\n    let s = fs::read_to_string(p);\n    let file = File::open(p);\n    let r = lk.read();\n    let n = stream.read(&mut buf);\n}\n",
        );
        let whats: Vec<&str> = fns[0]
            .facts
            .iter()
            .filter(|h| h.kind == FactKind::Blocking)
            .map(|h| h.what.as_str())
            .collect();
        assert_eq!(
            whats,
            vec![
                ".lock()",
                ".recv()",
                "thread::sleep",
                "fs::read_to_string()",
                "File::open()",
                ".read()",
            ],
            "buffered .read(&mut buf) is io, not a lock — excluded"
        );
    }

    #[test]
    fn hotpath_panic_shapes_are_found_and_deduped() {
        let fns = extract_src(
            "fn f(xs: &[f32], out: &mut [f32], n: usize, d: usize) {\n    out[0] = xs[1];\n    dst.copy_from_slice(src);\n    let q = n / d;\n    let r = n % 4;\n    let s = 1.0 / scale;\n    let half = n / 2;\n}\n",
        );
        let whats: Vec<&str> = fns[0]
            .facts
            .iter()
            .filter(|h| h.kind == FactKind::PanicCapable)
            .map(|h| h.what.as_str())
            .collect();
        assert_eq!(
            whats,
            vec![
                "out[..] indexing",
                ".copy_from_slice(..)",
                "/ d (integer division)",
            ],
            "out[0]=xs[1] dedupes to one site; literal and float divisors are fine"
        );
    }

    #[test]
    fn hotpath_excludes_non_indexing_brackets() {
        let fns = extract_src(
            "fn f(v: &mut [f32]) {\n    let a: [f32; 2] = [0.0, 0.0];\n    for x in [1, 2] { let _ = x; }\n    let s = &v[..];\n}\n",
        );
        let panics: Vec<&str> = fns[0]
            .facts
            .iter()
            .filter(|h| h.kind == FactKind::PanicCapable)
            .map(|h| h.what.as_str())
            .collect();
        assert_eq!(
            panics,
            vec!["v[..] indexing"],
            "types, array literals, and for-in arrays are not index expressions"
        );
    }

    #[test]
    fn hotpath_waivers_map_to_their_kinds() {
        let fns = extract_src(
            "fn f() {\n    let a = xs.to_vec(); // lint: alloc(one-time warmup)\n    let b = xs.to_vec();\n    let c = xs[0]; // lint: panicfree(len checked above)\n    let d = xs[1]; // lint: alloc(wrong waiver kind)\n    let g = m.lock(); // lint: allow(TL015)\n}\n",
        );
        let h = &fns[0].facts;
        assert!(h[0].waived, "alloc(reason) waives HeapAlloc");
        assert!(!h[1].waived);
        assert!(h[2].waived, "panicfree(reason) waives PanicCapable");
        assert!(!h[3].waived, "alloc(reason) does not waive PanicCapable");
        assert!(!h[4].waived, "Blocking has no reasoned waiver");
        assert!(h[4].allows.iter().any(|a| a == "TL015"));
    }
}
