//! The TL rule set.
//!
//! TL004 and TL008 match over each file's token stream from
//! [`crate::lexer`], with the per-line test and directive metadata of
//! [`crate::source`], so string contents, comments and tuple indices can
//! never look like code. TL014–TL016 come from item facts
//! ([`crate::items`]) over the call-graph ([`crate::callgraph`]) through
//! the reachability engine ([`crate::reach`]). They share only the
//! [`Violation`] type and scoping logic here. The hot-path rules skip the
//! bench crate (timing is its purpose).
//!
//! Unwrap and panic macros, wall-clock reads, thread spawning, entropy
//! sources, host libm calls, interior mutability, hash-order iteration,
//! missing docs and `unsafe` are checked by the toolchain
//! (`[workspace.lints]` and `clippy.toml`); codes TL001–TL003, TL005–TL007
//! and TL009–TL013 stay unassigned.

use std::collections::BTreeSet;

use crate::lexer::{Tok, Token};
use crate::source::SourceFile;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `==` / `!=` on float expressions.
    Tl004,
    /// `.into_iter()` on a binding declared as a `HashMap`/`HashSet`.
    Tl008,
    /// Heap allocation reachable from a latency-critical root without a
    /// reasoned `lint: alloc(reason)` waiver (hot-path reachability walk).
    Tl014,
    /// Blocking operation (lock, channel recv, filesystem/io, sleep)
    /// reachable from a latency-critical root.
    Tl015,
    /// Panic-capable op (slice indexing, `copy_from_slice`, integer
    /// division) on the serve path without a `lint: panicfree(reason)`
    /// waiver.
    Tl016,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::Tl004,
    Rule::Tl008,
    Rule::Tl014,
    Rule::Tl015,
    Rule::Tl016,
];

impl Rule {
    /// Stable code used in reports, baselines, and allow directives.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Tl004 => "TL004",
            Rule::Tl008 => "TL008",
            Rule::Tl014 => "TL014",
            Rule::Tl015 => "TL015",
            Rule::Tl016 => "TL016",
        }
    }

    /// One-line description shown in reports.
    pub fn description(self) -> &'static str {
        match self {
            Rule::Tl004 => "==/!= comparison on float expressions",
            Rule::Tl008 => "into_iter() on a HashMap/HashSet binding",
            Rule::Tl014 => "heap allocation reachable from a latency-critical root",
            Rule::Tl015 => "blocking operation reachable from a latency-critical root",
            Rule::Tl016 => "panic-capable op on the serve path",
        }
    }

    /// One-paragraph rationale shown by `--explain`.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::Tl004 => {
                "== / != on floats encode an exactness floats do not have. After \
                 any reassociation or platform difference the comparison flips, so \
                 thresholds and approx-comparisons must be explicit."
            }
            Rule::Tl008 => {
                "HashMap/HashSet iteration order depends on hasher state, so a \
                 walk over one feeds arbitrary order into results. Clippy's \
                 iter_over_hash_type and disallowed methods catch `for` loops \
                 and the inherent iterators (iter, keys, values, drain); the \
                 IntoIterator::into_iter method cannot be disallowed for one \
                 receiver type, so this rule flags `.into_iter()` on a binding \
                 whose `let` statement, parameter or field type names HashMap \
                 or HashSet. Iterate a BTreeMap/BTreeSet or sort first."
            }
            Rule::Tl014 => {
                "Hot-path reachability over the call-graph: a heap \
                 allocation (Vec::new/with_capacity, vec![], to_vec, collect, \
                 clone, Box::new, String::from, format!) is transitively \
                 reachable from a latency-critical root — a function marked \
                 `// lint: root(hot)` where it is defined: the serving \
                 engine's request path, the batched inference fast path, \
                 and the *_into kernels. Steady-state \
                 serving must reuse scratch (InferScratch, GradScratch, \
                 PackedWeights); setup code (new/with_*/load constructors and \
                 one-time *Scratch/Packed* builders) is exempt by a \
                 root-relative cut, so every surviving site needs `// lint: \
                 alloc(reason)` stating why the allocation is acceptable."
            }
            Rule::Tl015 => {
                "A blocking operation (Mutex/RwLock lock, channel recv, \
                 std::fs/std::io call, thread::sleep) is reachable from a \
                 latency-critical root (a `root(hot)` marker, walked up to the \
                 TL014 setup cut). One blocked worker stalls the whole \
                 micro-batch, so the serve and kernel paths are lock-free by \
                 construction: state is owned by the engine thread and workers \
                 get disjoint output blocks. There is no reasoned waiver — cut \
                 the call out of the hot path, or `lint: allow(TL015)` with \
                 review."
            }
            Rule::Tl016 => {
                "A panic-capable op (slice/array indexing, copy_from_slice, \
                 integer division by a non-literal divisor) sits on the serve \
                 path: reachable from a `root(hot)` marker, up to the TL014 \
                 setup cut. A panic there aborts the engine's one thread and \
                 every in-flight request with it, so hot code must argue its \
                 bounds: each surviving site carries `// lint: \
                 panicfree(reason)` stating why the index/divisor is in range \
                 (dimensions validated at load, block sizes clamped, divisor \
                 checked nonzero upstream)."
            }
        }
    }

    /// The inline waiver syntax that suppresses this rule, shown by
    /// `--explain`.
    pub fn waiver(self) -> &'static str {
        match self {
            Rule::Tl014 => {
                "// lint: alloc(reason) — the reason is required and must state \
                 why this allocation is acceptable on the hot path (one-time, \
                 amortized, or bounded)"
            }
            Rule::Tl016 => {
                "// lint: panicfree(reason) — the reason is required and must \
                 state the bounds argument (why the index is in range or the \
                 divisor nonzero)"
            }
            _ => "// lint: allow(TLxxx) on the offending line, or standalone on the line above",
        }
    }

    /// Parses a rule code like `TL014`.
    pub fn from_code(code: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.code() == code)
    }

    /// Whether this rule applies to the file at workspace-relative `path`.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Rule::Tl004 | Rule::Tl008 => true,
            // Hot-path hygiene rules skip benches (they allocate and time
            // by design) and the lint crate itself (tooling with no
            // latency-critical roots — only over-approximate name fan-out
            // can reach it). Product crates get no path exemption: setup
            // code is cut root-relatively in the walk instead.
            Rule::Tl014 | Rule::Tl015 | Rule::Tl016 => {
                !path.starts_with("crates/bench/") && !path.starts_with("crates/lint/")
            }
        }
    }
}

/// One function-level step in a call chain, from a latency-critical root
/// toward the offending site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Qualified function name (`TagletsSystem::run`).
    pub name: String,
    /// Workspace-relative file declaring the function.
    pub file: String,
    /// 1-based line of the `fn`.
    pub line: usize,
}

/// A single rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source excerpt for the report.
    pub excerpt: String,
    /// For TL014–TL016: the call chain from the latency-critical root down
    /// to the function containing the allocating, blocking, or
    /// panic-capable site. Empty for TL004.
    pub chain: Vec<Hop>,
}

/// Runs the per-file token rules, TL004 and TL008, over one parsed file.
/// TL014–TL016 need the whole workspace and are produced by
/// [`crate::reach`] instead.
pub fn check_file(path: &str, file: &SourceFile) -> Vec<Violation> {
    let mut out = float_comparisons(path, file);
    out.extend(hash_into_iter(path, file));
    out
}

/// TL004: `==` / `!=` with a float-typed operand nearby, once per
/// comparison.
///
/// Works over real tokens, so tuple indices (`x.0.1`) lex as integers,
/// string and char literal contents are single tokens, and `1..2` is a
/// range, not a float. An operand window extends from the comparison until
/// a token that must end the expression.
fn float_comparisons(path: &str, file: &SourceFile) -> Vec<Violation> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.is("==") || tok.is("!=")) {
            continue;
        }
        let meta = file.line(tok.line);
        if meta
            .map(|l| l.in_test || l.allows("TL004"))
            .unwrap_or(false)
        {
            continue;
        }
        let left = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| !ends_left_operand(t))
            .take(12);
        let right = tokens[i + 1..]
            .iter()
            .take_while(|t| !ends_right_operand(t))
            .take(12);
        if left.chain(right).any(floatish) {
            out.push(Violation {
                rule: Rule::Tl004,
                file: path.to_string(),
                line: tok.line,
                excerpt: meta.map(|l| excerpt(&l.raw)).unwrap_or_default(),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// Tokens that cannot belong to either comparison operand.
fn ends_any_operand(t: &Token) -> bool {
    matches!(
        t.kind,
        Tok::Punct(";" | "," | "&&" | "||" | "=" | "=>" | "==" | "!=")
    )
}

/// Walking left, an opening delimiter means the comparison's expression
/// started after it (`f(a == b)` must not see `f`'s siblings).
fn ends_left_operand(t: &Token) -> bool {
    ends_any_operand(t) || matches!(t.kind, Tok::Open(_) | Tok::Close('}'))
}

/// Walking right, a closing delimiter (or block open) ends the expression.
fn ends_right_operand(t: &Token) -> bool {
    ends_any_operand(t) || matches!(t.kind, Tok::Close(_) | Tok::Open('{'))
}

/// A token that makes the operand float-typed.
fn floatish(t: &Token) -> bool {
    matches!(t.kind, Tok::Float) || matches!(t.ident(), Some("f32" | "f64"))
}

/// TL008: `name.into_iter()` where `name` is declared anywhere in the file
/// as a hash collection: a `let` whose statement names `HashMap`/`HashSet`,
/// or a `name: Type` parameter or field whose type does. Names are
/// file-wide, not scoped, so a reused name over-approximates.
fn hash_into_iter(path: &str, file: &SourceFile) -> Vec<Violation> {
    let tokens = &file.tokens;
    if !tokens
        .iter()
        .any(|t| matches!(t.ident(), Some("HashMap" | "HashSet")))
    {
        return Vec::new();
    }
    let mut hashed: BTreeSet<&str> = BTreeSet::new();
    for (i, tok) in tokens.iter().enumerate() {
        let declared = if tok.ident() == Some("let") {
            let at = i + 1 + usize::from(tokens.get(i + 1).and_then(Token::ident) == Some("mut"));
            tokens
                .get(at)
                .and_then(Token::ident)
                .filter(|_| names_hash_type(&tokens[at..], &[";"]))
        } else if tokens.get(i + 1).is_some_and(|t| t.is(":")) {
            tok.ident()
                .filter(|_| names_hash_type(&tokens[i + 2..], &[";", ",", "=", "{"]))
        } else {
            None
        };
        hashed.extend(declared);
    }
    let mut out = Vec::new();
    for w in tokens.windows(4) {
        let [recv, dot, method, open] = w else {
            continue;
        };
        let is_call = dot.is(".")
            && method.ident() == Some("into_iter")
            && matches!(open.kind, Tok::Open('('));
        if !is_call || !recv.ident().is_some_and(|r| hashed.contains(r)) {
            continue;
        }
        let meta = file.line(method.line);
        if meta.is_some_and(|l| l.in_test || l.allows("TL008")) {
            continue;
        }
        out.push(Violation {
            rule: Rule::Tl008,
            file: path.to_string(),
            line: method.line,
            excerpt: meta.map(|l| excerpt(&l.raw)).unwrap_or_default(),
            chain: Vec::new(),
        });
    }
    out
}

/// Whether `HashMap`/`HashSet` appears before the declaration ends: at one
/// of `ends` outside any bracket, or at a bracket that closes around it.
fn names_hash_type(tokens: &[Token], ends: &[&str]) -> bool {
    let mut depth = 0usize;
    for t in tokens {
        match t.kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) if depth == 0 => return false,
            Tok::Close(_) => depth -= 1,
            _ if depth == 0 && ends.iter().any(|e| t.is(e)) => return false,
            _ => {}
        }
        if matches!(t.ident(), Some("HashMap" | "HashSet")) {
            return true;
        }
    }
    false
}

fn excerpt(raw: &str) -> String {
    let trimmed = raw.trim();
    if trimmed.chars().count() > 90 {
        let head: String = trimmed.chars().take(87).collect();
        format!("{head}...")
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::parse;

    fn violations(path: &str, src: &str) -> Vec<(Rule, usize)> {
        let mut v: Vec<(Rule, usize)> = check_file(path, &parse(src))
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn tl004_flags_float_comparisons() {
        let src =
            "fn f() {\n    if x == 0.0 {}\n    if y as f32 != z {}\n    if n == 0 {}\n    if v[0] == w[1] {}\n}\n";
        let v = violations("crates/x/src/lib.rs", src);
        assert_eq!(v, vec![(Rule::Tl004, 2), (Rule::Tl004, 3)]);
    }

    #[test]
    fn tl004_ignores_pattern_arrows_and_orderings() {
        let src =
            "fn f() {\n    if a <= 1.0 {}\n    if b >= 2.0 {}\n    match c { _ => 3.0 };\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl004_tuple_indices_are_not_floats() {
        // The old line heuristic saw `.0.1` as a float literal.
        let src = "fn f() {\n    if pair.0.1 != other.0.1 {}\n    if m[k].2.0 == n {}\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl004_string_contents_are_not_floats() {
        let src = "fn f() {\n    assert!(name != \"v1.5\", \"saw 2.5\");\n    if tag != other { log(\"3.14\") }\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl004_ranges_are_not_floats() {
        let src = "fn f() {\n    for i in 1..10 { if i == j {} }\n    if (0..5).len() == 5 {}\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl004_true_float_comparisons_still_fire() {
        let src =
            "fn f() {\n    if loss == 0.0 {}\n    if (x as f32) != y {}\n    if a != 1e-6 {}\n}\n";
        let v = violations("crates/x/src/lib.rs", src);
        assert_eq!(
            v,
            vec![(Rule::Tl004, 2), (Rule::Tl004, 3), (Rule::Tl004, 4)]
        );
    }

    #[test]
    fn tl004_skips_test_code_and_comments() {
        let src = "// if x == 0.0 in a comment\n#[cfg(test)]\nmod tests {\n    fn t() { if x == 0.0 {} }\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "fn f() {\n    if x == 0.0 {} // lint: allow(TL004)\n    // lint: allow(TL004)\n    if y == 0.0 {}\n    if z == 0.0 {}\n}\n";
        assert_eq!(
            violations("crates/x/src/lib.rs", src),
            vec![(Rule::Tl004, 5)]
        );
    }

    #[test]
    fn tl008_flags_into_iter_on_hash_bindings_only() {
        let src = "fn f(index: HashMap<String, usize>, v: Vec<u8>) {\n    let seen = HashSet::new();\n    let a = index.into_iter().count();\n    let b = seen.into_iter().count(); // lint: allow(TL008)\n    let c = v.into_iter().count() + index.iter().count();\n    let m: BTreeMap<u8, u8> = BTreeMap::new();\n    let d = m.into_iter().count();\n}\n#[cfg(test)]\nmod tests {\n    fn t(index: HashMap<u8, u8>) { index.into_iter(); }\n}\n";
        let v = violations("crates/x/src/lib.rs", src);
        assert_eq!(v, vec![(Rule::Tl008, 3)]);
    }

    #[test]
    fn every_rule_has_rationale_and_waiver() {
        for rule in ALL_RULES {
            assert!(!rule.rationale().is_empty(), "{}", rule.code());
            assert!(rule.waiver().starts_with("// lint:"), "{}", rule.code());
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
        }
    }

    /// Codes of the rules clippy and rustc replaced; they stay unassigned.
    const RETIRED: [&str; 11] = [
        "TL001", "TL002", "TL003", "TL005", "TL006", "TL007", "TL009", "TL010", "TL011", "TL012",
        "TL013",
    ];

    #[test]
    fn design_doc_table_matches_rule_descriptions() {
        // DESIGN.md §6's rule table is the single source of truth shared
        // with `--explain`: each row carries the exact description string.
        // Enumerating the IDs numerically (rather than via ALL_RULES) means
        // a rule added to the enum but dropped from ALL_RULES — or shipped
        // without a table row or --explain entry — fails here, and so does
        // a retired code that comes back.
        let design = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md"),
        )
        .expect("DESIGN.md is readable from the workspace");
        for n in 1..=16 {
            let code = format!("TL{n:03}");
            if RETIRED.contains(&code.as_str()) {
                assert_eq!(Rule::from_code(&code), None, "{code} is retired");
                assert!(
                    !design.contains(&format!("| {code} |")),
                    "DESIGN.md §6 still has a row for the retired {code}"
                );
                continue;
            }
            let rule =
                Rule::from_code(&code).unwrap_or_else(|| panic!("{code} missing from ALL_RULES"));
            let row = format!("| {} | {} |", rule.code(), rule.description());
            assert!(
                design.contains(&row),
                "DESIGN.md §6 table is out of sync for {code}: expected a row starting `{row}`",
            );
            assert!(
                !rule.rationale().trim().is_empty(),
                "{code} has an empty --explain rationale"
            );
            assert!(
                rule.waiver().starts_with("// lint:"),
                "{code} has no --explain waiver syntax"
            );
        }
        assert_eq!(
            ALL_RULES.len(),
            16 - RETIRED.len(),
            "rule count drifted from this test"
        );
    }
}
