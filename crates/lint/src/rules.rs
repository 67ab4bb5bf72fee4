//! The TL rule set.
//!
//! TL001–TL003, TL005 and TL006 are line-level matchers over the cleaned
//! source produced by [`crate::scanner`]. TL004 matches over the token
//! stream from [`crate::lexer`] (so tuple indices and string contents can
//! never look like float literals). TL007–TL012 and TL014–TL016 come from
//! item facts ([`crate::items`]) over the call-graph ([`crate::callgraph`]):
//! at the fact's site, or through the one reachability engine
//! ([`crate::reach`]); TL013 from a token walk over worker closures
//! ([`crate::concurrency`]). All of them share only the [`Violation`] type
//! and scoping logic here. Rules are scoped: TL001/TL002 apply to all
//! library code, TL003 and the determinism/concurrency/hot-path rules skip
//! the bench crate (timing is its purpose), and TL005 is an advisory
//! documentation rule limited to the `tensor` and `core` crates.

use crate::lexer::{Tok, Token};
use crate::scanner::SourceLine;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unwrap()` / `expect()` in non-test library code.
    Tl001,
    /// `panic!` / `todo!` / `unreachable!` / `unimplemented!` in library code.
    Tl002,
    /// Nondeterminism sources in training/module code.
    Tl003,
    /// `==` / `!=` on float expressions.
    Tl004,
    /// Missing doc comment on `pub fn` in `tensor`/`core` (advisory).
    Tl005,
    /// Thread spawning outside the execution engine (`tensor/src/exec.rs`).
    Tl006,
    /// Nondeterminism source reachable from a declared deterministic root
    /// (taint analysis over the workspace call-graph).
    Tl007,
    /// Iteration over an unordered `HashMap`/`HashSet` in library code.
    Tl008,
    /// RNG construction not derived from a seed.
    Tl009,
    /// `unsafe` code without a reasoned `lint: unsafe(reason)` waiver.
    Tl010,
    /// Interior-mutability type reachable from an executor dispatch point
    /// (concurrency dataflow over the workspace call-graph).
    Tl011,
    /// Atomic memory ordering weaker than `SeqCst`.
    Tl012,
    /// Floating-point compound accumulation onto shared state inside a
    /// dispatched worker closure (non-associative reduction smell).
    Tl013,
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
pub const ALL_RULES: [Rule; 16] = [
    Rule::Tl001,
    Rule::Tl002,
    Rule::Tl003,
    Rule::Tl004,
    Rule::Tl005,
    Rule::Tl006,
    Rule::Tl007,
    Rule::Tl008,
    Rule::Tl009,
    Rule::Tl010,
    Rule::Tl011,
    Rule::Tl012,
    Rule::Tl013,
    Rule::Tl014,
    Rule::Tl015,
    Rule::Tl016,
];

impl Rule {
    /// Stable code used in reports, baselines, and allow directives.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Tl001 => "TL001",
            Rule::Tl002 => "TL002",
            Rule::Tl003 => "TL003",
            Rule::Tl004 => "TL004",
            Rule::Tl005 => "TL005",
            Rule::Tl006 => "TL006",
            Rule::Tl007 => "TL007",
            Rule::Tl008 => "TL008",
            Rule::Tl009 => "TL009",
            Rule::Tl010 => "TL010",
            Rule::Tl011 => "TL011",
            Rule::Tl012 => "TL012",
            Rule::Tl013 => "TL013",
            Rule::Tl014 => "TL014",
            Rule::Tl015 => "TL015",
            Rule::Tl016 => "TL016",
        }
    }

    /// One-line description shown in reports.
    pub fn description(self) -> &'static str {
        match self {
            Rule::Tl001 => "unwrap()/expect() in non-test library code",
            Rule::Tl002 => "panic!/todo!/unreachable!/unimplemented! in library code",
            Rule::Tl003 => "nondeterminism source (thread_rng/random/Instant/SystemTime)",
            Rule::Tl004 => "==/!= comparison on float expressions",
            Rule::Tl005 => "missing doc comment on pub fn (advisory)",
            Rule::Tl006 => "thread::spawn/scope outside the exec module",
            Rule::Tl007 => "nondeterminism reachable from a deterministic root",
            Rule::Tl008 => "iteration over unordered HashMap/HashSet in library code",
            Rule::Tl009 => "RNG construction not derived from a seed",
            Rule::Tl010 => "unsafe code without a reasoned lint: unsafe(reason) waiver",
            Rule::Tl011 => "interior-mutability type reachable from an executor dispatch",
            Rule::Tl012 => "atomic memory ordering weaker than SeqCst",
            Rule::Tl013 => "float accumulation onto shared state in a worker closure",
            Rule::Tl014 => "heap allocation reachable from a latency-critical root",
            Rule::Tl015 => "blocking operation reachable from a latency-critical root",
            Rule::Tl016 => "panic-capable op on the serve path",
        }
    }

    /// One-paragraph rationale shown by `--explain`.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::Tl001 => {
                "unwrap()/expect() turn recoverable conditions into process aborts. \
                 Library code in this workspace returns Result so callers (the CLI, \
                 the serving engine, tests) decide how failures surface; a panic \
                 deep inside training or inference kills the whole run and hides \
                 the error from the experiment log."
            }
            Rule::Tl002 => {
                "panic!/todo!/unreachable!/unimplemented! are aborts by another \
                 name. A reproduction run that dies mid-sweep loses every cell \
                 computed so far, so library code must express impossibility \
                 through types or return errors instead of asserting it."
            }
            Rule::Tl003 => {
                "thread_rng/random/Instant/SystemTime inject ambient state into \
                 results. The paper's claims are only checkable if the same seed \
                 produces the same bytes, so every random or time-like value must \
                 flow from an explicit seed or a virtual clock."
            }
            Rule::Tl004 => {
                "== / != on floats encode an exactness floats do not have. After \
                 any reassociation or platform difference the comparison flips, so \
                 thresholds and approx-comparisons must be explicit."
            }
            Rule::Tl005 => {
                "Public tensor/core functions are this reproduction's API surface; \
                 an undocumented pub fn forces the next reader back into the paper. \
                 Advisory: reported, never fails --check."
            }
            Rule::Tl006 => {
                "All thread spawning is hoisted into tensor::exec so determinism \
                 has exactly one place to be argued (claim order, reassembly, \
                 error selection). A stray thread::spawn elsewhere would create a \
                 second, unaudited concurrency story."
            }
            Rule::Tl007 => {
                "Reachability over the workspace call-graph: a function declared \
                 deterministic (seeded training, eval, serving) transitively calls \
                 a nondeterminism source. Roots are declared where the function \
                 is defined, by a `// lint: root(determinism)` marker on the fn \
                 line or the comment line directly above it. The chain in the \
                 diagnostic lists every hop so the offending call can be cut or \
                 seeded."
            }
            Rule::Tl008 => {
                "HashMap/HashSet iteration order depends on hasher state, so any \
                 loop over one feeds arbitrary order into results. Library code \
                 iterates BTreeMap/BTreeSet or sorts first."
            }
            Rule::Tl009 => {
                "An RNG built from entropy (or an unseeded constructor) cannot be \
                 replayed. Every generator must derive from the experiment seed so \
                 the whole pipeline is one function of (data, config, seed)."
            }
            Rule::Tl010 => {
                "unsafe code suspends the compiler's aliasing and lifetime proofs, \
                 which is exactly what the parallel executor's buffer-splitting \
                 relies on. Each unsafe site must state its safety argument inline \
                 via `// lint: unsafe(reason)` so the audit lives next to the code \
                 and shows up in review diffs."
            }
            Rule::Tl011 => {
                "Concurrency dataflow over the call-graph: an interior-mutability \
                 type (Mutex, RwLock, RefCell, Cell, UnsafeCell, atomics, static \
                 mut) is reachable from an executor map/run/for_each or \
                 scope.spawn dispatch point, meaning worker closures can share \
                 mutable state. Lock contention or racy updates there break the \
                 bitwise-identical-at-1/2/4-workers invariant; the diagnostic's \
                 chain shows the dispatch-to-state path. The roots are read from \
                 the code, so they need no root(...) marker; state declared at \
                 file scope (struct fields, statics) fires at the site."
            }
            Rule::Tl012 => {
                "Orderings weaker than SeqCst (Relaxed, Acquire, Release, AcqRel) \
                 trade reordering freedom for proofs the lint cannot check. The \
                 executor core carries reasoned waivers for its claim counter; \
                 anywhere else the default must be SeqCst until a waiver argues \
                 otherwise."
            }
            Rule::Tl013 => {
                "A compound float accumulation (`acc += x`) onto state declared \
                 outside a dispatched worker closure reorders a non-associative \
                 reduction across workers. Sums must be computed per-worker and \
                 reassembled in index order, as the executor's map/run contract \
                 does."
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
                 setup cut. A panic inside a worker closure poisons the executor \
                 and kills every in-flight request, so hot code must argue its \
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
            Rule::Tl003 | Rule::Tl007 | Rule::Tl009 => {
                "// lint: allow(TLxxx), nondeterministic(reason) — the reason is \
                 required and documents why the value never feeds results"
            }
            Rule::Tl010 => {
                "// lint: unsafe(reason) — the reason is required and must state \
                 the safety argument (aliasing, lifetime, initialization)"
            }
            Rule::Tl011 | Rule::Tl012 | Rule::Tl013 => {
                "// lint: concurrency(reason) — the reason is required and must \
                 state why the shared state cannot perturb results"
            }
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

    /// Advisory rules are reported but never fail `--check`.
    pub fn is_advisory(self) -> bool {
        matches!(self, Rule::Tl005)
    }

    /// Parses a rule code like `TL001`.
    pub fn from_code(code: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.code() == code)
    }

    /// Whether this rule applies to the file at workspace-relative `path`.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            // Binary targets may fail loudly at the top level; the panic
            // rules police *library* code.
            Rule::Tl001 | Rule::Tl002 => !is_binary_target(path),
            // Benchmarks time things and seed from entropy by design.
            Rule::Tl003 => !path.starts_with("crates/bench/"),
            Rule::Tl004 => true,
            Rule::Tl005 => {
                path.starts_with("crates/tensor/src/") || path.starts_with("crates/core/src/")
            }
            // All thread spawning lives in the execution engine (hoisted to
            // the tensor crate so blocked kernels can use it) so that
            // determinism has exactly one place to be argued; benches may
            // probe parallelism freely.
            Rule::Tl006 => {
                path != "crates/tensor/src/exec.rs" && !path.starts_with("crates/bench/")
            }
            // Determinism rules: benches time and sample by design; TL008
            // additionally tolerates binaries (a CLI summarising a HashMap
            // does not perturb seeded results).
            Rule::Tl007 | Rule::Tl009 => !path.starts_with("crates/bench/"),
            Rule::Tl008 => !path.starts_with("crates/bench/") && !is_binary_target(path),
            // Concurrency-safety rules apply everywhere except benches; the
            // executor core is *not* exempted — its sites carry reasoned
            // waivers instead, so the safety argument is written down.
            Rule::Tl010 | Rule::Tl011 | Rule::Tl012 | Rule::Tl013 => {
                !path.starts_with("crates/bench/")
            }
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

/// True for executable entry points (`src/bin/*`, `src/main.rs`), where a
/// top-level `expect` on user input is idiomatic.
fn is_binary_target(path: &str) -> bool {
    path.contains("/bin/") || path == "src/main.rs" || path.ends_with("/src/main.rs")
}

/// One function-level step in a taint chain, from a deterministic root
/// toward the nondeterminism source.
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
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source excerpt for the report.
    pub excerpt: String,
    /// For TL007: the call chain from the deterministic root down to the
    /// function containing the source. For TL011: the chain from the
    /// dispatching function down to the shared state. For TL014–TL016: the
    /// chain from the latency-critical root down to the allocating,
    /// blocking, or panic-capable site. Empty otherwise.
    pub chain: Vec<Hop>,
}

/// Runs every applicable line-level rule plus the token-level TL004 pass
/// over one file. TL007–TL016 need the whole workspace and are produced by
/// [`crate::reach`] and [`crate::concurrency`] instead.
pub fn check_file(path: &str, lines: &[SourceLine], tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for rule in ALL_RULES {
            if !rule.applies_to(path) || line.allows(rule.code()) {
                continue;
            }
            let hit = match rule {
                Rule::Tl001 => hits_tl001(&line.code),
                Rule::Tl002 => hits_tl002(&line.code),
                Rule::Tl003 => hits_tl003(&line.code),
                Rule::Tl005 => hits_tl005(lines, idx),
                Rule::Tl006 => hits_tl006(&line.code),
                // TL004 is token-level (below); TL007+ are workspace-level.
                _ => false,
            };
            if hit {
                out.push(Violation {
                    rule,
                    file: path.to_string(),
                    line: line.number,
                    excerpt: excerpt(&line.raw),
                    chain: Vec::new(),
                });
            }
        }
    }
    if Rule::Tl004.applies_to(path) {
        out.extend(check_tl004(path, lines, tokens));
    }
    out
}

/// Token-level TL004: `==` / `!=` with a float-typed operand nearby.
///
/// Works over real tokens, so the old line heuristic's false positives are
/// structurally impossible: tuple indices (`x.0.1`) lex as integers, string
/// and char literal contents are single tokens, and `1..2` is a range, not
/// a float. An operand window extends from the comparison until a token
/// that must end the expression.
fn check_tl004(path: &str, lines: &[SourceLine], tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.is_punct("==") || tok.is_punct("!=")) {
            continue;
        }
        let meta = lines.get(tok.line.saturating_sub(1));
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

fn excerpt(raw: &str) -> String {
    let trimmed = raw.trim();
    if trimmed.chars().count() > 90 {
        let head: String = trimmed.chars().take(87).collect();
        format!("{head}...")
    } else {
        trimmed.to_string()
    }
}

/// `.unwrap()` or `.expect(` — but not `.unwrap_or*` / `.expect_err`.
fn hits_tl001(code: &str) -> bool {
    contains_method_call(code, "unwrap", true) || contains_method_call(code, "expect", false)
}

/// Finds `.name(` (or `.name()` when `empty_args`), requiring the full
/// method name so `.unwrap_or()` and `.expect_err()` do not match.
fn contains_method_call(code: &str, name: &str, empty_args: bool) -> bool {
    let needle = format!(".{name}(");
    let mut start = 0;
    while let Some(pos) = code[start..].find(&needle) {
        let at = start + pos;
        let after = at + needle.len();
        if empty_args {
            if code[after..].starts_with(')') {
                return true;
            }
        } else {
            return true;
        }
        start = after;
    }
    false
}

/// Panic-family macro invocations at a word boundary.
fn hits_tl002(code: &str) -> bool {
    ["panic!", "todo!", "unreachable!", "unimplemented!"]
        .iter()
        .any(|m| contains_word(code, m))
}

/// Nondeterminism sources.
fn hits_tl003(code: &str) -> bool {
    [
        "thread_rng",
        "rand::random",
        "Instant::now",
        "SystemTime::",
        "from_entropy",
    ]
    .iter()
    .any(|m| contains_word(code, m))
}

/// Substring match where the preceding character is not part of an
/// identifier (so `debug_assert!` does not hit `assert!`-style needles).
fn contains_word(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        if boundary {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Thread spawning primitives. Matched as words so e.g. a local identifier
/// `scoped_spawn` does not hit; `scope.spawn(...)`/`s.spawn(...)` inside an
/// existing `thread::scope` block are only reachable via the scope handle,
/// which itself requires a flagged `thread::scope` call to obtain.
fn hits_tl006(code: &str) -> bool {
    ["thread::spawn", "thread::scope", "thread::Builder"]
        .iter()
        .any(|m| contains_word(code, m))
}

/// `pub fn` without a doc comment in the contiguous attribute/doc block
/// directly above it.
fn hits_tl005(lines: &[SourceLine], idx: usize) -> bool {
    let trimmed = lines[idx].code.trim_start();
    let is_pub_fn = [
        "pub fn ",
        "pub const fn ",
        "pub unsafe fn ",
        "pub async fn ",
    ]
    .iter()
    .any(|p| trimmed.starts_with(p));
    if !is_pub_fn {
        return false;
    }
    // Walk upwards over attributes and doc lines.
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        if line.is_doc {
            return false;
        }
        let t = line.code.trim();
        let is_attr = t.starts_with("#[") || t.ends_with("]") && t.contains("#[");
        if is_attr || (t.is_empty() && !line.raw.trim().is_empty()) {
            // attribute (possibly multi-line) or a pure-comment line
            continue;
        }
        return true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scanner::scan;

    fn violations(path: &str, src: &str) -> Vec<(Rule, usize)> {
        let mut v: Vec<(Rule, usize)> = check_file(path, &scan(src), &lex(src))
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn tl001_flags_unwrap_and_expect_only() {
        let src = "fn f() {\n    a.unwrap();\n    b.expect(\"msg\");\n    c.unwrap_or(0);\n    d.unwrap_or_else(|| 0);\n    e.expect_err(\"msg\");\n}\n";
        let v = violations("crates/x/src/lib.rs", src);
        assert_eq!(v, vec![(Rule::Tl001, 2), (Rule::Tl001, 3)]);
    }

    #[test]
    fn tl001_skips_test_code_and_comments() {
        let src = "// a.unwrap() in a comment\n#[cfg(test)]\nmod tests {\n    fn t() { a.unwrap(); }\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl002_flags_panic_family() {
        let src = "fn f() {\n    panic!(\"boom\");\n    todo!();\n    unreachable!();\n    unimplemented!();\n    debug_assert!(true);\n}\n";
        let v = violations("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|(r, _)| *r == Rule::Tl002));
    }

    #[test]
    fn tl003_flags_nondeterminism_outside_bench() {
        let src = "fn f() {\n    let r = thread_rng();\n    let t = Instant::now();\n}\n";
        assert_eq!(violations("crates/nn/src/lib.rs", src).len(), 2);
        assert!(violations("crates/bench/src/lib.rs", src).is_empty());
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
    fn tl005_only_in_tensor_and_core() {
        let src = "pub fn undocumented() {}\n";
        assert_eq!(
            violations("crates/tensor/src/lib.rs", src),
            vec![(Rule::Tl005, 1)]
        );
        assert_eq!(
            violations("crates/core/src/lib.rs", src),
            vec![(Rule::Tl005, 1)]
        );
        assert!(violations("crates/nn/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl005_accepts_docs_above_attributes() {
        let src = "/// Documented.\n#[must_use]\npub fn documented() {}\n";
        assert!(violations("crates/tensor/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tl006_flags_thread_spawning_outside_exec() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| {});\n    thread::Builder::new();\n}\n";
        let v = violations("crates/nn/src/lib.rs", src);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|(r, _)| *r == Rule::Tl006));
        assert!(violations("crates/tensor/src/exec.rs", src).is_empty());
        // The executor's former home no longer gets a pass.
        assert!(!violations("crates/core/src/exec.rs", src).is_empty());
        assert!(violations("crates/bench/benches/exec_speedup.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "fn f() {\n    panic!(\"guard\"); // lint: allow(TL002)\n}\n";
        assert!(violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn every_rule_has_rationale_and_waiver() {
        for rule in ALL_RULES {
            assert!(!rule.rationale().is_empty(), "{}", rule.code());
            assert!(rule.waiver().starts_with("// lint:"), "{}", rule.code());
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
        }
    }

    #[test]
    fn design_doc_table_matches_rule_descriptions() {
        // DESIGN.md §6's rule table is the single source of truth shared
        // with `--explain`: each row carries the exact description string.
        // Enumerating the IDs numerically (rather than via ALL_RULES) means
        // a rule added to the enum but dropped from ALL_RULES — or shipped
        // without a table row or --explain entry — fails here.
        let design = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md"),
        )
        .expect("DESIGN.md is readable from the workspace");
        for n in 1..=16 {
            let code = format!("TL{n:03}");
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
        assert_eq!(ALL_RULES.len(), 16, "rule count drifted from this test");
    }
}
