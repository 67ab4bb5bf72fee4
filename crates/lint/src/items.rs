//! Item extraction: turns a token stream into per-function records.
//!
//! For every `fn` in a file this pass records where it lives (file, line,
//! enclosing `impl` type and trait), which analyses it is declared a root of
//! (a `root(...)` marker in a `lint:` comment on the `fn` line or directly
//! above it), which [`Fact`]s its body exhibits, and which functions it
//! calls. A fact is direct evidence one rule family cares about: a
//! nondeterminism source, shared mutable state, or an allocating, blocking
//! or panic-capable op. The extractor is syntactic: it has no type
//! information, so call targets are names (optionally qualified) that
//! [`crate::callgraph`] later resolves over-approximately, and map
//! iteration is tracked only for bindings whose `let` statement or parameter
//! type visibly mentions `HashMap`/`HashSet`.
//!
//! Closure bodies are attributed to the enclosing function — a
//! `thread::spawn(|| Instant::now())` taints the function that spawns it —
//! while nested named `fn`s become records of their own.

use std::collections::BTreeSet;

use crate::lexer::{spells, Tok, Token};
use crate::rules::Rule;
use crate::source::{SourceFile, SourceLine};

/// What a [`Fact`] is evidence of. [`crate::reach`] maps each kind to the
/// rule it fires, at the site or when a root's walk reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// `Instant::now()` / `SystemTime::now()` produced a value.
    TimeAsData,
    /// `thread::spawn` / `thread::scope` / `thread::Builder` outside the
    /// execution engine.
    ThreadSpawn,
    /// RNG constructed from entropy, or seeded with a value that is not
    /// visibly derived from a seed (`thread_rng`, `from_entropy`,
    /// `rand::random`, `seed_from_u64(<opaque>)`).
    RngNotSeedDerived,
    /// Iteration over a `HashMap`/`HashSet`, whose order is unspecified.
    MapIter,
    /// A float transcendental from the platform's libm, whose bits vary by
    /// host: the method calls `.exp()`, `.ln()`, `.tanh()`, `.sin()`,
    /// `.cos()`, or a path `f32::exp` / `f64::tanh` / ... .
    /// `taglets_tensor::math` computes these in portable code.
    LibmCall,
    /// An `unsafe` keyword (block, fn, impl, or trait).
    UnsafeCode,
    /// An interior-mutability type mentioned outside a `use` item (`Mutex`,
    /// `RwLock`, `RefCell`, `Cell`, `UnsafeCell`, `OnceCell`/`OnceLock`,
    /// `LazyCell`/`LazyLock`, any `Atomic*`), or a `static mut` item.
    InteriorMutability,
    /// An atomic memory ordering weaker than `SeqCst`
    /// (`Ordering::Relaxed`/`Acquire`/`Release`/`AcqRel`).
    WeakOrdering,
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
            FactKind::TimeAsData => "wall-clock time used as data",
            FactKind::ThreadSpawn => "thread spawned outside tensor::exec",
            FactKind::RngNotSeedDerived => "RNG not derived from a seed",
            FactKind::MapIter => "iteration over unordered HashMap/HashSet",
            FactKind::LibmCall => "host libm call (use taglets_tensor::math)",
            FactKind::UnsafeCode => "unsafe code without a reasoned waiver",
            FactKind::InteriorMutability => "interior-mutability type (shared mutable state)",
            FactKind::WeakOrdering => "atomic ordering weaker than SeqCst",
            FactKind::HeapAlloc => "heap allocation on a latency-critical path",
            FactKind::Blocking => "blocking operation on a latency-critical path",
            FactKind::PanicCapable => "panic-capable op on the serve path",
        }
    }

    /// The reasoned directive that waives every rule this kind fires at
    /// its site. Blocking ops have none: a blocking call on a hot path is
    /// either cut out of it or explicitly `allow(TL015)`ed.
    pub(crate) fn waiver(self) -> Option<&'static str> {
        match self {
            FactKind::TimeAsData
            | FactKind::ThreadSpawn
            | FactKind::RngNotSeedDerived
            | FactKind::MapIter
            | FactKind::LibmCall => Some("nondeterministic"),
            FactKind::UnsafeCode => Some("unsafe"),
            FactKind::InteriorMutability | FactKind::WeakOrdering => Some("concurrency"),
            FactKind::HeapAlloc => Some("alloc"),
            FactKind::PanicCapable => Some("panicfree"),
            FactKind::Blocking => None,
        }
    }

    /// The hot-path kinds record at most one fact per line: one waiver
    /// covers one line, so `a[i][j] = b[k]` is one indexing site, not three.
    fn one_per_line(self) -> bool {
        matches!(
            self,
            FactKind::HeapAlloc | FactKind::Blocking | FactKind::PanicCapable
        )
    }
}

/// One fact, located and carrying its suppression state.
///
/// Facts inside a `fn` body land on that function's record, so a
/// reachability walk can find them; facts at file scope — struct fields,
/// statics — land on [`Extraction::file_facts`], since no call edge can
/// reach a declaration.
#[derive(Debug, Clone)]
pub struct Fact {
    pub kind: FactKind,
    /// 1-based line of the source expression.
    pub line: usize,
    /// Short rendering of the offending expression for diagnostics.
    pub what: String,
    /// Rule codes suppressed at this line via `lint: allow(...)`.
    pub allows: Vec<String>,
    /// True when the line carries the kind's [`FactKind::waiver`] with a
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
    /// `root(determinism)`: everything reachable must be deterministic
    /// (TL007).
    Determinism,
    /// `root(hot)`: everything reachable, up to the setup cut, is
    /// latency-critical (TL014–TL016).
    Hot,
}

impl RootKind {
    fn from_name(name: &str) -> Option<RootKind> {
        match name {
            "determinism" => Some(RootKind::Determinism),
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
    /// Lines of executor dispatch sites in the body (`executor.map(...)`,
    /// `exec.for_each(...)`, `Executor::run(...)`, `scope.spawn(...)`).
    /// Non-empty means this function hands closures to worker threads.
    pub dispatches: Vec<usize>,
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
    /// Facts found *outside* any function body — struct fields holding
    /// interior-mutability types, `static mut` items, `unsafe impl`.
    pub file_facts: Vec<Fact>,
    /// `file:line: message` for every `root(...)` marker that names an
    /// unknown analysis or sits on no function definition.
    pub marker_errors: Vec<String>,
}

/// Extracts all non-test functions (plus file-scope facts) from one parsed
/// file. Its lines supply test-region, suppression and root-marker
/// metadata.
pub fn extract(file: &str, src: &SourceFile) -> Extraction {
    let tokens = &src.tokens;
    let in_exec = file.ends_with("tensor/src/exec.rs");
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut file_facts: Vec<Fact> = Vec::new();
    // Lines where a function definition starts: the only lines a root
    // marker may land on.
    let mut fn_lines: BTreeSet<usize> = BTreeSet::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Pending scope classification for the next `{`.
    let mut pending: Option<Scope> = None;
    // HashMap/HashSet-typed bindings per open fn scope (parallel stack).
    let mut map_locals: Vec<BTreeSet<String>> = Vec::new();

    let in_test = |line: usize| src.line(line).is_some_and(|l| l.in_test);
    // `use std::sync::Mutex;` names a type without touching shared state —
    // import lines never produce concurrency facts.
    let is_use_line = |line: usize| {
        src.line(line).is_some_and(|l| {
            let t = src.tokens_on(l);
            spells(t, &["use"]) || spells(t, &["pub", "use"])
        })
    };

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
                    let (param_maps, next) = parse_signature(tokens, i + 2);
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
                        dispatches: Vec::new(),
                        calls: Vec::new(),
                    });
                    pending = Some(Scope::Fn { index });
                    map_locals.push(param_maps);
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
                // map_locals frames pair 1:1 with Fn scopes (pushed when the
                // signature was parsed), so they pop together.
                if let Some(Scope::Fn { .. }) = scopes.last() {
                    map_locals.pop();
                }
                scopes.pop();
                i += 1;
                continue;
            }
            _ => {}
        }

        // Shared-state facts are collected at *any* scope depth: a struct
        // field holding a `Cell` or a `static mut` sits outside every fn
        // body, where no call edge can reach, so those land on the file
        // record; facts inside a body land on the enclosing function so the
        // dispatch taint walk can propagate them. Test-fn bodies are not
        // attributed to any record, hence the explicit per-line test check.
        if let Tok::Ident(name) = &tok.kind {
            if !in_test(tok.line) && !is_use_line(tok.line) {
                if let Some((kind, what)) = concurrency_fact(tokens, i, name) {
                    let sink = match innermost_fn(&scopes) {
                        Some(fn_index) => &mut fns[fn_index].facts,
                        None => &mut file_facts,
                    };
                    push_fact(sink, kind, tok.line, what, src);
                }
            }
        }

        // Everything below only matters inside a function body.
        let Some(fn_index) = innermost_fn(&scopes) else {
            i += 1;
            continue;
        };

        // Hot-path facts: allocation / blocking / panic-capable evidence.
        // Collected without consuming tokens, so call recording below sees
        // the same stream.
        let hot = match &tok.kind {
            Tok::Ident(name) => hotpath_fact(tokens, i, name),
            Tok::Open('[') => indexing_site(tokens, i).map(|w| (FactKind::PanicCapable, w)),
            Tok::Punct(op) if matches!(*op, "/" | "%" | "/=" | "%=") => {
                integer_division_site(tokens, i, op).map(|w| (FactKind::PanicCapable, w))
            }
            _ => None,
        };
        if let Some((kind, what)) = hot {
            push_fact(&mut fns[fn_index].facts, kind, tok.line, what, src);
        }

        if let Tok::Ident(name) = &tok.kind {
            // `let [mut] name ... = ... ;` — mark HashMap/HashSet bindings.
            if name == "let" {
                if let Some((binding, mentions_map)) = scan_let(tokens, i + 1) {
                    if mentions_map {
                        if let Some(set) = map_locals.last_mut() {
                            set.insert(binding);
                        }
                    }
                }
                i += 1;
                continue;
            }

            // A nondeterminism source. Its tokens are consumed, so the `now`
            // of `Instant::now()` is not also recorded as a call; an entropy
            // constructor (no resume index) is recorded as one.
            if let Some((kind, what, resume)) =
                determinism_fact(tokens, i, name, in_exec, &map_locals)
            {
                push_fact(&mut fns[fn_index].facts, kind, tok.line, what, src);
                if resume.is_none() {
                    record_call(&mut fns[fn_index], tokens, i);
                }
                i = resume.unwrap_or(i + 1);
                continue;
            }

            let next_kind = tokens.get(i + 1).map(|t| &t.kind);

            // Executor dispatch sites: the function hands a closure to
            // worker threads here, making it a root for the shared-state
            // taint walk. The receiver must *look like* an executor or a
            // thread-scope handle, so ordinary iterator `.map(...)` chains
            // never count.
            if matches!(next_kind, Some(Tok::Open('('))) && is_dispatch(tokens, i, name) {
                fns[fn_index].dispatches.push(tok.line);
            }

            // Plain call sites: `name(...)`, `Qual::name(...)`, `.name(...)`.
            if matches!(next_kind, Some(Tok::Open('('))) && !KEYWORDS.contains(&name.as_str()) {
                record_call(&mut fns[fn_index], tokens, i);
            }
        }
        i += 1;
    }
    let marker_errors = check_root_markers(file, &src.lines, &fn_lines);
    Extraction {
        fns,
        file_facts,
        marker_errors,
    }
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
                errors.push(format!("{at} must name `determinism`, `hot`, or both"));
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

/// Classifies the identifier token at `i` as a determinism fact, with the
/// token index the walk resumes at (`None` for an entropy constructor,
/// which is also a call). Shapes recognised: the [`ambient_source`]s, with
/// thread spawns only outside the executor;
/// `seed_from_u64(..)`/`from_seed(..)` whose argument is not visibly
/// seed-derived; and iteration over a tracked HashMap/HashSet binding —
/// `m.iter()`, `m.keys()`, ..., or `for x in [&][mut] m {`.
fn determinism_fact(
    tokens: &[Token],
    i: usize,
    name: &str,
    in_exec: bool,
    map_locals: &[BTreeSet<String>],
) -> Option<(FactKind, String, Option<usize>)> {
    let at = |k: usize| tokens.get(i + k);
    let followed_by = |k: usize, p: &str| at(k).is_some_and(|t| t.is(p));
    if let Some(fact) = ambient_source(tokens, i, name) {
        if !(in_exec && fact.0 == FactKind::ThreadSpawn) {
            return Some(fact);
        }
    }
    if matches!(name, "seed_from_u64" | "from_seed")
        && matches!(at(1).map(|t| &t.kind), Some(Tok::Open('(')))
        && !seed_arg_is_derived(tokens, i + 2)
    {
        let what = format!("{name}(<not seed-derived>)");
        return Some((FactKind::RngNotSeedDerived, what, Some(i + 1)));
    }
    if is_map_local(map_locals, name) && followed_by(1, ".") {
        if let Some(
            method @ ("iter" | "iter_mut" | "keys" | "values" | "values_mut" | "into_iter"
            | "drain"),
        ) = at(2).and_then(Token::ident)
        {
            return Some((FactKind::MapIter, format!("{name}.{method}()"), Some(i + 3)));
        }
    }
    if let Some(fact) = libm_call(tokens, i, name) {
        return Some(fact);
    }
    if name == "in" {
        let mut j = i + 1;
        while tokens
            .get(j)
            .is_some_and(|t| t.is("&") || t.ident() == Some("mut"))
        {
            j += 1;
        }
        let target = tokens.get(j).and_then(Token::ident)?;
        let opens_body = matches!(tokens.get(j + 1).map(|t| &t.kind), Some(Tok::Open('{')));
        if opens_body && is_map_local(map_locals, target) {
            return Some((FactKind::MapIter, format!("for _ in {target}"), Some(j + 1)));
        }
    }
    None
}

/// The float transcendentals whose libm results differ between hosts.
const LIBM: [&str; 5] = ["exp", "ln", "tanh", "sin", "cos"];

/// Classifies the identifier token at `i` as a libm call: a method call
/// with no arguments, `.exp()` (`tape.exp(x)` is not one), or a path
/// `f32::tanh` / `f64::exp`, called or passed as a function.
fn libm_call(tokens: &[Token], i: usize, name: &str) -> Option<(FactKind, String, Option<usize>)> {
    let at = |k: usize| tokens.get(i + k);
    if matches!(name, "f32" | "f64") && at(1).is_some_and(|t| t.is("::")) {
        let method = at(2).and_then(Token::ident)?;
        return LIBM
            .contains(&method)
            .then(|| (FactKind::LibmCall, format!("{name}::{method}"), Some(i + 3)));
    }
    let is_method = i >= 1 && tokens[i - 1].is(".");
    let no_args = matches!(at(1).map(|t| &t.kind), Some(Tok::Open('(')))
        && matches!(at(2).map(|t| &t.kind), Some(Tok::Close(')')));
    (is_method && no_args && LIBM.contains(&name))
        .then(|| (FactKind::LibmCall, format!(".{name}()"), Some(i + 1)))
}

/// Classifies the identifier token at `i` as an ambient nondeterminism
/// source, with the token index a walk resumes at (`None` for an entropy
/// constructor, which is also a call): `Instant::now` / `SystemTime::now`,
/// `thread::spawn`/`scope`/`Builder`, and `thread_rng`, `from_entropy`,
/// `rand::random`. TL003 and TL006 match these shapes at the site, too.
pub(crate) fn ambient_source(
    tokens: &[Token],
    i: usize,
    name: &str,
) -> Option<(FactKind, String, Option<usize>)> {
    let at = |k: usize| tokens.get(i + k);
    let followed_by = |k: usize, p: &str| at(k).is_some_and(|t| t.is(p));
    if matches!(name, "Instant" | "SystemTime")
        && followed_by(1, "::")
        && at(2).and_then(Token::ident) == Some("now")
    {
        return Some((FactKind::TimeAsData, format!("{name}::now()"), Some(i + 3)));
    }
    if name == "thread" && followed_by(1, "::") {
        if let Some(what @ ("spawn" | "scope" | "Builder")) = at(2).and_then(Token::ident) {
            return Some((
                FactKind::ThreadSpawn,
                format!("thread::{what}"),
                Some(i + 3),
            ));
        }
    }
    let rand_random = name == "random"
        && i >= 2
        && tokens[i - 1].is("::")
        && tokens[i - 2].ident() == Some("rand");
    if matches!(name, "thread_rng" | "from_entropy") || rand_random {
        return Some((FactKind::RngNotSeedDerived, format!("{name}()"), None));
    }
    None
}

/// Interior-mutability types of the standard library. Matched as exact
/// identifiers (`SweepCell` is not `Cell`), plus the `Atomic*` family by
/// prefix.
const INTERIOR_MUTABILITY: [&str; 9] = [
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "OnceLock",
    "LazyLock",
];

fn is_interior_mutability(name: &str) -> bool {
    INTERIOR_MUTABILITY.contains(&name)
        || (name.starts_with("Atomic") && name.len() > "Atomic".len())
}

/// Classifies the identifier token at `i` as a concurrency fact, if it is
/// one. Token-level matching keeps `#![forbid(unsafe_code)]` (the ident
/// `unsafe_code`) and `std::cmp::Ordering::Less` structurally incapable of
/// false positives.
fn concurrency_fact(tokens: &[Token], i: usize, name: &str) -> Option<(FactKind, String)> {
    if name == "unsafe" {
        return Some((FactKind::UnsafeCode, "unsafe".to_string()));
    }
    if name == "static" && tokens.get(i + 1).and_then(Token::ident) == Some("mut") {
        return Some((FactKind::InteriorMutability, "static mut".to_string()));
    }
    if is_interior_mutability(name) {
        return Some((FactKind::InteriorMutability, name.to_string()));
    }
    if name == "Ordering" && tokens.get(i + 1).map(|t| t.is("::")).unwrap_or(false) {
        if let Some(variant) = tokens.get(i + 2).and_then(Token::ident) {
            if matches!(variant, "Relaxed" | "Acquire" | "Release" | "AcqRel") {
                return Some((FactKind::WeakOrdering, format!("Ordering::{variant}")));
            }
        }
    }
    None
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

/// True when the call at `i` (an identifier followed by `(`) hands closures
/// to worker threads: `map`/`run`/`for_each` on an executor-named receiver
/// (or `Executor::`-qualified), or `spawn` on a thread-scope handle. Also
/// used by [`crate::concurrency`] to locate the closures TL013 inspects.
pub(crate) fn is_dispatch(tokens: &[Token], i: usize, name: &str) -> bool {
    let receiver = if i >= 2 && tokens[i - 1].is(".") {
        tokens[i - 2].ident()
    } else {
        None
    };
    let qualifier = if i >= 2 && tokens[i - 1].is("::") {
        tokens[i - 2].ident()
    } else {
        None
    };
    match name {
        "map" | "run" | "for_each" => {
            receiver
                .map(|r| r.to_lowercase().contains("exec"))
                .unwrap_or(false)
                || qualifier == Some("Executor")
        }
        "spawn" => matches!(receiver, Some("scope") | Some("s")),
        _ => false,
    }
}

/// Appends a fact, capturing the line's suppression metadata. Hot-path
/// kinds are deduplicated per (kind, line), which decides what one waiver
/// covers; facts arrive in source order, so only the current line's tail
/// needs checking.
fn push_fact(facts: &mut Vec<Fact>, kind: FactKind, line: usize, what: String, src: &SourceFile) {
    if kind.one_per_line()
        && facts
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

/// After `seed_from_u64(`/`from_seed(`: the argument is considered derived
/// when it contains an integer literal or an identifier mentioning
/// `seed`/`hash` (covers `seed ^ name_hash(name)`, `hash("fmd")`, `0x5eed`).
fn seed_arg_is_derived(tokens: &[Token], start: usize) -> bool {
    let mut depth = 1usize;
    let mut j = start;
    while j < tokens.len() && depth > 0 {
        match &tokens[j].kind {
            Tok::Open('(') => depth += 1,
            Tok::Close(')') => depth -= 1,
            Tok::Int => return true,
            Tok::Ident(id) => {
                let lower = id.to_lowercase();
                if lower.contains("seed") || lower.contains("hash") {
                    return true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// True when `name` is a tracked HashMap/HashSet binding in any open frame.
fn is_map_local(map_locals: &[BTreeSet<String>], name: &str) -> bool {
    map_locals.iter().any(|set| set.contains(name))
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

/// Parses a fn signature from just after the name: skips generics, records
/// which parameters have `HashMap`/`HashSet` types, and returns the set plus
/// the index of the body `{` / terminating `;`.
fn parse_signature(tokens: &[Token], start: usize) -> (BTreeSet<String>, usize) {
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
    let mut maps = BTreeSet::new();
    if tokens
        .get(j)
        .map(|t| matches!(t.kind, Tok::Open('(')))
        .unwrap_or(false)
    {
        let mut depth = 0usize;
        let mut current_param: Option<String> = None;
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
                Tok::Punct(":") if depth == 1 => {
                    // The ident just before `:` is the parameter name.
                    if let Some(name) = tokens.get(j.wrapping_sub(1)).and_then(Token::ident) {
                        current_param = Some(name.to_string());
                    }
                }
                Tok::Punct(",") if depth == 1 => current_param = None,
                Tok::Ident(id) if depth >= 1 => {
                    if (id == "HashMap" || id == "HashSet") && current_param.is_some() {
                        if let Some(p) = &current_param {
                            maps.insert(p.clone());
                        }
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
    (maps, j)
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

/// Scans a `let` statement from just after the keyword; returns the binding
/// name and whether the statement mentions `HashMap`/`HashSet` before `;`.
fn scan_let(tokens: &[Token], start: usize) -> Option<(String, bool)> {
    let mut j = start;
    if tokens.get(j).and_then(Token::ident) == Some("mut") {
        j += 1;
    }
    let binding = tokens.get(j).and_then(Token::ident)?.to_string();
    let mut depth = 0isize;
    let mut mentions = false;
    while j < tokens.len() {
        match &tokens[j].kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            Tok::Punct(";") if depth == 0 => break,
            Tok::Ident(id) if id == "HashMap" || id == "HashSet" => mentions = true,
            _ => {}
        }
        j += 1;
    }
    Some((binding, mentions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::parse;

    fn extract_src(src: &str) -> Vec<FnInfo> {
        extract("crates/x/src/lib.rs", &parse(src)).fns
    }

    /// Rule families, told apart by the waiver each kind accepts.
    const DETERMINISM: fn(FactKind) -> bool = |k| k.waiver() == Some("nondeterministic");
    const SHARED_STATE: fn(FactKind) -> bool =
        |k| matches!(k.waiver(), Some("unsafe" | "concurrency"));
    const HOT: fn(FactKind) -> bool = FactKind::one_per_line;

    /// The facts of one rule family, in source order.
    fn of(facts: &[Fact], family: fn(FactKind) -> bool) -> Vec<&Fact> {
        facts.iter().filter(|f| family(f.kind)).collect()
    }

    #[test]
    fn root_markers_attach_to_the_fn_line() {
        let src = "fn a() {} // lint: root(determinism)\n/// Docs.\n// lint: root(hot)\nfn b() {}\nfn c() {} // lint: root(hot, determinism)\nfn d() {}\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        let roots: Vec<&[RootKind]> = ex.fns.iter().map(|f| f.roots.as_slice()).collect();
        assert_eq!(
            roots,
            vec![
                &[RootKind::Determinism][..],
                &[RootKind::Hot],
                &[RootKind::Hot, RootKind::Determinism],
                &[],
            ]
        );
        assert!(ex.marker_errors.is_empty(), "{:?}", ex.marker_errors);
    }

    #[test]
    fn misplaced_and_unknown_root_markers_are_errors() {
        let src = "// lint: root(hot)\n#[inline]\nfn a() {} // lint: root(fast)\nstruct S; // lint: root(determinism)\n";
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
    fn time_and_thread_facts_are_found() {
        let fns = extract_src(
            "fn f() {\n    let t = Instant::now();\n    std::thread::spawn(|| SystemTime::now());\n}\n",
        );
        let kinds: Vec<FactKind> = of(&fns[0].facts, DETERMINISM)
            .iter()
            .map(|f| f.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                FactKind::TimeAsData,
                FactKind::ThreadSpawn,
                FactKind::TimeAsData
            ]
        );
    }

    #[test]
    fn libm_calls_are_found_but_not_tape_ops() {
        let fns = extract_src(
            "fn f(x: f32, t: &mut Tape) {\n    let a = x.exp() + x.ln();\n    let b = v.iter().map(f32::tanh);\n    let c = t.exp(v) + t.tanh(v);\n    let d = (x * 2.0).sin() + f64::cos(y);\n    let e = math::exp(x);\n}\n",
        );
        let found: Vec<(usize, String)> = of(&fns[0].facts, DETERMINISM)
            .iter()
            .map(|f| {
                assert_eq!(f.kind, FactKind::LibmCall);
                (f.line, f.what.clone())
            })
            .collect();
        let want = [
            (2, ".exp()"),
            (2, ".ln()"),
            (3, "f32::tanh"),
            (5, ".sin()"),
            (5, "f64::cos"),
        ];
        let want: Vec<(usize, String)> = want.iter().map(|&(l, w)| (l, w.to_string())).collect();
        assert_eq!(found, want);
    }

    #[test]
    fn exec_module_may_spawn_threads() {
        let src = "fn run() { std::thread::scope(|s| {}); }\n";
        let fns = extract("crates/tensor/src/exec.rs", &parse(src)).fns;
        assert!(of(&fns[0].facts, DETERMINISM).is_empty());
        // The executor's former home in core is not exempt.
        let fns = extract("crates/core/src/exec.rs", &parse(src)).fns;
        assert!(!of(&fns[0].facts, DETERMINISM).is_empty());
    }

    #[test]
    fn rng_seed_derivation_heuristic() {
        let fns = extract_src(
            "fn a(seed: u64) { let r = StdRng::seed_from_u64(seed ^ 3); }\nfn b() { let r = StdRng::seed_from_u64(name_hash(name)); }\nfn c(x: u64) { let r = StdRng::seed_from_u64(x); }\nfn d() { let r = thread_rng(); }\n",
        );
        assert!(
            of(&fns[0].facts, DETERMINISM).is_empty(),
            "seed ident → derived"
        );
        assert!(
            of(&fns[1].facts, DETERMINISM).is_empty(),
            "hash ident → derived"
        );
        assert_eq!(
            of(&fns[2].facts, DETERMINISM)[0].kind,
            FactKind::RngNotSeedDerived
        );
        assert_eq!(
            of(&fns[3].facts, DETERMINISM)[0].kind,
            FactKind::RngNotSeedDerived
        );
    }

    #[test]
    fn map_iteration_is_tracked_through_locals_and_params() {
        let fns = extract_src(
            "fn f(index: &HashMap<String, usize>) {\n    let mut seen = HashSet::new();\n    for k in index { }\n    seen.iter();\n    let v: Vec<u8> = Vec::new();\n    v.iter();\n}\n",
        );
        let kinds: Vec<FactKind> = of(&fns[0].facts, DETERMINISM)
            .iter()
            .map(|f| f.kind)
            .collect();
        assert_eq!(kinds, vec![FactKind::MapIter, FactKind::MapIter]);
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
    fn concurrency_facts_split_fn_and_file_scope() {
        let src = "struct Clock {\n    now: Cell<u64>,\n}\nfn claim() {\n    let next = AtomicUsize::new(0);\n    let i = next.fetch_add(1, Ordering::Relaxed);\n}\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        assert_eq!(ex.file_facts.len(), 1, "struct field is file-scope");
        assert_eq!(ex.file_facts[0].kind, FactKind::InteriorMutability);
        assert_eq!(ex.file_facts[0].what, "Cell");
        let kinds: Vec<FactKind> = of(&ex.fns[0].facts, SHARED_STATE)
            .iter()
            .map(|f| f.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![FactKind::InteriorMutability, FactKind::WeakOrdering]
        );
        assert_eq!(
            of(&ex.fns[0].facts, SHARED_STATE)[1].what,
            "Ordering::Relaxed"
        );
    }

    #[test]
    fn use_lines_and_lookalike_idents_produce_no_shared_state_facts() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\nuse std::cell::Cell;\nfn f() {\n    let forbid = unsafe_code;\n    let c = cmp::Ordering::Less;\n    let s = SweepCell::new();\n    let seq = x.load(Ordering::SeqCst);\n}\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        assert!(ex.file_facts.is_empty(), "{:?}", ex.file_facts);
        let shared = of(&ex.fns[0].facts, SHARED_STATE);
        assert!(shared.is_empty(), "{shared:?}");
    }

    #[test]
    fn unsafe_and_static_mut_are_shared_state_facts() {
        let src = "static mut COUNTER: usize = 0;\nfn f() {\n    let n = unsafe { read() };\n    // lint: unsafe(audited: bounds checked above)\n    let m = unsafe { read() };\n}\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        assert_eq!(ex.file_facts.len(), 1);
        assert_eq!(ex.file_facts[0].what, "static mut");
        let shared = of(&ex.fns[0].facts, SHARED_STATE);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].kind, FactKind::UnsafeCode);
        assert!(!shared[0].waived);
        assert!(shared[1].waived, "unsafe(reason) waives the second block");
    }

    #[test]
    fn concurrency_waiver_covers_shared_state_kinds_only() {
        let src = "fn f() {\n    let a = AtomicUsize::new(0); // lint: concurrency(claim counter only)\n    let b = unsafe { read() }; // lint: concurrency(not the right waiver)\n}\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        let shared = of(&ex.fns[0].facts, SHARED_STATE);
        assert!(shared[0].waived);
        assert!(
            !shared[1].waived,
            "unsafe code needs unsafe(reason), not concurrency(reason)"
        );
    }

    #[test]
    fn dispatch_sites_require_executor_like_receivers() {
        let src = "fn a(executor: &Executor) { executor.map(4, |i| i); }\nfn b(exec: &Executor) { exec.for_each(v, |i, x| x); }\nfn c() { scope.spawn(|| {}); }\nfn d(xs: &[u8]) { xs.iter().map(|x| x).count(); }\nfn e() { Executor::run(4); }\n";
        let ex = extract("crates/x/src/lib.rs", &parse(src));
        let dispatched: Vec<bool> = ex.fns.iter().map(|f| !f.dispatches.is_empty()).collect();
        assert_eq!(dispatched, vec![true, true, true, false, true]);
    }

    #[test]
    fn facts_capture_suppressions() {
        let fns = extract_src(
            "fn f() {\n    let t = Instant::now(); // lint: nondeterministic(telemetry only)\n    let u = Instant::now(); // lint: allow(TL007)\n    let v = Instant::now();\n}\n",
        );
        let facts = of(&fns[0].facts, DETERMINISM);
        assert!(facts[0].waived);
        assert!(facts[1].allows.iter().any(|a| a == "TL007"));
        assert!(!facts[2].waived && facts[2].allows.is_empty());
    }

    #[test]
    fn hotpath_allocation_shapes_are_found() {
        let fns = extract_src(
            "fn f() {\n    let a = Vec::with_capacity(8);\n    let b = vec![0u8; 4];\n    let c = xs.to_vec();\n    let d = xs.iter().collect::<Vec<u32>>();\n    let e = cfg.clone();\n    let g = format!(\"x\");\n    let h = Box::new(0);\n    let i = String::from(\"y\");\n}\n",
        );
        let whats: Vec<&str> = of(&fns[0].facts, HOT)
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
        let whats: Vec<&str> = of(&fns[0].facts, HOT)
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
        let whats: Vec<&str> = of(&fns[0].facts, HOT)
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
        let panics: Vec<&str> = of(&fns[0].facts, HOT)
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
        let h = of(&fns[0].facts, HOT);
        assert!(h[0].waived, "alloc(reason) waives HeapAlloc");
        assert!(!h[1].waived);
        assert!(h[2].waived, "panicfree(reason) waives PanicCapable");
        assert!(!h[3].waived, "alloc(reason) does not waive PanicCapable");
        assert!(!h[4].waived, "Blocking has no reasoned waiver");
        assert!(h[4].allows.iter().any(|a| a == "TL015"));
    }
}
