//! TL013: float accumulation onto shared state inside a worker closure.
//!
//! The other concurrency-safety rules are facts over the call-graph
//! ([`crate::reach`]): weak orderings (TL012) fire at the site, interior
//! mutability (TL011) when a dispatch reaches it. A
//! reduction is an expression-level property no per-function fact can
//! carry, so this token walk inspects the closure arguments of each
//! dispatch call site directly. TL013 sites are silenced by a reasoned
//! `concurrency(reason)` waiver or `allow(TL013)`, like every other
//! `lint:` directive.

use crate::items::is_dispatch;
use crate::lexer::{Tok, Token};
use crate::rules::{Rule, Violation};
use crate::source::SourceFile;

/// TL013: inspects the closure arguments of each dispatch call site in one
/// file for compound float accumulation onto non-closure-local state.
///
/// Within the span of a dispatch call (`executor.map(n, |i| ...)`,
/// `exec.for_each(items, |i, x| { ... })`, `scope.spawn(|| ...)`), the
/// closure's locals are its pipe-delimited parameters plus every `let`
/// binding in the span. A `+=`/`-=`/`*=`/`/=` whose target's base
/// identifier is not local is flagged when the accumulation is visibly
/// floating-point: a float literal or `f32`/`f64` in the statement, or an
/// accumulator-style target name (`sum`, `acc`, `total`, `loss`, `mean`).
pub fn check_closures(path: &str, src: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if !Rule::Tl013.applies_to(path) {
        return out;
    }
    let tokens = &src.tokens;
    let meta = |line: usize| src.line(line);
    let mut i = 0usize;
    while i < tokens.len() {
        let Some(name) = tokens[i].ident() else {
            i += 1;
            continue;
        };
        let is_call = tokens
            .get(i + 1)
            .map(|t| matches!(t.kind, Tok::Open('(')))
            .unwrap_or(false);
        let in_test = meta(tokens[i].line).map(|l| l.in_test).unwrap_or(true);
        if !is_call || !is_dispatch(tokens, i, name) || in_test {
            i += 1;
            continue;
        }

        // Span of the dispatch call's argument list.
        let start = i + 2;
        let mut depth = 1usize;
        let mut end = start;
        while end < tokens.len() && depth > 0 {
            match tokens[end].kind {
                Tok::Open(_) => depth += 1,
                Tok::Close(_) => depth -= 1,
                _ => {}
            }
            end += 1;
        }
        let span = &tokens[start..end.saturating_sub(1)];

        // Closure locals: pipe-delimited parameters plus `let` bindings.
        let mut locals: Vec<&str> = Vec::new();
        let mut j = 0usize;
        while j < span.len() {
            if span[j].is("|") {
                j += 1;
                while j < span.len() && !span[j].is("|") {
                    if let Some(id) = span[j].ident() {
                        locals.push(id);
                    }
                    j += 1;
                }
            } else if span[j].ident() == Some("let") {
                let mut k = j + 1;
                if span.get(k).and_then(Token::ident) == Some("mut") {
                    k += 1;
                }
                if let Some(id) = span.get(k).and_then(Token::ident) {
                    locals.push(id);
                }
            }
            j += 1;
        }

        // Compound assignments onto non-local targets.
        for (op_idx, op) in span.iter().enumerate() {
            if !(op.is("+=") || op.is("-=") || op.is("*=") || op.is("/=")) {
                continue;
            }
            let line_meta = meta(op.line);
            let silenced = line_meta
                .map(|l| l.in_test || l.reason("concurrency").is_some() || l.allows("TL013"))
                .unwrap_or(false);
            if silenced {
                continue;
            }
            // Statement extent around the operator.
            let stmt_start = span[..op_idx]
                .iter()
                .rposition(|t| matches!(t.kind, Tok::Punct(";") | Tok::Open('{') | Tok::Close('}')))
                .map(|p| p + 1)
                .unwrap_or(0);
            let stmt_end = span[op_idx..]
                .iter()
                .position(|t| t.is(";"))
                .map(|p| op_idx + p)
                .unwrap_or(span.len());
            let Some(base) = span[stmt_start..op_idx]
                .iter()
                .find_map(|t| t.ident().filter(|id| *id != "mut"))
            else {
                continue;
            };
            if locals.contains(&base) {
                continue;
            }
            let lower = base.to_lowercase();
            let named_like_accumulator = ["sum", "acc", "total", "loss", "mean"]
                .iter()
                .any(|n| lower.contains(n));
            let stmt_is_float = span[stmt_start..stmt_end]
                .iter()
                .any(|t| matches!(t.kind, Tok::Float) || matches!(t.ident(), Some("f32" | "f64")));
            if named_like_accumulator || stmt_is_float {
                out.push(Violation {
                    rule: Rule::Tl013,
                    file: path.to_string(),
                    line: op.line,
                    excerpt: line_meta
                        .map(|l| l.raw.trim().to_string())
                        .unwrap_or_else(|| format!("{base} += ...")),
                    chain: Vec::new(),
                });
            }
        }
        i = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::parse;

    #[test]
    fn tl013_flags_external_float_accumulation_only() {
        let src = "fn reduce(executor: &Executor, total: &mut f32) {\n    executor.for_each(chunks, |i, chunk| {\n        total += chunk;\n    });\n    executor.for_each(chunks, |i, chunk| {\n        let mut local = 0.0;\n        local += chunk;\n    });\n}\n";
        let v = check_closures("crates/core/src/pool.rs", &parse(src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Tl013);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn tl013_ignores_integer_counters_and_waived_lines() {
        let src = "fn reduce(executor: &Executor) {\n    executor.for_each(chunks, |i, chunk| {\n        count += 1;\n        weight_sum += chunk; // lint: concurrency(merged in index order after join)\n    });\n}\n";
        assert!(check_closures("crates/core/src/pool.rs", &parse(src)).is_empty());
    }

    #[test]
    fn tl013_skips_bench_and_plain_iterator_maps() {
        let src = "fn reduce(xs: &[f32]) {\n    let mut total = 0.0;\n    xs.iter().for_each(|x| total += x);\n}\n";
        // `xs.iter().for_each` is not a dispatch: the receiver is `)`.
        assert!(check_closures("crates/core/src/pool.rs", &parse(src)).is_empty());
        let src2 = "fn reduce(executor: &Executor) {\n    executor.for_each(chunks, |i, chunk| { total += chunk; });\n}\n";
        assert!(check_closures("crates/bench/src/lib.rs", &parse(src2)).is_empty());
    }
}
