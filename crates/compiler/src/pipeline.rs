//! The six-phase compilation pipeline (paper §5.1):
//! (1) parsing → (2) normalization → (3) semantic analysis →
//! (4) rewrite (constant folding) → (5) translation into the algebra →
//! (6) code generation.
//!
//! Phases 1–4 live in the `xpath-syntax` crate (normalization runs lazily
//! per predicate during translation); phase 5 is [`crate::translate`];
//! phase 6 (physical plan + NVM assembly) is the `nqe` crate.

use std::time::Instant;

use xmlstore::StoreStats;
use xpath_syntax::{analyze, fold::fold, frontend, parse, Expr, FrontendError};

use crate::cost::{self, Decision, OptimizerTrace};
use crate::options::{CostMode, TranslateOptions};
use crate::trace::{record_fired_rewrites, QueryTrace};
use crate::translate::{translate, CompileError, CompiledQuery};

/// Any error of the compilation pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// Parsing or semantic analysis failed.
    Frontend(FrontendError),
    /// Translation into the algebra failed.
    Translate(CompileError),
    /// Execution was stopped by the resource governor (memory/tuple
    /// budget, deadline, or cancellation) — carried here so governed
    /// end-to-end entry points report one flat error type.
    Resource(algebra::QueryError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "{e}"),
            PipelineError::Translate(e) => write!(f, "{e}"),
            PipelineError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<FrontendError> for PipelineError {
    fn from(e: FrontendError) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Translate(e)
    }
}

impl From<algebra::QueryError> for PipelineError {
    fn from(e: algebra::QueryError) -> Self {
        PipelineError::Resource(e)
    }
}

/// Compile a query string into the logical algebra.
pub fn compile(query: &str, opts: &TranslateOptions) -> Result<CompiledQuery, PipelineError> {
    let ast = frontend(query)?;
    Ok(translate(&ast, opts)?)
}

/// Compile an already-analyzed AST (used when the caller wants to inspect
/// or transform the AST between phases).
pub fn compile_ast(ast: &Expr, opts: &TranslateOptions) -> Result<CompiledQuery, PipelineError> {
    Ok(translate(ast, opts)?)
}

/// Does the cost-based optimizer pass run for this (options, stats)
/// pair? `CostMode::Off` and stat-less stores (fingerprint 0 — no
/// structural index) both degrade to the exact [`compile`] path.
pub fn cost_active(opts: &TranslateOptions, stats: Option<&StoreStats>) -> bool {
    opts.optimize == CostMode::CostBased && stats.is_some_and(|s| s.fingerprint != 0)
}

/// Compile with document statistics: like [`compile`], plus the
/// cost-based optimizer pass between translation and property pruning
/// when [`cost_active`]. Returns the optimizer's record alongside the
/// plan (`None` when the pass did not run, in which case the produced
/// plan is byte-identical to [`compile`]'s).
pub fn compile_with_stats(
    query: &str,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) -> Result<(CompiledQuery, Option<OptimizerTrace>), PipelineError> {
    let ast = frontend(query)?;
    compile_ast_with_stats(&ast, opts, stats)
}

/// AST-level variant of [`compile_with_stats`].
pub fn compile_ast_with_stats(
    ast: &Expr,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) -> Result<(CompiledQuery, Option<OptimizerTrace>), PipelineError> {
    if !cost_active(opts, stats) {
        return Ok((translate(ast, opts)?, None));
    }
    let stats = stats.expect("cost_active implies stats");
    // Factor pruning out of translation (the same split compile_traced
    // uses, with the same tested equivalence) so the optimizer sees the
    // raw translated plan.
    let unpruned = TranslateOptions { prune_properties: false, ..*opts };
    let compiled = translate(ast, &unpruned)?;
    let (compiled, trace) = optimize_phase(ast, compiled, opts, stats)?;
    let compiled = if opts.prune_properties {
        match compiled {
            CompiledQuery::Sequence(plan) => {
                CompiledQuery::Sequence(crate::properties::prune(plan))
            }
            CompiledQuery::Scalar(expr) => {
                CompiledQuery::Scalar(crate::properties::prune_scalar_expr(expr))
            }
        }
    } else {
        compiled
    };
    Ok((compiled, Some(trace)))
}

/// The cost-based optimizer phase: per-site rewrites over the translated
/// plan, plus the whole-query outer-shape decision (stacked §4.2.1 vs.
/// canonical d-join §3), which needs the AST to translate the
/// alternative.
fn optimize_phase(
    ast: &Expr,
    compiled: CompiledQuery,
    opts: &TranslateOptions,
    stats: &StoreStats,
) -> Result<(CompiledQuery, OptimizerTrace), PipelineError> {
    let (best, mut decisions) = cost::optimize(compiled, stats);
    let (best, decisions) = if opts.stacked_outer {
        let alt_opts = TranslateOptions { stacked_outer: false, prune_properties: false, ..*opts };
        let alt = translate(ast, &alt_opts)?;
        let (alt, alt_decisions) = cost::optimize(alt, stats);
        let est_stacked = cost::estimate_total(&best, stats);
        let est_djoin = cost::estimate_total(&alt, stats);
        if est_djoin < est_stacked {
            let mut decisions = alt_decisions;
            decisions.push(Decision {
                site: "outer path".to_owned(),
                rule: "outer-shape",
                choice: "d-join",
                est_chosen: est_djoin,
                est_rejected: est_stacked,
            });
            (alt, decisions)
        } else {
            decisions.push(Decision {
                site: "outer path".to_owned(),
                rule: "outer-shape",
                choice: "stacked",
                est_chosen: est_stacked,
                est_rejected: est_djoin,
            });
            (best, decisions)
        }
    } else {
        (best, decisions)
    };
    Ok((best, OptimizerTrace { stats_fingerprint: stats.fingerprint, decisions }))
}

/// Compile with per-phase tracing: each pipeline phase is timed
/// separately, fired rewrites are recorded and the final plan's
/// statistics captured. Produces the same query as [`compile`]; the
/// property-pruning extension runs as its own timed phase so its cost
/// and effect are visible.
pub fn compile_traced(
    query: &str,
    opts: &TranslateOptions,
) -> Result<(CompiledQuery, QueryTrace), PipelineError> {
    compile_traced_with_stats(query, opts, None)
}

/// [`compile_traced`] with document statistics: when [`cost_active`],
/// the optimizer runs as its own timed `optimize` phase and its record
/// lands in [`QueryTrace::optimizer`]. Produces the same query as
/// [`compile_with_stats`].
pub fn compile_traced_with_stats(
    query: &str,
    opts: &TranslateOptions,
    stats: Option<&StoreStats>,
) -> Result<(CompiledQuery, QueryTrace), PipelineError> {
    let mut trace = QueryTrace { query: query.to_owned(), ..QueryTrace::default() };

    let t0 = Instant::now();
    let ast = parse(query).map_err(FrontendError::from)?;
    trace.add_phase("parse", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let typed = analyze(ast).map_err(FrontendError::from)?;
    trace.add_phase("semantic", t0.elapsed().as_nanos() as u64);

    let t0 = Instant::now();
    let before = typed.to_string();
    let folded = fold(typed);
    if folded.to_string() != before {
        trace.rewrites.push("constant-fold".to_owned());
    }
    trace.add_phase("fold", t0.elapsed().as_nanos() as u64);

    // Translate with the pruning extension factored out so it can be
    // timed as its own phase (normalization runs lazily per predicate
    // inside translation, per §5.1).
    let unpruned_opts = TranslateOptions { prune_properties: false, ..*opts };
    let t0 = Instant::now();
    let compiled = translate(&folded, &unpruned_opts)?;
    trace.add_phase("translate", t0.elapsed().as_nanos() as u64);

    trace.record_plan(&compiled);
    let compiled = if cost_active(opts, stats) {
        let stats = stats.expect("cost_active implies stats");
        let t0 = Instant::now();
        let (optimized, opt_trace) = optimize_phase(&folded, compiled, opts, stats)?;
        trace.add_phase("optimize", t0.elapsed().as_nanos() as u64);
        trace.optimizer = Some(opt_trace);
        trace.record_plan(&optimized);
        optimized
    } else {
        compiled
    };
    let compiled = if opts.prune_properties {
        let ops_before = trace.plan_ops;
        let t0 = Instant::now();
        let mut pruned_labels = Vec::new();
        let pruned = match compiled {
            CompiledQuery::Sequence(plan) => CompiledQuery::Sequence(
                crate::properties::prune_with_report(plan, &mut pruned_labels),
            ),
            CompiledQuery::Scalar(expr) => CompiledQuery::Scalar(
                crate::properties::prune_scalar_expr_with_report(expr, &mut pruned_labels),
            ),
        };
        trace.add_phase("prune", t0.elapsed().as_nanos() as u64);
        trace.record_plan(&pruned);
        trace.pruned_ops = ops_before.saturating_sub(trace.plan_ops);
        trace.pruned_labels = pruned_labels;
        if trace.pruned_ops > 0 {
            trace.rewrites.push(format!("property-prune (-{} ops)", trace.pruned_ops));
        }
        pruned
    } else {
        compiled
    };
    record_fired_rewrites(&mut trace, &compiled);
    Ok((compiled, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::explain::explain;
    use algebra::LogicalOp;

    fn seq(query: &str, opts: &TranslateOptions) -> LogicalOp {
        match compile(query, opts).unwrap_or_else(|e| panic!("compile `{query}`: {e}")) {
            CompiledQuery::Sequence(p) => p,
            CompiledQuery::Scalar(s) => panic!("expected sequence plan, got scalar {s}"),
        }
    }

    fn scal(query: &str, opts: &TranslateOptions) -> algebra::ScalarExpr {
        match compile(query, opts).unwrap() {
            CompiledQuery::Scalar(s) => s,
            CompiledQuery::Sequence(p) => panic!("expected scalar, got plan\n{}", explain(&p)),
        }
    }

    #[test]
    fn canonical_path_is_djoin_chain_fig2() {
        // Fig. 2 shape: Π^D(χ_cn(… <Υ><Υ>…)).
        let plan = seq("/a/b", &TranslateOptions::canonical());
        let text = explain(&plan);
        assert!(text.contains("Π^D[cn]"), "{text}");
        assert!(text.contains("<>"), "{text}");
        assert_eq!(text.matches("Υ[").count(), 2, "{text}");
        assert!(text.contains("root("), "{text}");
    }

    #[test]
    fn improved_outer_path_is_stacked_fig3() {
        // Fig. 3 shape: linear operator stack, no d-joins.
        let plan = seq("/a/descendant::b/c", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(!text.contains("<>"), "stacked translation must not use d-joins:\n{text}");
        // The pushed-down Π^D and its descendant step run as one set step
        // (`Υ^D`, DESIGN.md §21): it counts as a step and as a dedup.
        let set_steps = text.matches("Υ^D[").count();
        assert_eq!(text.matches("Υ[").count() + set_steps, 3, "{text}");
        // descendant is ppd → a pushed-down dedup besides the final one.
        assert!(text.matches("Π^D").count() + set_steps >= 2, "{text}");
    }

    #[test]
    fn canonical_has_single_final_dedup() {
        let plan = seq("/a/descendant::b/c", &TranslateOptions::canonical());
        let text = explain(&plan);
        assert_eq!(text.matches("Π^D").count(), 1, "{text}");
    }

    #[test]
    fn positional_predicate_adds_counter() {
        let plan = seq("/a/b[position() = 2]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("counter++"), "{text}");
        assert!(!text.contains("Tmp^cs"), "no last() → no Tmp^cs:\n{text}");
    }

    #[test]
    fn last_predicate_adds_tmpcs() {
        let plan = seq("/a/b[position() = last()]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("counter++"), "{text}");
        assert!(text.contains("Tmp^cs"), "{text}");
        // Stacked translation: grouped by the input context attribute.
        assert!(text.contains("by c"), "{text}");
    }

    #[test]
    fn canonical_last_predicate_ungrouped() {
        let plan = seq("/a/b[last()]", &TranslateOptions::canonical());
        let text = explain(&plan);
        assert!(text.contains("Tmp^cs[cs"), "{text}");
        assert!(!text.contains(" by "), "canonical Tmp^cs has no group attr:\n{text}");
    }

    #[test]
    fn nested_path_predicate_rebinds_cn_and_memoizes() {
        // The ancestor step repeats context nodes, so the χ^mat key can
        // hit (a distinct key would make the memo pointless, see below).
        let plan = seq(
            "/a/descendant::b/ancestor::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::improved(),
        );
        let text = explain(&plan);
        assert!(text.contains("Π[cn:"), "cn rebinding expected:\n{text}");
        assert!(text.contains("𝔐["), "MemoX expected for inner path:\n{text}");
        assert!(text.contains("χ^mat"), "expensive clause memoised:\n{text}");
    }

    #[test]
    fn distinct_key_top_level_predicate_emits_no_memo() {
        // Each article is a distinct context node and the predicate sits
        // on the outer path, opened once: a χ^mat keyed on it can never
        // hit, so the expensive clause stays a plain selection.
        for q in [
            "/dblp/article[author/text()]/title",
            "/a/descendant::b[count(c/d) = 2]",
        ] {
            let text = explain(&seq(q, &TranslateOptions::improved()));
            assert!(!text.contains("χ^mat"), "{q}:\n{text}");
        }
    }

    #[test]
    fn memo_inside_reopened_plan_is_kept() {
        // Inside a predicate's nested plan the memo survives re-opens and
        // sees the same key again, even though the key is distinct per
        // opening.
        let text = explain(&seq("/a/b[c[d/e]]", &TranslateOptions::improved()));
        assert!(text.contains("χ^mat[") && text.contains("key c5]"), "{text}");
        // Likewise the dependent side of a canonical outer d-join chain.
        let opts = TranslateOptions { split_expensive: true, ..TranslateOptions::canonical() };
        let text = explain(&seq("/a/b[c/d]", &opts));
        assert!(text.contains("χ^mat["), "{text}");
    }

    #[test]
    fn canonical_no_memox() {
        let plan = seq(
            "/a/descendant::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::canonical(),
        );
        let text = explain(&plan);
        assert!(!text.contains("𝔐["), "{text}");
        assert!(!text.contains("χ^mat"), "{text}");
    }

    #[test]
    fn union_concat_dedup() {
        let plan = seq("/a/b | /a/c", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("⊕"), "{text}");
        assert!(text.contains("Π^D[u"), "{text}");
    }

    #[test]
    fn filter_with_positional_sorts() {
        let plan = seq("(/a/b | /a/c)[2]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("Sort["), "{text}");
        assert!(text.contains("counter++"), "{text}");
    }

    #[test]
    fn filter_without_positional_does_not_sort() {
        let plan = seq("(/a/b | /a/c)[@x = '1']", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(!text.contains("Sort["), "{text}");
    }

    #[test]
    fn scalar_count_query() {
        let s = scal("count(/a/b)", &TranslateOptions::improved());
        let text = s.to_string();
        assert!(text.contains("𝔄[Count"), "{text}");
    }

    #[test]
    fn nodeset_equality_uses_semijoin() {
        let plan = seq("/r/a[b = c]", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("⋉["), "{text}");
    }

    #[test]
    fn nodeset_relational_uses_min_max() {
        let s = scal("/a/b < /a/c", &TranslateOptions::improved());
        // Top-level comparison is boolean → scalar.
        let text = format!("{s}");
        assert!(text.contains("𝔄[Exists"), "{text}");
        // Max aggregate appears within the nested plan's selection.
        let plan_text = match &s {
            algebra::ScalarExpr::Agg(a) => explain(&a.plan),
            other => panic!("{other}"),
        };
        assert!(plan_text.contains("𝔄[Max"), "{plan_text}");
    }

    #[test]
    fn id_translation_tokenizes_and_derefs() {
        let plan = seq("id('a b c')", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("tokenize"), "{text}");
        assert!(text.contains("deref"), "{text}");
    }

    #[test]
    fn id_of_nodeset() {
        let plan = seq("id(/a/b)", &TranslateOptions::improved());
        let text = explain(&plan);
        assert!(text.contains("tokenize"), "{text}");
        assert!(text.contains("deref"), "{text}");
    }

    #[test]
    fn absolute_inner_path_is_stacked() {
        let plan = seq("/a/b[/r/c]", &TranslateOptions::improved());
        let text = explain(&plan);
        // The inner absolute path appears under a (nested) marker without
        // d-joins of its own.
        let nested_start = text.find("(nested)").expect("nested plan rendered");
        assert!(!text[nested_start..].contains("<>"), "{text}");
    }

    #[test]
    fn relative_inner_path_keeps_djoin_shape() {
        let plan = seq("/a/b[descendant::c/following::d]", &TranslateOptions::improved());
        let text = explain(&plan);
        let nested_start = text.find("(nested)").expect("nested plan rendered");
        assert!(text[nested_start..].contains("<>"), "{text}");
    }

    #[test]
    fn fig4_combined_shape() {
        // Fig. 4: /a1::t1/a2::t2[a4::t4/a5::t5][position()=last()]/a3::t3
        let plan = seq(
            "/descendant::a[child::b/child::c][position() = last()]/child::d",
            &TranslateOptions::improved(),
        );
        let text = explain(&plan);
        assert!(text.contains("Tmp^cs"), "{text}");
        assert!(text.contains("counter++"), "{text}");
        assert!(text.contains("(nested)"), "{text}");
        assert!(text.contains("Π[cn:"), "{text}");
    }

    #[test]
    fn scalar_queries() {
        assert!(matches!(
            compile("1 + 2", &TranslateOptions::improved()).unwrap(),
            CompiledQuery::Scalar(_)
        ));
        assert!(matches!(
            compile("'a' = 'b'", &TranslateOptions::improved()).unwrap(),
            CompiledQuery::Scalar(_)
        ));
        assert!(matches!(
            compile("string-length(/a)", &TranslateOptions::improved()).unwrap(),
            CompiledQuery::Scalar(_)
        ));
    }

    #[test]
    fn traced_compile_matches_untraced_and_times_phases() {
        for opts in [
            TranslateOptions::canonical(),
            TranslateOptions::improved(),
            TranslateOptions::extended(),
        ] {
            for q in ["/a/descendant::b[count(c) = 2]/d", "count(/a/b)", "1 + 2"] {
                let plain = compile(q, &opts).unwrap();
                let (traced, trace) = compile_traced(q, &opts).unwrap();
                // Tracing must not change the produced query.
                let render = |c: &CompiledQuery| match c {
                    CompiledQuery::Sequence(p) => explain(p),
                    CompiledQuery::Scalar(s) => s.to_string(),
                };
                assert_eq!(render(&plain), render(&traced), "{q}");
                let names: Vec<&str> = trace.phases.iter().map(|p| p.name.as_str()).collect();
                assert!(
                    names.starts_with(&["parse", "semantic", "fold", "translate"]),
                    "{names:?}"
                );
                assert_eq!(names.contains(&"prune"), opts.prune_properties, "{names:?}");
                assert!(trace.plan_ops > 0 || q == "1 + 2", "{q}: {}", trace.plan_ops);
                assert_eq!(trace.query, q);
            }
        }
    }

    #[test]
    fn traced_rewrites_fire() {
        // 1+1 folds to a position() = 2 rewrite in the predicate.
        let (_, trace) = compile_traced("/a/b[1 + 1]", &TranslateOptions::improved()).unwrap();
        assert!(trace.rewrites.iter().any(|r| r == "constant-fold"), "{:?}", trace.rewrites);
        // An inner relative path gets memoized under the improved options
        // (the ancestor step repeats keys, so the χ^mat split is kept)…
        let (_, trace) = compile_traced(
            "/a/descendant::b/ancestor::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::improved(),
        )
        .unwrap();
        assert!(
            trace.rewrites.iter().any(|r| r.starts_with("memoize-inner")),
            "{:?}",
            trace.rewrites
        );
        assert!(
            trace.rewrites.iter().any(|r| r.starts_with("split-expensive")),
            "{:?}",
            trace.rewrites
        );
        // …but not under the canonical ones.
        let (_, trace) = compile_traced(
            "/a/descendant::b[count(descendant::c/following::*) = 1000]",
            &TranslateOptions::canonical(),
        )
        .unwrap();
        assert!(
            !trace.rewrites.iter().any(|r| r.starts_with("memoize-inner")),
            "{:?}",
            trace.rewrites
        );
    }

    #[test]
    fn cost_off_or_statless_is_byte_identical_to_plain_compile() {
        use xmlstore::gen::{generate_dblp, DblpParams};
        use xmlstore::XmlStore;
        let store = generate_dblp(DblpParams { records: 20, seed: 3 });
        let stats = store.structural_index().unwrap().stats().clone();
        for q in [
            "/dblp/article/title",
            "//article[author]",
            "count(/dblp/article)",
        ] {
            // Off mode ignores stats entirely.
            let (with, trace) =
                compile_with_stats(q, &TranslateOptions::improved(), Some(&stats)).unwrap();
            assert!(trace.is_none(), "{q}");
            assert_eq!(with, compile(q, &TranslateOptions::improved()).unwrap(), "{q}");
            // CostBased without stats degrades to Off.
            let (no_stats, trace) =
                compile_with_stats(q, &TranslateOptions::cost_based(), None).unwrap();
            assert!(trace.is_none(), "{q}");
            assert_eq!(no_stats, compile(q, &TranslateOptions::cost_based()).unwrap(), "{q}");
        }
    }

    #[test]
    fn cost_based_traced_matches_untraced_and_records_decisions() {
        use xmlstore::gen::{generate_dblp, DblpParams};
        use xmlstore::XmlStore;
        let store = generate_dblp(DblpParams { records: 20, seed: 3 });
        let stats = store.structural_index().unwrap().stats().clone();
        let opts = TranslateOptions::cost_based();
        for q in [
            "/dblp/article/title",
            "//article[author/text()]",
            "/dblp/article[count(author)=4]/@key",
            "count(/dblp/article)",
        ] {
            let (plain, opt_trace) = compile_with_stats(q, &opts, Some(&stats)).unwrap();
            let (traced, trace) = compile_traced_with_stats(q, &opts, Some(&stats)).unwrap();
            assert_eq!(plain, traced, "{q}");
            let ot = opt_trace.expect("optimizer ran");
            let tt = trace.optimizer.expect("traced optimizer ran");
            assert_eq!(ot, tt, "{q}");
            assert_eq!(ot.stats_fingerprint, stats.fingerprint);
            assert!(trace.phases.iter().any(|p| p.name == "optimize"), "{:?}", trace.phases);
            // Every path query makes at least a scan-kernel or outer-shape
            // decision.
            assert!(!ot.decisions.is_empty(), "{q}");
        }
    }

    #[test]
    fn traced_prune_names_elided_operators() {
        let (_, trace) = compile_traced("/a/b/c", &TranslateOptions::extended()).unwrap();
        assert!(trace.pruned_ops > 0);
        assert_eq!(trace.pruned_labels.len(), trace.pruned_ops, "{:?}", trace.pruned_labels);
        assert!(
            trace
                .pruned_labels
                .iter()
                .all(|l| l.starts_with("Π^D") || l.starts_with("Sort")),
            "{:?}",
            trace.pruned_labels
        );
        let report = trace.report();
        assert!(report.contains("pruned: "), "{report}");
    }

    #[test]
    fn variables_as_nodesets_rejected() {
        assert!(compile("$v/a", &TranslateOptions::improved()).is_err());
        // Atomic variable uses are fine.
        assert!(compile("/a[@x = $v]", &TranslateOptions::improved()).is_ok());
    }

    #[test]
    fn fig5_and_fig10_queries_compile() {
        let opts = TranslateOptions::improved();
        for q in [
            "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
            "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
            "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
            "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
            "/dblp/article/title",
            "/dblp/*/title",
            "/dblp/article[position() = 3]/title",
            "/dblp/article[position() < 100]/title",
            "/dblp/article[position() = last()]/title",
            "/dblp/article[position()=last()-10]/title",
            "/dblp/article/title | /dblp/inproceedings/title",
            "/dblp/article[count(author)=4]/@key",
            "/dblp/article[year='1991']/@key",
            "/dblp/*[author='Guido Moerkotte']/@key",
            "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
            "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
        ] {
            compile(q, &opts).unwrap_or_else(|e| panic!("{q}: {e}"));
            compile(q, &TranslateOptions::canonical()).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
