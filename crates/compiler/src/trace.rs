//! Compile-phase tracing: per-phase wall-clock timings, fired rewrites
//! and plan statistics for the six-phase pipeline of paper §5.1. The
//! trace is recorded by [`crate::pipeline::compile_traced`]; later
//! phases (code generation, execution) are appended by the callers that
//! run them (the `nqe` crate and the CLI).

use algebra::explain::{nested_aggs, scalar_aggs};
use algebra::kernel::{set_steps, step_kernel, SetSteps};
use algebra::{AggExpr, LogicalOp, ScalarExpr};

use crate::cost::OptimizerTrace;
use crate::translate::CompiledQuery;

/// One timed pipeline phase.
#[derive(Clone, Debug)]
pub struct PhaseTiming {
    /// Phase name (`parse`, `semantic`, `fold`, `translate`, `prune`,
    /// `codegen`, `execute`).
    pub name: String,
    /// Wall-clock nanoseconds spent in the phase.
    pub nanos: u64,
}

/// The trace of one query compilation.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// The source query text.
    pub query: String,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Rewrites that actually fired (observed in the output, not merely
    /// enabled), e.g. `constant-fold`, `memoize-inner ×2`.
    pub rewrites: Vec<String>,
    /// Total operators in the final plan (nested plans included).
    pub plan_ops: usize,
    /// Depth of the final plan tree (nested plans included; 0 = empty).
    pub plan_depth: usize,
    /// Operator counts by class, descending (`[("Υ", 4), ("Π^D", 2)]`).
    pub op_counts: Vec<(String, usize)>,
    /// Operators removed by the property-based pruning extension.
    pub pruned_ops: usize,
    /// Labels of the operators the pruning extension elided, one per
    /// site in bottom-up elision order (`Π^D[cn]`, `Sort[u1]`, …).
    pub pruned_labels: Vec<String>,
    /// The cost-based optimizer's record (`None` when the pass did not
    /// run: `CostMode::Off`, or no statistics available).
    pub optimizer: Option<OptimizerTrace>,
}

impl QueryTrace {
    /// Append a timed phase.
    pub fn add_phase(&mut self, name: impl Into<String>, nanos: u64) {
        self.phases.push(PhaseTiming { name: name.into(), nanos });
    }

    /// Total traced time across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Record the final plan's statistics (operator count, depth,
    /// per-class counts).
    pub fn record_plan(&mut self, q: &CompiledQuery) {
        let sites = match q {
            CompiledQuery::Sequence(plan) => set_steps(plan),
            CompiledQuery::Scalar(_) => SetSteps::default(),
        };
        let mut walker = PlanWalk { sites, ops: 0, max_depth: 0, counts: Vec::new() };
        match q {
            CompiledQuery::Sequence(plan) => walker.walk(plan, 1),
            CompiledQuery::Scalar(expr) => {
                for agg in scalar_aggs(expr) {
                    walker.walk_agg(agg, 1);
                }
            }
        }
        walker.counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.plan_ops = walker.ops;
        self.plan_depth = walker.max_depth;
        self.op_counts = walker.counts;
    }

    /// Render the phase breakdown and plan statistics as aligned text.
    pub fn report(&self) -> String {
        let total = self.total_nanos();
        let mut out = format!("compile phases (total {}):\n", fmt_nanos(total));
        let name_w = self.phases.iter().map(|p| p.name.chars().count()).max().unwrap_or(0);
        let time_w = self
            .phases
            .iter()
            .map(|p| fmt_nanos(p.nanos).chars().count())
            .max()
            .unwrap_or(0);
        for p in &self.phases {
            let pct = if total > 0 {
                p.nanos as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            let t = fmt_nanos(p.nanos);
            out.push_str(&format!("  {:<name_w$}  {t:>time_w$}  {pct:5.1}%\n", p.name));
        }
        if self.rewrites.is_empty() {
            out.push_str("rewrites: (none fired)\n");
        } else {
            out.push_str(&format!("rewrites: {}\n", self.rewrites.join(", ")));
        }
        if !self.pruned_labels.is_empty() {
            out.push_str(&format!("pruned: {}\n", self.pruned_labels.join(", ")));
        }
        if let Some(opt) = &self.optimizer {
            out.push_str(&format!(
                "optimizer: stats fp {:#018x}, {} decision{}\n",
                opt.stats_fingerprint,
                opt.decisions.len(),
                if opt.decisions.len() == 1 { "" } else { "s" }
            ));
            for d in &opt.decisions {
                out.push_str(&format!(
                    "  {} @ {}: {} (est {:.1} vs {:.1})\n",
                    d.rule, d.site, d.choice, d.est_chosen, d.est_rejected
                ));
            }
        }
        let classes: Vec<String> =
            self.op_counts.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
        out.push_str(&format!(
            "plan: {} ops, depth {}  ({})\n",
            self.plan_ops,
            self.plan_depth,
            classes.join(", ")
        ));
        out
    }
}

/// Operator statistics over one plan, counting each fused operator (set
/// step, step kernel) once, as it runs.
struct PlanWalk<'p> {
    sites: SetSteps<'p>,
    ops: usize,
    max_depth: usize,
    counts: Vec<(String, usize)>,
}

impl PlanWalk<'_> {
    fn walk(&mut self, plan: &LogicalOp, depth: usize) {
        if let Some(shape) = self.sites.get(plan) {
            let input = shape.input;
            self.count_op(SET_STEP_CLASS, depth);
            self.walk(input, depth + 1);
            return;
        }
        self.count_op(op_class(plan), depth);
        for c in plan.children() {
            self.walk(c, depth + 1);
        }
        for agg in nested_aggs(plan) {
            self.walk_agg(agg, depth + 1);
        }
    }

    /// A nested aggregate's plan, or one operator when it runs as a fused
    /// step kernel (DESIGN.md §20).
    fn walk_agg(&mut self, agg: &AggExpr, depth: usize) {
        if step_kernel(agg).is_some() {
            self.count_op(KERNEL_CLASS, depth);
        } else {
            self.walk(&agg.plan, depth);
        }
    }

    fn count_op(&mut self, class: &str, depth: usize) {
        self.ops += 1;
        self.max_depth = self.max_depth.max(depth);
        match self.counts.iter_mut().find(|(k, _)| k == class) {
            Some((_, n)) => *n += 1,
            None => self.counts.push((class.to_owned(), 1)),
        }
    }
}

/// Operator class of the set step (DESIGN.md §21).
const SET_STEP_CLASS: &str = "Υ^D";

/// Operator class of the fused step kernel.
pub const KERNEL_CLASS: &str = "𝔄Υ";

/// The operator class symbol, in the paper's notation.
pub fn op_class(plan: &LogicalOp) -> &'static str {
    match plan {
        LogicalOp::Singleton => "□",
        LogicalOp::Select { .. } => "σ",
        LogicalOp::DedupBy { .. } => "Π^D",
        LogicalOp::Rename { .. } => "Π",
        LogicalOp::MapExpr { .. } | LogicalOp::CounterMap { .. } => "χ",
        LogicalOp::MemoMap { .. } => "χ^mat",
        LogicalOp::DJoin { .. } => "<>",
        LogicalOp::Cross { .. } => "×",
        LogicalOp::SemiJoin { .. } => "⋉",
        LogicalOp::AntiJoin { .. } => "▷",
        LogicalOp::UnnestMap { .. } | LogicalOp::TokenizeMap { .. } => "Υ",
        LogicalOp::Concat { .. } => "⊕",
        LogicalOp::SortBy { .. } => "Sort",
        LogicalOp::TmpCs { .. } => "Tmp^cs",
        LogicalOp::MemoX { .. } => "𝔐",
    }
}

/// Count rewrites observable in the final query and record them.
pub(crate) fn record_fired_rewrites(trace: &mut QueryTrace, q: &CompiledQuery) {
    let memox = trace.op_counts.iter().find(|(k, _)| k == "𝔐").map_or(0, |(_, n)| *n);
    if memox > 0 {
        trace.rewrites.push(format!("memoize-inner ×{memox}"));
    }
    let memomap = trace.op_counts.iter().find(|(k, _)| k == "χ^mat").map_or(0, |(_, n)| *n);
    if memomap > 0 {
        trace.rewrites.push(format!("split-expensive ×{memomap}"));
    }
    if let CompiledQuery::Scalar(e) = q {
        if has_smart_agg(e) {
            trace.rewrites.push("smart-aggregation".to_owned());
        }
    }
}

fn has_smart_agg(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Agg(a) if a.func == algebra::scalar::AggFunc::Exists)
}

/// Human format for a nanosecond count (`1.23ms`, `45.6µs`, `789ns`).
pub fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(789), "789ns");
        assert_eq!(fmt_nanos(45_600), "45.6µs");
        assert_eq!(fmt_nanos(1_230_000), "1.23ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50s");
    }

    #[test]
    fn report_shape() {
        let mut t = QueryTrace { query: "/a/b".into(), ..Default::default() };
        t.add_phase("parse", 1_000);
        t.add_phase("translate", 9_000);
        t.rewrites.push("constant-fold".into());
        t.plan_ops = 5;
        t.plan_depth = 3;
        t.op_counts = vec![("Υ".into(), 2), ("Π^D".into(), 1)];
        let r = t.report();
        assert!(r.contains("total 10.0µs"), "{r}");
        assert!(r.contains("parse"), "{r}");
        assert!(r.contains("90.0%"), "{r}");
        assert!(r.contains("constant-fold"), "{r}");
        assert!(r.contains("5 ops, depth 3"), "{r}");
        assert!(r.contains("Υ ×2"), "{r}");
        assert_eq!(t.total_nanos(), 10_000);
    }
}
