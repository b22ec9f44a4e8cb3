//! Cost-based optimizer pass (ROADMAP open item 1, second half): choose
//! between the paper's translation alternatives per plan site, using
//! cardinality estimates seeded from the store's free
//! [`StructuralIndex`](xmlstore::StructuralIndex) statistics
//! ([`StoreStats`]).
//!
//! The paper applies its §4 improvements unconditionally; its own
//! Figure 10 shows them trading places with the canonical translation
//! depending on document shape and predicate selectivity. This pass
//! runs after translation (before property pruning, so both the traced
//! and untraced pipelines share it) and makes four families of
//! decisions, every one a byte-exact inverse of a translation emission
//! so the rewritten plan is always a plan some `TranslateOptions` could
//! have produced:
//!
//! * **memoize-inner** — drop a `𝔐` (MemoX) around an inner relative
//!   path when the estimated number of distinct memo keys approaches
//!   the number of probes (every probe a miss: bookkeeping with no
//!   reuse), keep it when key reuse times the inner cost beats the
//!   lookup overhead.
//! * **split-expensive** — fuse `σ[v] ∘ χ^mat[v:e]` back into `σ[e]`
//!   when the expensive clause is estimated cheap relative to the memo
//!   table's per-probe hashing and per-entry materialisation.
//! * **scan-kernel** — pin the Υ axis kernel (`hint=range|cursor`) on
//!   the four interval axes by estimated scan span: tiny spans are
//!   cheaper to walk by pointer than to probe the index for.
//! * **index-probe** — annotate the Υ under a `step[@a='v']` /
//!   `step[e='v']` predicate with a [`ProbeSpec`] when the store's
//!   persistent content index is estimated to enumerate fewer
//!   candidates than the axis scan visits nodes. The annotation is a
//!   pre-filter hint: stores without a content index (or with the name
//!   uncovered) fall back to the plain scan at runtime, so the
//!   predicate is never removed.
//! * **outer-shape** — (driven by the pipeline, which owns the AST)
//!   estimate the stacked §4.2.1 outer-path plan against the canonical
//!   d-join §3 plan and keep the cheaper whole-query shape.
//!
//! The estimator is deliberately simple — per-axis output-cardinality
//! formulas over tag counts, mean fan-out, mean subtree sizes, and a
//! unit-cost model of tuples produced plus materialisation weight. Its
//! purpose is *relative* comparison of alternatives, and every number
//! it produces is surfaced: [`estimate_operators`] emits per-operator
//! estimates in physical profile order so EXPLAIN ANALYZE can print
//! estimated vs. actual cardinalities, and every [`Decision`] carries
//! both sides' costs.

use std::collections::HashMap;

use xmlstore::{Axis, StoreStats};
use xpath_syntax::{KindTest, NodeTest};

use algebra::kernel::{set_steps, SetSteps};
use algebra::scalar::AggFunc;
use algebra::{ConvKind, LogicalOp, ProbeKind, ProbeSpec, ScalarExpr, ScanHint};
use xpath_syntax::CompOp;

use crate::translate::CompiledQuery;

/// Hash probe + key compare per memo access (𝔐 and χ^mat).
const MEMO_LOOKUP: f64 = 3.0;
/// Per distinct memo entry: result clone + table growth.
const MEMO_STORE: f64 = 4.0;
/// Per-tuple hash-set insert of Π^D.
const DEDUP_UNIT: f64 = 2.0;
/// Per-tuple-per-comparison unit of Sort.
const SORT_UNIT: f64 = 4.0;
/// Fixed cost of setting up one index range scan (rank lookup +
/// interval arithmetic) per context node.
const RANGE_PROBE: f64 = 4.0;
/// Per-hop cost of the pointer-chasing cursor relative to the range
/// scan's dense-array advance (1.0).
const CURSOR_HOP: f64 = 2.0;
/// Selectivity of a comparison predicate.
const CMP_SEL: f64 = 0.25;
/// Selectivity of an equality against a constant over a content-indexed
/// name: the fraction of that name's nodes expected to carry one
/// specific value (a generic distinct-values guess, deliberately
/// pessimistic enough that probes only win when the scan is wide).
const EQ_SEL: f64 = 1.0 / 64.0;
/// Selectivity of anything we cannot classify.
const DEFAULT_SEL: f64 = 0.5;

/// One optimizer decision, with both sides' estimated costs — the
/// "visible and checkable" contract: EXPLAIN ANALYZE prints these.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Operator label at the decision site (`𝔐[c1]`, `χ^mat[…]`, …).
    pub site: String,
    /// Decision family: `memoize-inner`, `split-expensive`,
    /// `scan-kernel`, `index-probe` or `outer-shape`.
    pub rule: &'static str,
    /// What was chosen (`keep`, `drop`, `fuse`, `range`, `cursor`,
    /// `probe`, `scan`, `stacked`, `d-join`).
    pub choice: &'static str,
    /// Estimated cost of the chosen alternative.
    pub est_chosen: f64,
    /// Estimated cost of the rejected alternative.
    pub est_rejected: f64,
}

/// The optimizer's per-query record, carried on the compile trace and
/// replayed on plan-cache hits (decisions are a property of the plan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizerTrace {
    /// Fingerprint of the statistics the decisions were made against.
    pub stats_fingerprint: u64,
    /// Every decision, in rewrite order.
    pub decisions: Vec<Decision>,
}

/// Estimated output cardinality of one operator, in physical profile
/// order (pre-order: operator, children, nested plans).
#[derive(Clone, Debug, PartialEq)]
pub struct OpEstimate {
    /// The operator label ([`algebra::explain::op_label`] form), for pairing with profile
    /// entries.
    pub label: String,
    /// Estimated total tuples produced across all opens.
    pub est_tuples: f64,
}

/// Run the per-site cost-based rewrites over a translated query.
/// Returns the (possibly) rewritten query and the decisions taken.
/// Deterministic in (plan, stats): cache-safe.
pub fn optimize(q: CompiledQuery, stats: &StoreStats) -> (CompiledQuery, Vec<Decision>) {
    let est = Estimator { stats, sites: SetSteps::default() };
    let mut opt = Optimizer { est, decisions: Vec::new() };
    let mut env = Env::seed(stats);
    let q = match q {
        CompiledQuery::Sequence(plan) => CompiledQuery::Sequence(opt.rewrite(plan, 1.0, &mut env)),
        CompiledQuery::Scalar(expr) => {
            CompiledQuery::Scalar(opt.rewrite_scalar(expr, 1.0, &mut env))
        }
    };
    (q, opt.decisions)
}

/// Estimated total cost of a query (the pipeline's outer-shape
/// comparator).
pub fn estimate_total(q: &CompiledQuery, stats: &StoreStats) -> f64 {
    let est = Estimator { stats, sites: SetSteps::default() };
    let mut env = Env::seed(stats);
    let mut rec = Vec::new();
    match q {
        CompiledQuery::Sequence(plan) => est.est(plan, 1.0, &mut env, &mut rec).cost,
        CompiledQuery::Scalar(expr) => est.pred_cost(expr, 1.0, &mut env, &mut rec),
    }
}

/// Per-operator cardinality estimates, in the order the profiled
/// physical build registers operators (pre-order; a scalar query gets
/// its synthetic `scalar[…]` root first). EXPLAIN ANALYZE pairs these
/// positionally (label-checked) with the actual profile.
pub fn estimate_operators(q: &CompiledQuery, stats: &StoreStats) -> Vec<OpEstimate> {
    let mut env = Env::seed(stats);
    let mut rec = Vec::new();
    match q {
        CompiledQuery::Sequence(plan) => {
            let est = Estimator { stats, sites: set_steps(plan) };
            est.est(plan, 1.0, &mut env, &mut rec);
        }
        CompiledQuery::Scalar(expr) => {
            let est = Estimator { stats, sites: SetSteps::default() };
            rec.push(OpEstimate { label: format!("scalar[{expr}]"), est_tuples: 1.0 });
            est.pred_cost(expr, 1.0, &mut env, &mut rec);
        }
    }
    rec
}

/// Estimation context threaded along a plan walk: per-attribute mean
/// subtree size (`scope`) and per-attribute distinct-value domain
/// (`domain`).
#[derive(Clone, Default)]
struct Env {
    scope: HashMap<String, f64>,
    domain: HashMap<String, f64>,
}

impl Env {
    fn seed(stats: &StoreStats) -> Env {
        let mut env = Env::default();
        // The execution context binds cn to a single context node.
        env.scope.insert("cn".to_owned(), stats.mean_subtree);
        env.domain.insert("cn".to_owned(), 1.0);
        env
    }
}

/// Rows per open and total cost of one subplan.
#[derive(Clone, Copy, Debug)]
struct Est {
    rows: f64,
    cost: f64,
}

struct Estimator<'a> {
    stats: &'a StoreStats,
    /// The plan's set steps (DESIGN.md §21): each is recorded as one
    /// operator, like the profile shows it. Only the per-operator
    /// estimates need them; costs are those of the Π^D ∘ Υ pair.
    sites: SetSteps<'a>,
}

impl Estimator<'_> {
    /// Number of document nodes matching `test` on `axis`'s principal
    /// node kind.
    fn test_count(&self, axis: Axis, test: &NodeTest) -> f64 {
        let s = self.stats;
        match test {
            NodeTest::Name(n) => s.tag_count(n) as f64,
            NodeTest::Wildcard | NodeTest::NsWildcard(_) => {
                if axis == Axis::Attribute {
                    s.attribute_count as f64
                } else {
                    s.element_count as f64
                }
            }
            NodeTest::Kind(KindTest::Node) => s.node_count as f64,
            NodeTest::Kind(KindTest::Text) => s.text_count as f64,
            // Comments/PIs: rare, assume ~1% of nodes.
            NodeTest::Kind(_) => (s.node_count as f64 * 0.01).max(1.0),
        }
    }

    /// Expected axis outputs per context node.
    fn axis_card(&self, axis: Axis, test: &NodeTest, ctx_scope: f64) -> f64 {
        let s = self.stats;
        let n = s.node_count as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let matches = self.test_count(axis, test);
        let non_attr = (n - s.attribute_count as f64).max(1.0);
        let elems = (s.element_count as f64).max(1.0);
        // Fraction of candidate nodes that pass the test.
        let sel = (matches / non_attr).min(1.0);
        match axis {
            // Scope-aware: a context dominating `ctx_scope` nodes expects
            // `ctx_scope · matches/n` of the matching nodes inside its
            // subtree; its children are bounded by that (this deliberately
            // upweights hub contexts like a document root with thousands
            // of record children, which a uniform fan-out estimate
            // catastrophically underestimates).
            Axis::Child => (ctx_scope * (matches / n)).min(matches),
            Axis::Attribute => (matches / elems).min(s.attribute_count as f64 / elems + 1.0),
            Axis::SelfAxis => sel.min(1.0),
            Axis::Parent => sel.min(1.0),
            Axis::Ancestor | Axis::AncestorOrSelf => {
                (f64::from(s.max_depth) / 2.0).max(1.0) * (matches / elems).min(1.0)
            }
            Axis::Descendant => ctx_scope * (matches / n),
            Axis::DescendantOrSelf => ctx_scope * (matches / n) + sel,
            Axis::Following | Axis::Preceding => matches / 2.0,
            Axis::FollowingSibling | Axis::PrecedingSibling => s.mean_fanout * 0.5 * sel,
            Axis::Namespace => 0.0,
        }
    }

    /// Nodes *visited* per context node (the scan span), independent of
    /// how many pass the test.
    fn scan_span(&self, axis: Axis, ctx_scope: f64) -> f64 {
        let s = self.stats;
        match axis {
            Axis::Child | Axis::FollowingSibling | Axis::PrecedingSibling => s.mean_fanout,
            Axis::Attribute => s.attribute_count as f64 / (s.element_count as f64).max(1.0),
            Axis::SelfAxis | Axis::Parent => 1.0,
            Axis::Ancestor | Axis::AncestorOrSelf => (f64::from(s.max_depth) / 2.0).max(1.0),
            Axis::Descendant | Axis::DescendantOrSelf => ctx_scope.max(1.0),
            Axis::Following | Axis::Preceding => (s.node_count as f64 / 2.0).max(1.0),
            Axis::Namespace => 0.0,
        }
    }

    /// Mean subtree size of the nodes a step binds.
    fn result_scope(&self, axis: Axis, test: &NodeTest) -> f64 {
        match axis {
            Axis::Attribute | Axis::Namespace => 0.0,
            _ => match test {
                NodeTest::Name(n) => self.stats.tag_mean_subtree(n),
                NodeTest::Wildcard | NodeTest::NsWildcard(_) | NodeTest::Kind(KindTest::Node) => {
                    self.stats.mean_subtree
                }
                NodeTest::Kind(_) => 0.0,
            },
        }
    }

    /// Record + estimate one plan, pre-order (operator, children,
    /// nested), mirroring the profiled physical build.
    fn est(&self, plan: &LogicalOp, opens: f64, env: &mut Env, rec: &mut Vec<OpEstimate>) -> Est {
        let slot = rec.len();
        rec.push(OpEstimate { label: self.sites.label(plan), est_tuples: 0.0 });
        let e = self.est_inner(plan, opens, env, rec);
        if self.sites.get(plan).is_some() {
            // The absorbed Υ recorded itself right after the Π^D.
            rec.remove(slot + 1);
        }
        rec[slot].est_tuples = sane(opens * e.rows);
        Est { rows: sane(e.rows), cost: sane(e.cost) }
    }

    fn est_inner(
        &self,
        plan: &LogicalOp,
        opens: f64,
        env: &mut Env,
        rec: &mut Vec<OpEstimate>,
    ) -> Est {
        use LogicalOp as L;
        match plan {
            L::Singleton => Est { rows: 1.0, cost: 0.0 },
            L::Select { input, pred } => {
                let i = self.est(input, opens, env, rec);
                let per = self.pred_cost(pred, opens * i.rows, env, rec);
                Est {
                    rows: i.rows * self.pred_sel(pred),
                    cost: i.cost + i.rows * per,
                }
            }
            L::DedupBy { input, attr } => {
                let i = self.est(input, opens, env, rec);
                let rows = env.domain.get(attr).map_or(i.rows, |d| i.rows.min(*d));
                Est { rows, cost: i.cost + i.rows * DEDUP_UNIT }
            }
            L::Rename { input, from, to } => {
                let i = self.est(input, opens, env, rec);
                if let Some(s) = env.scope.get(from).copied() {
                    env.scope.insert(to.clone(), s);
                }
                if let Some(d) = env.domain.get(from).copied() {
                    env.domain.insert(to.clone(), d);
                }
                Est { rows: i.rows, cost: i.cost + i.rows * 0.1 }
            }
            L::MapExpr { input, attr, expr } => {
                let i = self.est(input, opens, env, rec);
                match expr {
                    ScalarExpr::RootOf(_) => {
                        env.scope
                            .insert(attr.clone(), (self.stats.node_count as f64 - 1.0).max(0.0));
                        env.domain.insert(attr.clone(), 1.0);
                    }
                    ScalarExpr::Attr(src) => {
                        if let Some(s) = env.scope.get(src).copied() {
                            env.scope.insert(attr.clone(), s);
                        }
                        if let Some(d) = env.domain.get(src).copied() {
                            env.domain.insert(attr.clone(), d);
                        }
                    }
                    _ => {}
                }
                let per = self.pred_cost(expr, opens * i.rows, env, rec);
                Est { rows: i.rows, cost: i.cost + i.rows * (0.5 + per) }
            }
            L::CounterMap { input, .. } => {
                let i = self.est(input, opens, env, rec);
                Est { rows: i.rows, cost: i.cost + i.rows * 0.5 }
            }
            L::MemoMap { input, expr, key, .. } => {
                let i = self.est(input, opens, env, rec);
                let probes = opens * i.rows;
                let per = self.pred_cost(expr, probes, env, rec);
                let (_, distinct) = memo_shape(probes, env.domain.get(key).copied());
                // Total across opens, normalised back to per-open cost.
                let total = probes * MEMO_LOOKUP + distinct * (per + MEMO_STORE);
                Est { rows: i.rows, cost: i.cost + total / opens.max(1.0) }
            }
            L::DJoin { left, right } | L::Cross { left, right } => {
                let l = self.est(left, opens, env, rec);
                let r = self.est(right, opens * l.rows, env, rec);
                Est { rows: l.rows * r.rows, cost: l.cost + l.rows * r.cost }
            }
            L::SemiJoin { left, right, pred } | L::AntiJoin { left, right, pred } => {
                let l = self.est(left, opens, env, rec);
                // The right side is re-opened per left tuple and drained
                // until the predicate settles — assume half on average.
                let r = self.est(right, opens * l.rows * 0.5, env, rec);
                let per = self.pred_cost(pred, opens * l.rows, env, rec);
                Est {
                    rows: l.rows * 0.5,
                    cost: l.cost + l.rows * (r.cost * 0.5 + per),
                }
            }
            L::UnnestMap { input, context, attr, axis, test, .. } => {
                let i = self.est(input, opens, env, rec);
                let ctx_scope = env.scope.get(context).copied().unwrap_or(self.stats.mean_subtree);
                let card = self.axis_card(*axis, test, ctx_scope);
                env.scope.insert(attr.clone(), self.result_scope(*axis, test));
                env.domain.insert(attr.clone(), self.test_count(*axis, test).max(1.0));
                let span = self.scan_span(*axis, ctx_scope);
                Est {
                    rows: i.rows * card,
                    cost: i.cost + i.rows * (span.max(card) + card),
                }
            }
            L::TokenizeMap { input, expr, .. } => {
                let i = self.est(input, opens, env, rec);
                let per = self.pred_cost(expr, opens * i.rows, env, rec);
                Est { rows: i.rows * 3.0, cost: i.cost + i.rows * (per + 3.0) }
            }
            L::Concat { parts } => {
                let mut rows = 0.0;
                let mut cost = 0.0;
                for p in parts {
                    let e = self.est(p, opens, env, rec);
                    rows += e.rows;
                    cost += e.cost;
                }
                Est { rows, cost }
            }
            L::SortBy { input, .. } => {
                let i = self.est(input, opens, env, rec);
                let cmp = i.rows.max(2.0).log2();
                Est { rows: i.rows, cost: i.cost + i.rows * SORT_UNIT * cmp }
            }
            L::TmpCs { input, .. } => {
                let i = self.est(input, opens, env, rec);
                Est { rows: i.rows, cost: i.cost + i.rows * 2.0 }
            }
            L::MemoX { input, key } => {
                // Cross-open memo: the inner plan actually runs once per
                // distinct key, not once per open.
                let (probes, distinct) = memo_shape(opens, env.domain.get(key).copied());
                let i = self.est(input, distinct.min(opens).max(1.0), env, rec);
                let total = probes * MEMO_LOOKUP + distinct * (i.cost + i.rows * MEMO_STORE);
                Est { rows: i.rows, cost: total / opens.max(1.0) }
            }
        }
    }

    /// Per-evaluation cost of a scalar expression; nested plan
    /// estimates are recorded with `evals` opens (the number of times
    /// the expression runs).
    fn pred_cost(
        &self,
        e: &ScalarExpr,
        evals: f64,
        env: &mut Env,
        rec: &mut Vec<OpEstimate>,
    ) -> f64 {
        use ScalarExpr as S;
        match e {
            S::Const(_) | S::Attr(_) | S::Var(_) => 0.1,
            S::Agg(agg) => {
                // Smart aggregation (exists) terminates early.
                let discount = if agg.func == AggFunc::Exists {
                    0.5
                } else {
                    1.0
                };
                let mut inner_env = env.clone();
                let inner = match algebra::kernel::step_kernel(agg) {
                    // A fused step kernel profiles as one operator: keep
                    // the nested plan's root estimate under its label.
                    Some(shape) => {
                        let mut nested = Vec::new();
                        let inner =
                            self.est(&agg.plan, evals * discount, &mut inner_env, &mut nested);
                        rec.push(OpEstimate {
                            label: shape.to_string(),
                            est_tuples: nested.first().map_or(0.0, |e| e.est_tuples),
                        });
                        inner
                    }
                    None => self.est(&agg.plan, evals * discount, &mut inner_env, rec),
                };
                1.0 + inner.cost * discount
            }
            S::And(a, b) | S::Or(a, b) => {
                // Short-circuit: the second operand runs for part of the
                // stream only.
                let ca = self.pred_cost(a, evals, env, rec);
                let cb = self.pred_cost(b, evals * 0.5, env, rec);
                0.1 + ca + cb * 0.5
            }
            S::Compare { lhs, rhs, .. } | S::Arith(_, lhs, rhs) => {
                0.2 + self.pred_cost(lhs, evals, env, rec) + self.pred_cost(rhs, evals, env, rec)
            }
            S::Not(a) | S::Neg(a) | S::Convert(_, a) | S::NumFn(_, a) | S::NodeFn(_, a) => {
                0.1 + self.pred_cost(a, evals, env, rec)
            }
            S::Lang(a, _) | S::Deref(a) | S::RootOf(a) => 0.3 + self.pred_cost(a, evals, env, rec),
            S::StrFn(_, args) => {
                0.3 + args.iter().map(|a| self.pred_cost(a, evals, env, rec)).sum::<f64>()
            }
        }
    }

    /// Selectivity of a predicate.
    fn pred_sel(&self, e: &ScalarExpr) -> f64 {
        use ScalarExpr as S;
        match e {
            S::Const(c) => {
                if c.to_value().to_bool() {
                    1.0
                } else {
                    0.0
                }
            }
            S::Compare { .. } => CMP_SEL,
            S::And(a, b) => self.pred_sel(a) * self.pred_sel(b),
            S::Or(a, b) => {
                let (sa, sb) = (self.pred_sel(a), self.pred_sel(b));
                (sa + sb - sa * sb).min(1.0)
            }
            S::Not(a) => 1.0 - self.pred_sel(a),
            S::Agg(agg) if agg.func == AggFunc::Exists => DEFAULT_SEL,
            _ => DEFAULT_SEL,
        }
    }
}

/// Probe count and estimated distinct keys of a memo structure.
fn memo_shape(probes: f64, domain: Option<f64>) -> (f64, f64) {
    let probes = probes.max(1.0);
    let distinct = domain.unwrap_or(probes).max(1.0).min(probes);
    (probes, distinct)
}

fn sane(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(0.0, 1e15)
    } else {
        1e15
    }
}

fn interval_axis(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding
    )
}

// ========================= the rewrite pass =========================

struct Optimizer<'a> {
    est: Estimator<'a>,
    decisions: Vec<Decision>,
}

impl Optimizer<'_> {
    /// Estimate a subplan without touching the live environment or the
    /// estimate recording.
    fn probe(&self, plan: &LogicalOp, opens: f64, env: &Env) -> Est {
        let mut env = env.clone();
        let mut rec = Vec::new();
        self.est.est(plan, opens, &mut env, &mut rec)
    }

    fn rewrite(&mut self, plan: LogicalOp, opens: f64, env: &mut Env) -> LogicalOp {
        use LogicalOp as L;
        match plan {
            L::Select { input, pred } => {
                let input = self.rewrite(*input, opens, env);
                let in_rows = self.probe(&input, opens, env).rows;
                let pred = self.rewrite_scalar(pred, opens * in_rows, env);
                let fused = self.try_fuse_split(input, pred, opens, env);
                self.try_index_probe(fused, env)
            }
            L::MemoX { input, key } => {
                let input = self.rewrite(*input, opens, env);
                let inner = self.probe(&input, 1.0, env);
                let (probes, distinct) = memo_shape(opens, env.domain.get(&key).copied());
                let keep = probes * MEMO_LOOKUP + distinct * (inner.cost + inner.rows * MEMO_STORE);
                let drop = probes * inner.cost;
                let site = format!("𝔐[{key}]");
                if keep <= drop {
                    self.decisions.push(Decision {
                        site,
                        rule: "memoize-inner",
                        choice: "keep",
                        est_chosen: keep,
                        est_rejected: drop,
                    });
                    L::MemoX { input: Box::new(input), key }
                } else {
                    self.decisions.push(Decision {
                        site,
                        rule: "memoize-inner",
                        choice: "drop",
                        est_chosen: drop,
                        est_rejected: keep,
                    });
                    input
                }
            }
            L::UnnestMap { input, context, attr, axis, test, hint, probe } => {
                let input = self.rewrite(*input, opens, env);
                let ctx_scope =
                    env.scope.get(&context).copied().unwrap_or(self.est.stats.mean_subtree);
                let hint = if interval_axis(axis) {
                    let span = self.est.scan_span(axis, ctx_scope);
                    let range = RANGE_PROBE + span;
                    let cursor = span * CURSOR_HOP;
                    let site = format!("Υ[{attr}:{context}/{axis}::{test}]");
                    if cursor < range {
                        self.decisions.push(Decision {
                            site,
                            rule: "scan-kernel",
                            choice: "cursor",
                            est_chosen: cursor,
                            est_rejected: range,
                        });
                        ScanHint::Cursor
                    } else {
                        self.decisions.push(Decision {
                            site,
                            rule: "scan-kernel",
                            choice: "range",
                            est_chosen: range,
                            est_rejected: cursor,
                        });
                        ScanHint::Range
                    }
                } else {
                    hint
                };
                env.scope.insert(attr.clone(), self.est.result_scope(axis, &test));
                env.domain.insert(attr.clone(), self.est.test_count(axis, &test).max(1.0));
                L::UnnestMap {
                    input: Box::new(input),
                    context,
                    attr,
                    axis,
                    test,
                    hint,
                    probe,
                }
            }
            L::DJoin { left, right } => {
                let left = self.rewrite(*left, opens, env);
                let l_rows = self.probe(&left, opens, env).rows;
                let right = self.rewrite(*right, opens * l_rows, env);
                L::DJoin { left: Box::new(left), right: Box::new(right) }
            }
            L::Cross { left, right } => {
                let left = self.rewrite(*left, opens, env);
                let l_rows = self.probe(&left, opens, env).rows;
                let right = self.rewrite(*right, opens * l_rows, env);
                L::Cross { left: Box::new(left), right: Box::new(right) }
            }
            L::SemiJoin { left, right, pred } => {
                let left = self.rewrite(*left, opens, env);
                let l_rows = self.probe(&left, opens, env).rows;
                let right = self.rewrite(*right, opens * l_rows, env);
                let pred = self.rewrite_scalar(pred, opens * l_rows, env);
                L::SemiJoin { left: Box::new(left), right: Box::new(right), pred }
            }
            L::AntiJoin { left, right, pred } => {
                let left = self.rewrite(*left, opens, env);
                let l_rows = self.probe(&left, opens, env).rows;
                let right = self.rewrite(*right, opens * l_rows, env);
                let pred = self.rewrite_scalar(pred, opens * l_rows, env);
                L::AntiJoin { left: Box::new(left), right: Box::new(right), pred }
            }
            L::MemoMap { input, attr, expr, key } => {
                let input = self.rewrite(*input, opens, env);
                let in_rows = self.probe(&input, opens, env).rows;
                let expr = self.rewrite_scalar(expr, opens * in_rows, env);
                L::MemoMap { input: Box::new(input), attr, expr, key }
            }
            L::MapExpr { input, attr, expr } => {
                let input = self.rewrite(*input, opens, env);
                let in_rows = self.probe(&input, opens, env).rows;
                match &expr {
                    ScalarExpr::RootOf(_) => {
                        env.scope.insert(
                            attr.clone(),
                            (self.est.stats.node_count as f64 - 1.0).max(0.0),
                        );
                        env.domain.insert(attr.clone(), 1.0);
                    }
                    ScalarExpr::Attr(src) => {
                        if let Some(s) = env.scope.get(src).copied() {
                            env.scope.insert(attr.clone(), s);
                        }
                        if let Some(d) = env.domain.get(src).copied() {
                            env.domain.insert(attr.clone(), d);
                        }
                    }
                    _ => {}
                }
                let expr = self.rewrite_scalar(expr, opens * in_rows, env);
                L::MapExpr { input: Box::new(input), attr, expr }
            }
            L::Rename { input, from, to } => {
                let input = self.rewrite(*input, opens, env);
                if let Some(s) = env.scope.get(&from).copied() {
                    env.scope.insert(to.clone(), s);
                }
                if let Some(d) = env.domain.get(&from).copied() {
                    env.domain.insert(to.clone(), d);
                }
                L::Rename { input: Box::new(input), from, to }
            }
            L::DedupBy { input, attr } => {
                L::DedupBy { input: Box::new(self.rewrite(*input, opens, env)), attr }
            }
            L::CounterMap { input, attr, reset_on } => L::CounterMap {
                input: Box::new(self.rewrite(*input, opens, env)),
                attr,
                reset_on,
            },
            L::TokenizeMap { input, attr, expr } => {
                let input = self.rewrite(*input, opens, env);
                let in_rows = self.probe(&input, opens, env).rows;
                let expr = self.rewrite_scalar(expr, opens * in_rows, env);
                L::TokenizeMap { input: Box::new(input), attr, expr }
            }
            L::Concat { parts } => L::Concat {
                parts: parts.into_iter().map(|p| self.rewrite(p, opens, env)).collect(),
            },
            L::SortBy { input, attr } => {
                L::SortBy { input: Box::new(self.rewrite(*input, opens, env)), attr }
            }
            L::TmpCs { input, cs, group } => {
                L::TmpCs { input: Box::new(self.rewrite(*input, opens, env)), cs, group }
            }
            leaf @ L::Singleton => leaf,
        }
    }

    /// The split-expensive inverse: `σ[v] ∘ χ^mat[v:e key k]` → `σ[e]`
    /// when the memo cannot pay for itself. Byte-exact: the fused form
    /// is precisely the `split_expensive: false` emission.
    fn try_fuse_split(
        &mut self,
        input: LogicalOp,
        pred: ScalarExpr,
        opens: f64,
        env: &Env,
    ) -> LogicalOp {
        use LogicalOp as L;
        let (inner, attr, expr, key) = match (input, pred) {
            (L::MemoMap { input, attr, expr, key }, ScalarExpr::Attr(v)) if v == attr => {
                (input, attr, expr, key)
            }
            (input, pred) => return L::Select { input: Box::new(input), pred },
        };
        let i = self.probe(&inner, opens, env);
        let (probes, distinct) = memo_shape(opens * i.rows, env.domain.get(&key).copied());
        let mut env2 = env.clone();
        let mut rec = Vec::new();
        let per = self.est.pred_cost(&expr, probes, &mut env2, &mut rec);
        let split = probes * MEMO_LOOKUP + distinct * (per + MEMO_STORE);
        let unsplit = probes * per;
        let site = format!("χ^mat[{attr}:{expr} key {key}]");
        if split <= unsplit {
            self.decisions.push(Decision {
                site,
                rule: "split-expensive",
                choice: "keep",
                est_chosen: split,
                est_rejected: unsplit,
            });
            L::Select {
                input: Box::new(L::MemoMap { input: inner, attr: attr.clone(), expr, key }),
                pred: ScalarExpr::Attr(attr),
            }
        } else {
            self.decisions.push(Decision {
                site,
                rule: "split-expensive",
                choice: "fuse",
                est_chosen: unsplit,
                est_rejected: split,
            });
            L::Select { input: inner, pred: expr }
        }
    }

    /// The content-index pre-filter: annotate the Υ feeding a
    /// `step[@a='v']` / `step[e='v']` predicate with a [`ProbeSpec`]
    /// when the persistent content index is expected to enumerate fewer
    /// candidates than the axis scan visits nodes. Recognises both the
    /// fused (`σ[𝔄] ∘ Π[cn:u] ∘ Υ`) and kept-split
    /// (`σ[m] ∘ χ^mat[m:𝔄 key u] ∘ Π[cn:u] ∘ Υ`) emissions of the
    /// improved translation; anything else passes through untouched.
    /// The probe is a candidate pre-filter only — stores without a
    /// content index reject it at runtime and the kernel falls back to
    /// the plain scan, so the predicate always stays in the plan.
    fn try_index_probe(&mut self, mut plan: LogicalOp, env: &Env) -> LogicalOp {
        let Some((spec, context, attr, axis, test)) = match_probe_site(&plan) else {
            return plan;
        };
        let ctx_scope = env.scope.get(context).copied().unwrap_or(self.est.stats.mean_subtree);
        let card = self.est.axis_card(axis, test, ctx_scope);
        let span = self.est.scan_span(axis, ctx_scope);
        let scan = span.max(card) + card;
        // The probe enumerates the postings of one (name, value) key
        // clipped to the context's subtree window: the key's node count
        // times an equality selectivity, scaled by the fraction of the
        // document the context dominates.
        let n = (self.est.stats.node_count as f64).max(1.0);
        let window = (ctx_scope / n).min(1.0);
        let candidates = self.est.stats.tag_count(&spec.name) as f64 * EQ_SEL * window;
        let probe = RANGE_PROBE + candidates;
        let site = format!("Υ[{attr}:{context}/{axis}::{test}]");
        if probe <= scan {
            self.decisions.push(Decision {
                site,
                rule: "index-probe",
                choice: "probe",
                est_chosen: probe,
                est_rejected: scan,
            });
            set_probe(&mut plan, spec);
        } else {
            self.decisions.push(Decision {
                site,
                rule: "index-probe",
                choice: "scan",
                est_chosen: scan,
                est_rejected: probe,
            });
        }
        plan
    }

    fn rewrite_scalar(&mut self, e: ScalarExpr, opens: f64, env: &mut Env) -> ScalarExpr {
        use ScalarExpr as S;
        match e {
            S::Agg(mut agg) => {
                let mut inner_env = env.clone();
                agg.plan = Box::new(self.rewrite(*agg.plan, opens, &mut inner_env));
                S::Agg(agg)
            }
            S::And(a, b) => S::And(
                Box::new(self.rewrite_scalar(*a, opens, env)),
                Box::new(self.rewrite_scalar(*b, opens * 0.5, env)),
            ),
            S::Or(a, b) => S::Or(
                Box::new(self.rewrite_scalar(*a, opens, env)),
                Box::new(self.rewrite_scalar(*b, opens * 0.5, env)),
            ),
            S::Not(a) => S::Not(Box::new(self.rewrite_scalar(*a, opens, env))),
            S::Neg(a) => S::Neg(Box::new(self.rewrite_scalar(*a, opens, env))),
            S::Compare { op, mode, lhs, rhs } => S::Compare {
                op,
                mode,
                lhs: Box::new(self.rewrite_scalar(*lhs, opens, env)),
                rhs: Box::new(self.rewrite_scalar(*rhs, opens, env)),
            },
            S::Arith(op, a, b) => S::Arith(
                op,
                Box::new(self.rewrite_scalar(*a, opens, env)),
                Box::new(self.rewrite_scalar(*b, opens, env)),
            ),
            S::Convert(k, a) => S::Convert(k, Box::new(self.rewrite_scalar(*a, opens, env))),
            S::StrFn(f, args) => {
                S::StrFn(f, args.into_iter().map(|a| self.rewrite_scalar(a, opens, env)).collect())
            }
            S::NumFn(f, a) => S::NumFn(f, Box::new(self.rewrite_scalar(*a, opens, env))),
            S::NodeFn(f, a) => S::NodeFn(f, Box::new(self.rewrite_scalar(*a, opens, env))),
            S::Lang(a, ctx) => S::Lang(Box::new(self.rewrite_scalar(*a, opens, env)), ctx),
            S::Deref(a) => S::Deref(Box::new(self.rewrite_scalar(*a, opens, env))),
            S::RootOf(a) => S::RootOf(Box::new(self.rewrite_scalar(*a, opens, env))),
            leaf @ (S::Const(_) | S::Attr(_) | S::Var(_)) => leaf,
        }
    }
}

/// Match a Select whose predicate is a single value-equality step
/// predicate over the Υ below it, returning the probe spec plus the
/// outer Υ's shape (context attribute, defined attribute, axis, test)
/// for cost estimation. `None` when the plan is any other shape.
fn match_probe_site(plan: &LogicalOp) -> Option<(ProbeSpec, &str, &str, Axis, &NodeTest)> {
    use LogicalOp as L;
    let L::Select { input, pred } = plan else {
        return None;
    };
    // Both emissions end in `Π[cn:u] ∘ Υ[u:…]`; the kept-split form has
    // the χ^mat (keyed on u) between σ and Π.
    let (rename, agg, memo_key) = match (&**input, pred) {
        (L::MemoMap { input, attr, expr: ScalarExpr::Agg(a), key }, ScalarExpr::Attr(v))
            if v == attr =>
        {
            (&**input, a, Some(key.as_str()))
        }
        (r @ L::Rename { .. }, ScalarExpr::Agg(a)) => (r, a, None),
        _ => return None,
    };
    let L::Rename { input, from, to } = rename else {
        return None;
    };
    if to != "cn" || memo_key.is_some_and(|k| k != from) {
        return None;
    }
    let L::UnnestMap { context, attr, axis, test, probe, .. } = &**input else {
        return None;
    };
    if attr != from
        || probe.is_some()
        || !matches!(*axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf)
    {
        return None;
    }
    let spec = match_probe_pred(agg)?;
    Some((spec, context.as_str(), attr.as_str(), *axis, test))
}

/// Match the nested `𝔄[Exists](σ[string(v) = 'c'] ∘ <>(χ[s:cn] ∘ □, Υ[v:s/axis::name] ∘ □))`
/// aggregate the predicate translation emits for `[@a='v']` / `[e='v']`
/// and extract the (kind, name, value) probe key.
fn match_probe_pred(agg: &algebra::AggExpr) -> Option<ProbeSpec> {
    use LogicalOp as L;
    if agg.func != AggFunc::Exists {
        return None;
    }
    let L::Select { input, pred } = &*agg.plan else {
        return None;
    };
    let L::DJoin { left, right } = &**input else {
        return None;
    };
    let L::MapExpr { input: ml, attr: step_ctx, expr: ScalarExpr::Attr(src) } = &**left else {
        return None;
    };
    if !matches!(&**ml, L::Singleton) || src != "cn" {
        return None;
    }
    let L::UnnestMap { input: ui, context, attr, axis, test, probe, .. } = &**right else {
        return None;
    };
    if !matches!(&**ui, L::Singleton) || context != step_ctx || attr != &agg.over || probe.is_some()
    {
        return None;
    }
    let kind = match axis {
        Axis::Attribute => ProbeKind::Attribute,
        Axis::Child => ProbeKind::Element,
        _ => return None,
    };
    let NodeTest::Name(name) = test else {
        return None;
    };
    let value = eq_const_value(pred, &agg.over)?;
    if value.len() > xmlstore::VALUE_CAP {
        // The store never indexes over-length values; a probe would
        // only ever fall back to the scan at runtime.
        return None;
    }
    Some(ProbeSpec { kind, name: name.clone(), value })
}

/// `string(over) = 'v'` (either operand order) → `v`.
fn eq_const_value(pred: &ScalarExpr, over: &str) -> Option<String> {
    let ScalarExpr::Compare { op: CompOp::Eq, lhs, rhs, .. } = pred else {
        return None;
    };
    if is_string_of(lhs, over) {
        const_str(rhs)
    } else if is_string_of(rhs, over) {
        const_str(lhs)
    } else {
        None
    }
}

fn is_string_of(e: &ScalarExpr, over: &str) -> bool {
    match e {
        ScalarExpr::Convert(ConvKind::ToString, a) => {
            matches!(&**a, ScalarExpr::Attr(x) if x == over)
        }
        _ => false,
    }
}

fn const_str(e: &ScalarExpr) -> Option<String> {
    match e {
        ScalarExpr::Const(algebra::Const::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Drill back down to the outer Υ a successful [`match_probe_site`]
/// found and attach the probe annotation. The shape was just verified,
/// so every arm simply retraces it.
fn set_probe(plan: &mut LogicalOp, spec: ProbeSpec) {
    use LogicalOp as L;
    let L::Select { input, .. } = plan else {
        return;
    };
    let rename = match &mut **input {
        L::MemoMap { input, .. } => &mut **input,
        r @ L::Rename { .. } => r,
        _ => return,
    };
    let L::Rename { input, .. } = rename else {
        return;
    };
    if let L::UnnestMap { probe, .. } = &mut **input {
        *probe = Some(spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::XmlStore;

    use crate::options::TranslateOptions;
    use crate::pipeline::compile;

    fn dblp_stats() -> StoreStats {
        let store = generate_dblp(DblpParams { records: 50, seed: 7 });
        store.structural_index().unwrap().stats().clone()
    }

    #[test]
    fn estimates_scale_with_the_document() {
        let small = generate_dblp(DblpParams { records: 5, seed: 7 });
        let large = generate_dblp(DblpParams { records: 100, seed: 7 });
        let q = compile("/dblp/article/title", &TranslateOptions::improved()).unwrap();
        let cs = estimate_total(&q, small.structural_index().unwrap().stats());
        let cl = estimate_total(&q, large.structural_index().unwrap().stats());
        assert!(cl > cs, "bigger document, bigger estimate ({cs} vs {cl})");
    }

    #[test]
    fn operator_estimates_are_preorder_and_labelled() {
        let stats = dblp_stats();
        let q = compile("/dblp/article/title", &TranslateOptions::improved()).unwrap();
        let ests = estimate_operators(&q, &stats);
        assert!(!ests.is_empty());
        // The root of an improved sequence plan is the final dedup or a
        // rename; every entry carries a non-empty label and a finite
        // estimate.
        for e in &ests {
            assert!(!e.label.is_empty());
            assert!(e.est_tuples.is_finite() && e.est_tuples >= 0.0, "{e:?}");
        }
    }

    #[test]
    fn scalar_estimates_start_with_the_synthetic_root() {
        let stats = dblp_stats();
        let q = compile("count(/dblp/article)", &TranslateOptions::improved()).unwrap();
        let ests = estimate_operators(&q, &stats);
        assert!(ests[0].label.starts_with("scalar["), "{:?}", ests[0].label);
        assert!(ests.len() > 1, "nested plan operators follow");
    }

    #[test]
    fn optimize_records_decisions_and_preserves_off_mode_inverses() {
        let stats = dblp_stats();
        // A nested-path predicate: improved translation splits the
        // expensive clause (χ^mat). The parent step repeats context
        // nodes, so the memo key can hit and the split is emitted.
        let q = compile(
            "/dblp/article/author/parent::article[author/text()]/title",
            &TranslateOptions::improved(),
        )
        .unwrap();
        let (opt, decisions) = optimize(q, &stats);
        assert!(decisions.iter().any(|d| d.rule == "split-expensive"), "{decisions:?}");
        assert!(!decisions.is_empty(), "at least the scan/memo sites decide");
        for d in &decisions {
            assert!(d.est_chosen <= d.est_rejected, "chosen side must be the cheaper: {d:?}");
            assert!(
                matches!(
                    d.rule,
                    "memoize-inner"
                        | "split-expensive"
                        | "scan-kernel"
                        | "index-probe"
                        | "outer-shape"
                ),
                "{d:?}"
            );
        }
        // Whatever was decided, the result is still a valid plan.
        match opt {
            CompiledQuery::Sequence(p) => {
                assert!(p.op_count() > 0);
            }
            CompiledQuery::Scalar(_) => panic!("path query is sequence-valued"),
        }
    }

    #[test]
    fn value_predicates_get_probe_annotations() {
        let stats = dblp_stats();
        for (query, rendered) in [
            ("/dblp/article[@key='x']/title", "probe=@key='x'"),
            ("/dblp/article[year='2002']/author", "probe=year='2002'"),
        ] {
            let q = compile(query, &TranslateOptions::improved()).unwrap();
            let (opt, decisions) = optimize(q, &stats);
            let d = decisions
                .iter()
                .find(|d| d.rule == "index-probe")
                .unwrap_or_else(|| panic!("{query}: no index-probe decision in {decisions:?}"));
            assert_eq!(d.choice, "probe", "{query}: dblp root is a hub, probe must win: {d:?}");
            let CompiledQuery::Sequence(plan) = opt else {
                panic!("sequence query")
            };
            let text = algebra::explain(&plan);
            assert!(text.contains(rendered), "{query}: probe missing from plan:\n{text}");
        }
    }

    #[test]
    fn structural_predicates_are_never_probe_annotated() {
        let stats = dblp_stats();
        // No value equality → no probe site, not even a decision.
        let q =
            compile("/dblp/article[author/text()]/title", &TranslateOptions::improved()).unwrap();
        let (opt, decisions) = optimize(q, &stats);
        assert!(decisions.iter().all(|d| d.rule != "index-probe"), "{decisions:?}");
        let CompiledQuery::Sequence(plan) = opt else {
            panic!("sequence query")
        };
        assert!(!algebra::explain(&plan).contains("probe="));
    }

    #[test]
    fn memo_drop_is_the_exact_memoize_off_emission() {
        let stats = dblp_stats();
        let on = compile("//article[author/text()]", &TranslateOptions::improved()).unwrap();
        let off = compile(
            "//article[author/text()]",
            &TranslateOptions { memoize_inner: false, ..TranslateOptions::improved() },
        )
        .unwrap();
        let (opt, decisions) = optimize(on, &stats);
        let memo = decisions.iter().find(|d| d.rule == "memoize-inner");
        if let Some(d) = memo {
            if d.choice == "drop" {
                // After also fusing/rehinting `off` the shapes must agree;
                // compare through a fresh optimize of the off-plan, which
                // has no MemoX to decide about.
                let (off_opt, off_decisions) = optimize(off, &stats);
                assert!(off_decisions.iter().all(|d| d.rule != "memoize-inner"));
                assert_eq!(opt, off_opt, "drop must reproduce the memoize_inner=false plan");
            }
        }
    }
}
