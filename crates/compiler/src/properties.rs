//! Order/duplicate property inference over logical plans, in the spirit
//! of Hidders & Michiels ("Avoiding unnecessary ordering operations in
//! XPath", paper ref. [13]) — the refinement the paper mentions in §4.1
//! but skips. A conservative three-flag lattice is inferred per result
//! attribute and used to prune provably redundant Π^D and Sort operators.
//!
//! The flags describe the stream of values of one node attribute:
//! * `distinct` — no node occurs twice,
//! * `ordered`  — non-decreasing document order,
//! * `disjoint` — no node is an ancestor of another.
//!
//! Key transitions (all proofs rely on the preorder property: if
//! `p1 < p2` and `p2 ∉ subtree(p1)`, the whole subtree of `p1` precedes
//! `p2`):
//! * `child`      (d, o, j) → (d, o∧j∧d, j)
//! * `attribute`  (d, o, j) → (d, o, ⊤)
//! * `self`       (d, o, j) → (d, o, j)
//! * `descendant[-or-self]` (d, o, j) → (d∧j, o∧j∧d, ⊥)
//! * from a statically-singleton input stream (at most one context
//!   tuple): `following-sibling` → (⊤, ⊤, ⊤), `preceding-sibling` →
//!   (⊤, ⊥, ⊤) (reverse document order), `parent` → (⊤, ⊤, ⊤).
//!   These do NOT generalise to multi-context streams — siblings of two
//!   distinct disjoint contexts can interleave and repeat, and parents
//!   of disjoint siblings coincide (see the counterexample tests).
//! * every other axis → ⊥ (conservative)

use xmlstore::Axis;

use algebra::scalar::ScalarExpr;
use algebra::LogicalOp;

/// Stream properties of one node attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Props {
    /// Duplicate-free.
    pub distinct: bool,
    /// Non-decreasing document order.
    pub ordered: bool,
    /// No ancestor/descendant pairs.
    pub disjoint: bool,
}

impl Props {
    /// All guarantees (single-tuple streams).
    pub fn single() -> Props {
        Props { distinct: true, ordered: true, disjoint: true }
    }

    /// No guarantees.
    pub fn none() -> Props {
        Props { distinct: false, ordered: false, disjoint: false }
    }
}

fn axis_transition(axis: Axis, p: Props, single: bool) -> Props {
    match axis {
        // Sibling and parent steps from a *statically singleton* input
        // (at most one context tuple): the siblings of one node are
        // pairwise disjoint and duplicate-free; following-sibling emits
        // them in document order, preceding-sibling in reverse; the
        // parent of one node is at most one node. None of this holds
        // for multi-context streams, however distinct/disjoint — two
        // disjoint siblings' following-siblings overlap and restart,
        // and disjoint siblings share a parent (counterexample tests
        // below).
        Axis::FollowingSibling if single => Props::single(),
        Axis::PrecedingSibling if single => {
            Props { distinct: true, ordered: false, disjoint: true }
        }
        Axis::Parent if single => Props::single(),
        Axis::Child => Props {
            distinct: p.distinct,
            // Duplicate parents interleave their (repeated) child runs,
            // so order needs distinctness as well as disjointness.
            ordered: p.ordered && p.disjoint && p.distinct,
            disjoint: p.disjoint,
        },
        Axis::Attribute => Props { distinct: p.distinct, ordered: p.ordered, disjoint: true },
        Axis::SelfAxis => p,
        Axis::Descendant | Axis::DescendantOrSelf => Props {
            distinct: p.distinct && p.disjoint,
            ordered: p.ordered && p.disjoint && p.distinct,
            disjoint: false,
        },
        _ => Props::none(),
    }
}

/// Infer the properties of `attr`'s value stream at the output of `plan`.
pub fn props_of(plan: &LogicalOp, attr: &str) -> Props {
    match plan {
        // A singleton stream trivially satisfies everything.
        LogicalOp::Singleton => Props::single(),
        LogicalOp::Select { input, .. }
        | LogicalOp::CounterMap { input, .. }
        | LogicalOp::MemoMap { input, .. }
        | LogicalOp::TmpCs { input, .. }
        | LogicalOp::MemoX { input, .. } => {
            // Filters keep subsequences; tuple-extending maps keep the
            // stream; both preserve all three properties.
            props_of(input, attr)
        }
        LogicalOp::DedupBy { input, attr: a, .. } => {
            let mut p = props_of(input, attr);
            if a == attr {
                p.distinct = true;
            }
            p
        }
        LogicalOp::SortBy { input, attr: a, .. } => {
            let mut p = props_of(input, attr);
            if a == attr {
                p.ordered = true;
            }
            p
        }
        LogicalOp::Rename { input, from, to } => {
            if to == attr {
                props_of(input, from)
            } else {
                props_of(input, attr)
            }
        }
        LogicalOp::MapExpr { input, attr: a, expr } => {
            if a == attr {
                match expr {
                    // Alias of another attribute.
                    ScalarExpr::Attr(b) => props_of(input, b),
                    // root(cn) maps every tuple to the same node:
                    // guarantees hold only for single-tuple inputs.
                    ScalarExpr::RootOf(_) => {
                        if matches!(**input, LogicalOp::Singleton) {
                            Props::single()
                        } else {
                            Props::none()
                        }
                    }
                    _ => Props::none(),
                }
            } else {
                props_of(input, attr)
            }
        }
        LogicalOp::UnnestMap { input, context, attr: a, axis, .. } => {
            if a == attr {
                axis_transition(*axis, props_of(input, context), trivially_singleton(input))
            } else {
                // The stream is expanded: other attributes repeat.
                Props::none()
            }
        }
        // Joins, unions and tokenisation give no guarantees.
        LogicalOp::DJoin { .. }
        | LogicalOp::Cross { .. }
        | LogicalOp::SemiJoin { .. }
        | LogicalOp::AntiJoin { .. }
        | LogicalOp::Concat { .. }
        | LogicalOp::TokenizeMap { .. } => Props::none(),
    }
}

/// Remove Π^D and Sort operators whose guarantees the input already
/// provides. Recurses into nested plans of scalar subscripts.
pub fn prune(plan: LogicalOp) -> LogicalOp {
    prune_with_report(plan, &mut Vec::new())
}

/// Like [`prune`], recording the label of every elided operator (in
/// bottom-up elision order) so EXPLAIN can name each pruned site.
pub fn prune_with_report(plan: LogicalOp, report: &mut Vec<String>) -> LogicalOp {
    let plan =
        map_children(plan, report, |r, c| prune_with_report(c, r), |r, e| prune_scalar(e, r));
    match plan {
        LogicalOp::DedupBy { input, attr } => {
            if props_of(&input, &attr).distinct {
                report.push(format!("Π^D[{attr}]"));
                *input
            } else {
                LogicalOp::DedupBy { input, attr }
            }
        }
        LogicalOp::SortBy { input, attr } => {
            if props_of(&input, &attr).ordered {
                report.push(format!("Sort[{attr}]"));
                *input
            } else {
                LogicalOp::SortBy { input, attr }
            }
        }
        other => other,
    }
}

fn map_children<R>(
    plan: LogicalOp,
    r: &mut R,
    f: fn(&mut R, LogicalOp) -> LogicalOp,
    g: fn(&mut R, ScalarExpr) -> ScalarExpr,
) -> LogicalOp {
    use LogicalOp as L;
    match plan {
        L::Singleton => L::Singleton,
        L::Select { input, pred } => L::Select { input: Box::new(f(r, *input)), pred: g(r, pred) },
        L::DedupBy { input, attr } => L::DedupBy { input: Box::new(f(r, *input)), attr },
        L::Rename { input, from, to } => L::Rename { input: Box::new(f(r, *input)), from, to },
        L::MapExpr { input, attr, expr } => {
            L::MapExpr { input: Box::new(f(r, *input)), attr, expr: g(r, expr) }
        }
        L::CounterMap { input, attr, reset_on } => {
            L::CounterMap { input: Box::new(f(r, *input)), attr, reset_on }
        }
        L::MemoMap { input, attr, expr, key } => {
            L::MemoMap { input: Box::new(f(r, *input)), attr, expr: g(r, expr), key }
        }
        L::DJoin { left, right } => {
            L::DJoin { left: Box::new(f(r, *left)), right: Box::new(f(r, *right)) }
        }
        L::Cross { left, right } => {
            L::Cross { left: Box::new(f(r, *left)), right: Box::new(f(r, *right)) }
        }
        L::SemiJoin { left, right, pred } => L::SemiJoin {
            left: Box::new(f(r, *left)),
            right: Box::new(f(r, *right)),
            pred: g(r, pred),
        },
        L::AntiJoin { left, right, pred } => L::AntiJoin {
            left: Box::new(f(r, *left)),
            right: Box::new(f(r, *right)),
            pred: g(r, pred),
        },
        L::UnnestMap { input, context, attr, axis, test, hint, probe } => L::UnnestMap {
            input: Box::new(f(r, *input)),
            context,
            attr,
            axis,
            test,
            hint,
            probe,
        },
        L::TokenizeMap { input, attr, expr } => {
            L::TokenizeMap { input: Box::new(f(r, *input)), attr, expr: g(r, expr) }
        }
        L::Concat { parts } => L::Concat { parts: parts.into_iter().map(|p| f(r, p)).collect() },
        L::SortBy { input, attr } => L::SortBy { input: Box::new(f(r, *input)), attr },
        L::TmpCs { input, cs, group } => L::TmpCs { input: Box::new(f(r, *input)), cs, group },
        L::MemoX { input, key } => L::MemoX { input: Box::new(f(r, *input)), key },
    }
}

/// Prune nested plans inside a scalar expression (top-level scalar
/// queries).
pub fn prune_scalar_expr(e: ScalarExpr) -> ScalarExpr {
    prune_scalar(e, &mut Vec::new())
}

/// Like [`prune_scalar_expr`], recording elided-operator labels.
pub fn prune_scalar_expr_with_report(e: ScalarExpr, report: &mut Vec<String>) -> ScalarExpr {
    prune_scalar(e, report)
}

fn prune_scalar(e: ScalarExpr, rep: &mut Vec<String>) -> ScalarExpr {
    use ScalarExpr as S;
    match e {
        S::Agg(mut agg) => {
            agg.plan = Box::new(prune_with_report(*agg.plan, rep));
            S::Agg(agg)
        }
        S::And(a, b) => S::And(Box::new(prune_scalar(*a, rep)), Box::new(prune_scalar(*b, rep))),
        S::Or(a, b) => S::Or(Box::new(prune_scalar(*a, rep)), Box::new(prune_scalar(*b, rep))),
        S::Not(a) => S::Not(Box::new(prune_scalar(*a, rep))),
        S::Neg(a) => S::Neg(Box::new(prune_scalar(*a, rep))),
        S::Compare { op, mode, lhs, rhs } => S::Compare {
            op,
            mode,
            lhs: Box::new(prune_scalar(*lhs, rep)),
            rhs: Box::new(prune_scalar(*rhs, rep)),
        },
        S::Arith(op, a, b) => {
            S::Arith(op, Box::new(prune_scalar(*a, rep)), Box::new(prune_scalar(*b, rep)))
        }
        S::Convert(k, a) => S::Convert(k, Box::new(prune_scalar(*a, rep))),
        S::StrFn(f, args) => S::StrFn(f, args.into_iter().map(|a| prune_scalar(a, rep)).collect()),
        S::NumFn(f, a) => S::NumFn(f, Box::new(prune_scalar(*a, rep))),
        S::NodeFn(f, a) => S::NodeFn(f, Box::new(prune_scalar(*a, rep))),
        S::Lang(a, ctx) => S::Lang(Box::new(prune_scalar(*a, rep)), ctx),
        S::Deref(a) => S::Deref(Box::new(prune_scalar(*a, rep))),
        S::RootOf(a) => S::RootOf(Box::new(prune_scalar(*a, rep))),
        leaf @ (S::Const(_) | S::Attr(_) | S::Var(_)) => leaf,
    }
}

/// Statically at most one tuple (the input of the single-context axis
/// transitions in [`props_of`]).
fn trivially_singleton(plan: &LogicalOp) -> bool {
    match plan {
        LogicalOp::Singleton => true,
        LogicalOp::Select { input, .. }
        | LogicalOp::MapExpr { input, .. }
        | LogicalOp::MemoMap { input, .. }
        | LogicalOp::Rename { input, .. }
        | LogicalOp::CounterMap { input, .. }
        | LogicalOp::DedupBy { input, .. }
        | LogicalOp::SortBy { input, .. }
        | LogicalOp::TmpCs { input, .. }
        | LogicalOp::MemoX { input, .. } => trivially_singleton(input),
        LogicalOp::SemiJoin { left, .. } | LogicalOp::AntiJoin { left, .. } => {
            trivially_singleton(left)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TranslateOptions;
    use crate::translate::{translate, CompiledQuery};
    use algebra::explain::explain;
    use xpath_syntax::frontend;

    fn plan(q: &str) -> LogicalOp {
        let opts = TranslateOptions::improved();
        match translate(&frontend(q).unwrap(), &opts).unwrap() {
            CompiledQuery::Sequence(p) => p,
            CompiledQuery::Scalar(s) => panic!("scalar {s}"),
        }
    }

    /// True if EXPLAIN shows a duplicate elimination, standalone (`Π^D`)
    /// or fused with its step into a set step (`Υ^D`, DESIGN.md §21).
    fn has_dedup(text: &str) -> bool {
        text.contains("Π^D") || text.contains("Υ^D")
    }

    #[test]
    fn child_chain_is_distinct_and_ordered() {
        let p = plan("/a/b/c");
        // The final dedup is prunable.
        let pruned = prune(p);
        let text = explain(&pruned);
        assert!(!has_dedup(&text), "{text}");
    }

    #[test]
    fn attribute_step_preserves_order() {
        let pruned = prune(plan("/a/b/@id"));
        let text = explain(&pruned);
        assert!(!has_dedup(&text), "{text}");
    }

    #[test]
    fn descendant_from_root_is_distinct() {
        // A single descendant step from the (singleton) root: distinct,
        // so both the pushed and the final dedups go away.
        let pruned = prune(plan("/descendant::a"));
        let text = explain(&pruned);
        assert!(!has_dedup(&text), "{text}");
    }

    #[test]
    fn double_slash_keeps_child_distinct_but_not_parent_paths() {
        // //a = descendant-or-self::node()/child::a: child of nested
        // contexts stays distinct (single parent per node).
        let pruned = prune(plan("//a"));
        let text = explain(&pruned);
        assert!(!has_dedup(&text), "{text}");
        // parent::* genuinely produces duplicates: dedup must survive.
        let pruned = prune(plan("/a/b/parent::*"));
        let text = explain(&pruned);
        assert!(has_dedup(&text), "{text}");
    }

    #[test]
    fn descendant_of_nested_contexts_keeps_dedup() {
        // //a//b: the second descendant step starts from possibly nested
        // a's — duplicates are possible, dedup must stay.
        let pruned = prune(plan("//a//b"));
        let text = explain(&pruned);
        assert!(has_dedup(&text), "{text}");
    }

    #[test]
    fn filter_sort_pruned_on_ordered_input() {
        // (/a/b)[2] sorts before the positional predicate; a child chain
        // is already ordered.
        let pruned = prune(plan("(/a/b)[2]"));
        let text = explain(&pruned);
        assert!(!text.contains("Sort["), "{text}");
        // A union is not provably ordered: Sort must stay.
        let pruned = prune(plan("(/a/b | /a/c)[2]"));
        let text = explain(&pruned);
        assert!(text.contains("Sort["), "{text}");
    }

    #[test]
    fn transition_table() {
        let all = Props::single();
        let child = axis_transition(Axis::Child, all, false);
        assert!(child.distinct && child.ordered && child.disjoint);
        let desc = axis_transition(Axis::Descendant, all, false);
        assert!(desc.distinct && desc.ordered && !desc.disjoint);
        let child_of_desc = axis_transition(Axis::Child, desc, false);
        assert!(child_of_desc.distinct && !child_of_desc.ordered);
        let attr = axis_transition(Axis::Attribute, desc, false);
        assert!(attr.distinct && attr.ordered && attr.disjoint);
        let anc = axis_transition(Axis::Ancestor, all, false);
        assert_eq!(anc, Props::none());
    }

    #[test]
    fn sibling_and_parent_transitions_from_singleton_input() {
        // Hand-computed: one context node c. following-sibling::* emits
        // c's later siblings left-to-right — document order, pairwise
        // disjoint (siblings never nest), no repeats.
        let fs = axis_transition(Axis::FollowingSibling, Props::single(), true);
        assert_eq!(fs, Props { distinct: true, ordered: true, disjoint: true });
        // preceding-sibling::* emits earlier siblings right-to-left:
        // REVERSE document order — distinct and disjoint but not ordered.
        let ps = axis_transition(Axis::PrecedingSibling, Props::single(), true);
        assert_eq!(ps, Props { distinct: true, ordered: false, disjoint: true });
        // parent of one node is at most one node: all three hold.
        let par = axis_transition(Axis::Parent, Props::single(), true);
        assert_eq!(par, Props::single());
    }

    #[test]
    fn sibling_and_parent_transitions_stay_bottom_for_multi_context() {
        // Counterexamples against the naive "preserve distinct∧disjoint"
        // generalisation. Document <r><a/><b/><c/></r>:
        // * contexts (a, b) are distinct∧disjoint∧ordered, yet their
        //   following-siblings are b,c (from a) then c (from b) — the
        //   stream b,c,c repeats c and restarts after c: neither
        //   distinct nor ordered.
        // * parents of (a, b) are r, r — duplicates.
        let multi = Props::single(); // best possible input properties…
        for axis in [Axis::FollowingSibling, Axis::PrecedingSibling, Axis::Parent] {
            // …but more than one context tuple: no guarantees survive.
            assert_eq!(axis_transition(axis, multi, false), Props::none(), "{axis:?}");
        }
    }

    #[test]
    fn parent_of_singleton_context_prunes_dedup() {
        // A top-level relative step runs against the single execution
        // context node: statically ≤ 1 context tuple.
        let pruned = prune(plan("parent::*"));
        let text = explain(&pruned);
        assert!(!has_dedup(&text), "{text}");
        let pruned = prune(plan("following-sibling::*"));
        let text = explain(&pruned);
        assert!(!has_dedup(&text), "{text}");
    }

    #[test]
    fn multi_context_sibling_and_parent_keep_dedup() {
        // /a/b yields statically many contexts: the counterexamples
        // above are reachable, so Π^D must survive.
        for q in [
            "/a/b/parent::*",
            "/a/b/following-sibling::*",
            "/a/b/preceding-sibling::*",
        ] {
            let pruned = prune(plan(q));
            let text = explain(&pruned);
            assert!(has_dedup(&text), "{q}:\n{text}");
        }
    }

    #[test]
    fn prune_with_report_names_elided_operators() {
        let mut report = Vec::new();
        let pruned = prune_with_report(plan("/a/b/c"), &mut report);
        assert!(!has_dedup(&explain(&pruned)));
        assert_eq!(report, vec!["Π^D[cn]".to_owned()]);
        // Nested plans report too, and an unprunable plan reports nothing.
        let mut report = Vec::new();
        prune_with_report(plan("/a/b[parent::x]"), &mut report);
        assert!(!report.is_empty(), "child-chain dedups inside the plan get named");
        let mut report = Vec::new();
        prune_with_report(plan("/a/b/parent::*"), &mut report);
        assert!(report.is_empty(), "{report:?}");
    }
}
