//! Shape recognition for the two fused physical operators: the step
//! kernel of nested aggregates (DESIGN.md §20) and the set step of
//! duplicate-eliminated location steps (§21).
//!
//! ## Step kernel
//!
//! The predicates `[name]`, `[name = 'lit']`, `[name != 'lit']` and
//! `count(name)` over the child or attribute axis translate to one
//! nested aggregate:
//!
//! ```text
//! 𝔄[Exists|Count; x]( [σ[string(x) =|!= 'lit']] <>(χ[c:cn](□), Υ[x:c/axis::name](□)) )
//! ```
//!
//! Run as a nested iterator plan, every outer tuple re-opens a d-join and
//! seeds two □ clones just to walk one node's children. The physical
//! engine evaluates this shape instead as one axis walk from the context
//! node that compares values in place and, for `Exists`, stops at the
//! first hit (§5.2.5 smart aggregation). The choice depends on the plan
//! shape alone: no statistics, no option. Every other aggregate keeps the
//! general nested-plan path.
//!
//! ## Set step
//!
//! The §4.2.2 translation puts a `Π^D[a]` right after every Υ over an
//! axis that can produce duplicates. Run as two iterators, the Υ emits
//! every duplicate and the Π^D throws it away. [`set_steps`] picks the
//! pairs the engine instead evaluates set-at-a-time: the distinct context
//! set is drained first and the axis is unioned over it, each result node
//! once, in document order. That is only sound where nothing downstream
//! can tell the difference, which is what its conditions check.

use xmlstore::Axis;
use xpath_syntax::{CompOp, NodeTest};

use crate::ops::{Attr, LogicalOp, ScanHint};
use crate::scalar::{AggExpr, AggFunc, CmpMode, ConvKind, ScalarExpr};
use crate::value::Const;

/// A nested aggregate recognised as a fused step kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepKernelShape<'a> {
    /// `Exists` or `Count`.
    pub func: AggFunc,
    /// Attribute holding the context node the axis starts from.
    pub context: &'a str,
    /// Attribute the nested Υ binds (kept for the label).
    pub attr: &'a str,
    /// `child` or `attribute`.
    pub axis: Axis,
    /// The name test.
    pub name: &'a str,
    /// Value filter on the step's nodes: `string(x) = 'lit'` or `!=`.
    pub filter: Option<(CompOp, &'a str)>,
}

impl std::fmt::Display for StepKernelShape<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "𝔄Υ[{:?}; {}:{}/{}::{}",
            self.func, self.attr, self.context, self.axis, self.name
        )?;
        if let Some((op, lit)) = self.filter {
            write!(f, "; string({}) {} '{lit}'", self.attr, op.symbol())?;
        }
        write!(f, "]")
    }
}

/// Match `agg` against the fused step kernel's shape.
pub fn step_kernel(agg: &AggExpr) -> Option<StepKernelShape<'_>> {
    if !matches!(agg.func, AggFunc::Exists | AggFunc::Count) || agg.independent {
        return None;
    }
    let (join, pred) = match &*agg.plan {
        LogicalOp::Select { input, pred } => (&**input, Some(pred)),
        other => (other, None),
    };
    let LogicalOp::DJoin { left, right } = join else {
        return None;
    };
    let LogicalOp::MapExpr { input: seed, attr: step_ctx, expr: ScalarExpr::Attr(context) } =
        &**left
    else {
        return None;
    };
    let LogicalOp::UnnestMap {
        input: leaf,
        context: from,
        attr,
        axis,
        test: NodeTest::Name(name),
        probe: None,
        ..
    } = &**right
    else {
        return None;
    };
    if !matches!(**seed, LogicalOp::Singleton)
        || !matches!(**leaf, LogicalOp::Singleton)
        || from != step_ctx
        || *attr != agg.over
        || !matches!(axis, Axis::Child | Axis::Attribute)
    {
        return None;
    }
    let filter = match pred {
        Some(p) => Some(value_filter(p, attr)?),
        None => None,
    };
    Some(StepKernelShape { func: agg.func, context, attr, axis: *axis, name, filter })
}

/// `string(x) = 'lit'` / `!=`, either operand order, compared as strings.
fn value_filter<'a>(pred: &'a ScalarExpr, x: &str) -> Option<(CompOp, &'a str)> {
    let ScalarExpr::Compare { op, mode: CmpMode::Str, lhs, rhs } = pred else {
        return None;
    };
    if !matches!(op, CompOp::Eq | CompOp::Ne) {
        return None;
    }
    let lit = if is_string_of(lhs, x) {
        literal(rhs)?
    } else if is_string_of(rhs, x) {
        literal(lhs)?
    } else {
        return None;
    };
    Some((*op, lit))
}

/// `string(x)` or a bare `x` (a string-mode compare stringifies it).
fn is_string_of(e: &ScalarExpr, x: &str) -> bool {
    match e {
        ScalarExpr::Convert(ConvKind::ToString, a) => matches!(&**a, ScalarExpr::Attr(v) if v == x),
        ScalarExpr::Attr(v) => v == x,
        _ => false,
    }
}

fn literal(e: &ScalarExpr) -> Option<&str> {
    match e {
        ScalarExpr::Const(Const::Str(s)) => Some(s),
        _ => None,
    }
}

/// A `Π^D[a] ∘ Υ[a:c/axis::test]` pair that runs as one set step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetStepShape<'a> {
    /// Attribute holding the context nodes (`c`).
    pub context: &'a str,
    /// Attribute the step binds and the Π^D keys on (`a`).
    pub attr: &'a str,
    /// One of the nine axes that can produce duplicates.
    pub axis: Axis,
    /// The node test.
    pub test: &'a NodeTest,
    /// The Υ's input: the operator the set step drains.
    pub input: &'a LogicalOp,
}

impl std::fmt::Display for SetStepShape<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Υ^D[{}:{}/{}::{}]", self.attr, self.context, self.axis, self.test)
    }
}

/// The Π^D operators of one plan that run as set steps, found by
/// [`set_steps`] and looked up by operator identity.
#[derive(Debug, Default)]
pub struct SetSteps<'a> {
    sites: Vec<(&'a LogicalOp, SetStepShape<'a>)>,
}

impl<'a> SetSteps<'a> {
    /// The set step `op` runs as, if `op` is one of this plan's sites.
    pub fn get(&self, op: &LogicalOp) -> Option<&SetStepShape<'a>> {
        self.sites
            .iter()
            .find(|(site, _)| std::ptr::eq(*site, op))
            .map(|(_, shape)| shape)
    }

    /// EXPLAIN's one-line label of `op`: the set step it runs as, or its
    /// own operator label.
    pub fn label(&self, op: &LogicalOp) -> String {
        match self.get(op) {
            Some(shape) => shape.to_string(),
            None => crate::explain::op_label(op),
        }
    }

    /// Number of fused sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when nothing fuses.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// Find the `Π^D[a] ∘ Υ[a:c/axis::test]` pairs of the top-level plan
/// `root` that run as set steps. A pair fuses when
///
/// - the axis can produce duplicates (parent, ancestor(-or-self),
///   descendant(-or-self), following(-sibling), preceding(-sibling));
/// - the Υ carries no content-index probe and no `Cursor` hint;
/// - the pair is opened once per execution: not on the dependent side of
///   a d-join or ×, not on the match side of a semi-/anti-join, not under
///   a MemoX, and not inside a nested aggregate (those are never
///   searched);
/// - no attribute the Υ's input defines, nor `c`, is read anywhere in
///   the plan outside the Υ — a set step emits the open seed with only
///   `a` bound, in document order, so the input's bindings are gone.
pub fn set_steps(root: &LogicalOp) -> SetSteps<'_> {
    let mut sites = Vec::new();
    collect_candidates(root, true, &mut sites);
    sites.retain(|(site, shape)| {
        let LogicalOp::DedupBy { input: step, .. } = site else {
            return false;
        };
        let mut hidden = shape.input.defined_attrs();
        hidden.insert(shape.context.to_owned());
        let mut reads = Vec::new();
        reads_outside(root, step, &mut reads);
        reads.iter().all(|a| !hidden.contains(a))
    });
    SetSteps { sites }
}

/// True for the axes on which one node can be reached from several
/// contexts.
fn produces_duplicates(axis: Axis) -> bool {
    !matches!(axis, Axis::Child | Axis::Attribute | Axis::SelfAxis | Axis::Namespace)
}

fn collect_candidates<'a>(
    op: &'a LogicalOp,
    once: bool,
    out: &mut Vec<(&'a LogicalOp, SetStepShape<'a>)>,
) {
    if once {
        if let Some(shape) = candidate(op) {
            out.push((op, shape));
        }
    }
    match op {
        LogicalOp::DJoin { left, right }
        | LogicalOp::Cross { left, right }
        | LogicalOp::SemiJoin { left, right, .. }
        | LogicalOp::AntiJoin { left, right, .. } => {
            collect_candidates(left, once, out);
            collect_candidates(right, false, out);
        }
        LogicalOp::MemoX { input, .. } => collect_candidates(input, false, out),
        _ => {
            for c in op.children() {
                collect_candidates(c, once, out);
            }
        }
    }
}

/// The local shape test: Π^D directly over a ppd Υ on the same attribute.
fn candidate(op: &LogicalOp) -> Option<SetStepShape<'_>> {
    let LogicalOp::DedupBy { input, attr: key } = op else {
        return None;
    };
    let LogicalOp::UnnestMap { input, context, attr, axis, test, hint, probe: None } = &**input
    else {
        return None;
    };
    if attr != key || *hint == ScanHint::Cursor || !produces_duplicates(*axis) {
        return None;
    }
    Some(SetStepShape { context, attr, axis: *axis, test, input })
}

/// Every attribute read in `op`'s tree except inside `skip`'s subtree.
fn reads_outside(op: &LogicalOp, skip: &LogicalOp, out: &mut Vec<Attr>) {
    if std::ptr::eq(op, skip) {
        return;
    }
    op.own_referenced(out);
    for c in op.children() {
        reads_outside(c, skip, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exists_child(pred: Option<ScalarExpr>, axis: Axis, test: NodeTest) -> AggExpr {
        let join = LogicalOp::djoin(
            LogicalOp::map(LogicalOp::Singleton, "c4", ScalarExpr::attr("cn")),
            LogicalOp::unnest_map(LogicalOp::Singleton, "c4", "c5", axis, test),
        );
        let plan = match pred {
            Some(p) => LogicalOp::select(join, p),
            None => join,
        };
        AggExpr {
            func: AggFunc::Exists,
            plan: Box::new(plan),
            over: "c5".into(),
            independent: false,
        }
    }

    fn eq_lit(op: CompOp, mode: CmpMode) -> ScalarExpr {
        ScalarExpr::Compare {
            op,
            mode,
            lhs: Box::new(ScalarExpr::Convert(
                ConvKind::ToString,
                Box::new(ScalarExpr::attr("c5")),
            )),
            rhs: Box::new(ScalarExpr::str("x")),
        }
    }

    #[test]
    fn recognises_value_and_structural_predicates() {
        let name = || NodeTest::Name("author".into());
        let agg = exists_child(Some(eq_lit(CompOp::Eq, CmpMode::Str)), Axis::Child, name());
        let shape = step_kernel(&agg).expect("fused");
        assert_eq!(shape.filter, Some((CompOp::Eq, "x")));
        assert_eq!(shape.context, "cn");
        assert_eq!(shape.to_string(), "𝔄Υ[Exists; c5:cn/child::author; string(c5) = 'x']");
        let agg = exists_child(None, Axis::Attribute, name());
        assert_eq!(step_kernel(&agg).expect("fused").filter, None);
        let agg = exists_child(Some(eq_lit(CompOp::Ne, CmpMode::Str)), Axis::Child, name());
        assert_eq!(step_kernel(&agg).expect("fused").filter, Some((CompOp::Ne, "x")));
    }

    #[test]
    fn rejects_other_shapes() {
        let name = || NodeTest::Name("author".into());
        // Numeric compare, relational compare, descendant axis, wildcard.
        for agg in [
            exists_child(Some(eq_lit(CompOp::Eq, CmpMode::Num)), Axis::Child, name()),
            exists_child(Some(eq_lit(CompOp::Lt, CmpMode::Str)), Axis::Child, name()),
            exists_child(None, Axis::Descendant, name()),
            exists_child(None, Axis::Child, NodeTest::Wildcard),
        ] {
            assert_eq!(step_kernel(&agg), None, "{agg:?}");
        }
        let mut sum = exists_child(None, Axis::Child, name());
        sum.func = AggFunc::Sum;
        assert_eq!(step_kernel(&sum), None);
    }

    /// `Π^D[c3] ∘ Υ[c3:c2/axis::*]` over `Υ[c2:c1/child::x](χ[c1:root(cn)](□))`,
    /// topped by `Π[cn:c3]`.
    fn stepped(axis: Axis) -> LogicalOp {
        let input = LogicalOp::unnest_map(
            LogicalOp::map(
                LogicalOp::Singleton,
                "c1",
                ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
            ),
            "c1",
            "c2",
            Axis::Child,
            NodeTest::Name("x".into()),
        );
        let step = LogicalOp::unnest_map(input, "c2", "c3", axis, NodeTest::Wildcard);
        LogicalOp::Rename {
            input: Box::new(LogicalOp::dedup(step, "c3")),
            from: "c3".into(),
            to: "cn".into(),
        }
    }

    fn dedup_of(plan: &LogicalOp) -> &LogicalOp {
        plan.children()[0]
    }

    #[test]
    fn set_steps_fuse_ppd_pairs_opened_once() {
        let plan = stepped(Axis::Ancestor);
        let sites = set_steps(&plan);
        assert_eq!(sites.len(), 1);
        let shape = sites.get(dedup_of(&plan)).expect("the Π^D fuses");
        assert_eq!(shape.to_string(), "Υ^D[c3:c2/ancestor::*]");
        assert!(matches!(shape.input, LogicalOp::UnnestMap { attr, .. } if attr == "c2"));
        assert!(sites.get(&plan).is_none(), "only the Π^D is a site");
    }

    #[test]
    fn set_steps_reject_unsound_or_pointless_pairs() {
        // An axis that cannot repeat a node.
        assert!(set_steps(&stepped(Axis::Child)).is_empty());
        // A cursor hint or a content probe pins the Υ's own kernel.
        let mut plan = stepped(Axis::Descendant);
        let LogicalOp::Rename { input, .. } = &mut plan else {
            unreachable!()
        };
        let LogicalOp::DedupBy { input: step, .. } = &mut **input else {
            unreachable!()
        };
        let LogicalOp::UnnestMap { hint, .. } = &mut **step else {
            unreachable!()
        };
        *hint = ScanHint::Cursor;
        assert!(set_steps(&plan).is_empty());
        // The dependent side of a d-join is re-opened per left tuple.
        let dependent = LogicalOp::djoin(LogicalOp::Singleton, stepped(Axis::Parent));
        assert!(set_steps(&dependent).is_empty());
        // So is a MemoX input.
        let memo = LogicalOp::MemoX { input: Box::new(stepped(Axis::Parent)), key: "cn".into() };
        assert!(set_steps(&memo).is_empty());
        // A read of an attribute the step's input defines (c1, c2), here a
        // positional counter grouped on the context above the pair.
        let counted = LogicalOp::CounterMap {
            input: Box::new(stepped(Axis::Parent)),
            attr: "cp".into(),
            reset_on: Some("c2".into()),
        };
        assert!(set_steps(&counted).is_empty());
        // A read of a seed attribute is fine: the output keeps the seed.
        let reads_cn = LogicalOp::select(
            stepped(Axis::Parent),
            ScalarExpr::Compare {
                op: CompOp::Eq,
                mode: CmpMode::Str,
                lhs: Box::new(ScalarExpr::attr("cn")),
                rhs: Box::new(ScalarExpr::str("x")),
            },
        );
        assert_eq!(set_steps(&reads_cn).len(), 1);
    }
}
