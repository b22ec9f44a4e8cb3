//! Shape recognition for the fused step kernel (DESIGN.md §20).
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

use xmlstore::Axis;
use xpath_syntax::{CompOp, NodeTest};

use crate::ops::LogicalOp;
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
}
