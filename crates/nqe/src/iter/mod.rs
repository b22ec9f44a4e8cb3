//! Physical algebra: Graefe-style open/next/close iterators, one per
//! logical operator (paper §5.2.1). Tuples are register frames of the
//! plan-wide width fixed by the attribute manager; the dependent side of
//! a d-join (and every nested plan) is *seeded* with the outer tuple,
//! which implements free-variable binding (§2.2.2).

mod basic;
mod group;
mod join;
mod path;
mod setstep;

pub use basic::{ConcatIter, CounterIter, MapIter, RenameCopyIter, SelectIter, SingletonIter};
pub use group::{DedupIter, MemoMapIter, MemoXIter, SortIter, TmpCsIter};
pub use join::{DJoinIter, SemiJoinIter};
pub use path::{TokenizeIter, UnnestMapIter};
pub use setstep::SetStepIter;

use algebra::attrmgr::Slot;
use algebra::scalar::AggFunc;
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::kernel::StepKernel;
use crate::nvm::{self, Program};

/// One operator-specific metric: a static name and a counter value
/// (e.g. `("memo_hits", 42)`).
pub type Gauge = (&'static str, u64);

/// The iterator interface of the physical algebra.
pub trait PhysIter {
    /// (Re-)start the iterator with an outer binding tuple. Caches
    /// (MemoX, χ^mat, independent aggregates) survive re-opens.
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple);

    /// Produce the next tuple. Returning `None` with the runtime's
    /// governor tripped means "stopped by the budget", not exhaustion —
    /// the executor turns the trip into a typed error after closing.
    fn next(&mut self, rt: &Runtime<'_>) -> Option<Tuple>;

    /// Release per-evaluation state and return any transient governor
    /// charges (default: nothing to do — Rust drops buffers with the
    /// operator).
    fn close(&mut self, _rt: &Runtime<'_>) {}

    /// Report operator-specific gauges (cache hit/miss counts,
    /// materialised tuple counts, re-open counts, …). Collected by the
    /// profiler at close; the default reports nothing.
    fn gauges(&self, _out: &mut Vec<Gauge>) {}
}

/// A compiled scalar subscript: an NVM program plus the nested iterator
/// plans its `EvalNested` instructions refer to.
pub struct CompiledPred {
    /// The NVM program.
    pub prog: Program,
    /// Nested sequence plans (aggregations).
    pub nested: Vec<NestedEval>,
    /// The program's register file, reused across evaluations.
    regs: Vec<Value>,
}

impl CompiledPred {
    /// Bundle a program with its nested plans.
    pub fn new(prog: Program, nested: Vec<NestedEval>) -> CompiledPred {
        CompiledPred { prog, nested, regs: Vec::new() }
    }

    /// Evaluate against one tuple.
    pub fn eval(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        nvm::run(&self.prog, &mut self.regs, rt, tuple, &mut self.nested)
    }
}

/// A nested aggregate of a scalar subscript (paper §5.2.3).
pub enum NestedEval {
    /// A nested iterator plan, aggregated tuple by tuple.
    Plan(NestedPlan),
    /// A fused step kernel (DESIGN.md §20).
    Kernel(StepKernel),
}

impl NestedEval {
    /// Wrap a built nested plan.
    pub fn new(iter: Box<dyn PhysIter>, over: Slot, func: AggFunc, independent: bool) -> Self {
        NestedEval::Plan(NestedPlan { iter, over, func, independent, cached: None })
    }

    /// The aggregate's value for the outer tuple `tuple`.
    pub fn evaluate(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        match self {
            NestedEval::Plan(p) => p.evaluate(rt, tuple),
            NestedEval::Kernel(k) => k.evaluate(rt, tuple),
        }
    }
}

/// A nested sequence-valued plan consumed as an aggregate value
/// (paper §5.2.3), with premature termination for `exists()` (§5.2.5)
/// and one-shot caching for plans without free attributes.
pub struct NestedPlan {
    iter: Box<dyn PhysIter>,
    over: Slot,
    func: AggFunc,
    independent: bool,
    cached: Option<Value>,
}

impl NestedPlan {
    /// Run the nested plan seeded with `tuple` and aggregate.
    fn evaluate(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        if self.independent {
            if let Some(v) = &self.cached {
                return v.clone();
            }
        }
        self.iter.open(rt, tuple);
        let store = rt.store;
        let result = match self.func {
            AggFunc::Exists => {
                // Smart aggregation: stop after the first tuple.
                let found = self.iter.next(rt).is_some();
                Value::Bool(found)
            }
            AggFunc::Count => {
                let mut n = 0u64;
                while self.iter.next(rt).is_some() {
                    n += 1;
                }
                Value::Num(n as f64)
            }
            AggFunc::Sum => {
                let mut total = 0.0f64;
                while let Some(t) = self.iter.next(rt) {
                    total += t.get(self.over).map_or(f64::NAN, |v| v.to_num(store));
                }
                Value::Num(total)
            }
            AggFunc::Max | AggFunc::Min => {
                let mut best: Option<f64> = None;
                while let Some(t) = self.iter.next(rt) {
                    let x = t.get(self.over).map_or(f64::NAN, |v| v.to_num(store));
                    best = Some(match best {
                        None => x,
                        Some(b) => {
                            if self.func == AggFunc::Max {
                                b.max(x)
                            } else {
                                b.min(x)
                            }
                        }
                    });
                }
                Value::Num(best.unwrap_or(f64::NAN))
            }
            AggFunc::FirstNode => {
                let keys = algebra::DocOrderKeys::new(store);
                let mut best: Option<(u64, xmlstore::NodeId)> = None;
                while let Some(t) = self.iter.next(rt) {
                    if let Some(Value::Node(n)) = t.get(self.over) {
                        let o = keys.key(*n);
                        if best.is_none_or(|(bo, _)| o < bo) {
                            best = Some((o, *n));
                        }
                    }
                }
                match best {
                    Some((_, n)) => Value::Node(n),
                    None => Value::Null,
                }
            }
        };
        self.iter.close(rt);
        if self.independent {
            self.cached = Some(result.clone());
        }
        result
    }
}

/// Key for duplicate elimination / grouping on an attribute. Result
/// attributes are node-valued in every translation, but the key falls
/// back to the printed value for robustness.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum GroupKey {
    /// Node identity.
    Node(u32),
    /// Unbound attribute.
    Null,
    /// Non-node values, keyed by canonical string form.
    Other(String),
}

impl GroupKey {
    /// Build the key for `v`.
    pub fn of(v: &Value, rt: &Runtime<'_>) -> GroupKey {
        match v {
            Value::Node(n) => GroupKey::Node(n.0),
            Value::Null => GroupKey::Null,
            other => GroupKey::Other(other.to_str(rt.store)),
        }
    }
}
