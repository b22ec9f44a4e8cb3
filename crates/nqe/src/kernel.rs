//! The fused step kernel (DESIGN.md §20): a nested `𝔄[Exists|Count]`
//! over one child or attribute step, optionally filtered by a string
//! literal, evaluated as a single axis walk instead of a nested iterator
//! plan. The shape is recognised by [`algebra::kernel::step_kernel`].
//!
//! Per outer tuple the kernel walks the axis from the context node with
//! the store's navigation calls, ticks the governor once per visited
//! node, compares string-values in place
//! ([`xmlstore::XmlStore::string_value_eq`]) and, for `Exists`, stops at
//! the first hit (§5.2.5 smart aggregation). No tuple is built, no
//! iterator is re-opened and no string is allocated on the arena store.

use std::time::Instant;

use xmlstore::{Axis, AxisCursor, NameId};
use xpath_syntax::CompOp;

use algebra::attrmgr::Slot;
use algebra::kernel::StepKernelShape;
use algebra::{AggFunc, Tuple, Value};

use crate::exec::Runtime;
use crate::profile::SharedStats;

/// A compiled fused step kernel.
pub struct StepKernel {
    func: AggFunc,
    /// Slot of the context node the axis starts from.
    ctx: Slot,
    axis: Axis,
    name: String,
    /// `(want_equal, literal)`: keep a node when `string-value = literal`
    /// equals `want_equal`.
    filter: Option<(bool, String)>,
    /// The name test's interned id, looked up on first use: outer `None`
    /// = not yet resolved, inner `None` = the name does not occur in the
    /// document (the step is empty).
    resolved: Option<Option<NameId>>,
    /// Profile counters when built with profiling.
    stats: Option<SharedStats>,
    /// Statistics: nodes visited on the axis.
    visited: u64,
    /// Statistics: visited nodes that passed the name test.
    name_matches: u64,
    /// Statistics: nodes that passed the value filter too (for
    /// `Exists`, at most one per evaluation).
    hits: u64,
}

impl StepKernel {
    /// Compile `shape`, reading the context node from slot `ctx`.
    pub fn new(shape: &StepKernelShape<'_>, ctx: Slot, stats: Option<SharedStats>) -> StepKernel {
        StepKernel {
            func: shape.func,
            ctx,
            axis: shape.axis,
            name: shape.name.to_owned(),
            filter: shape.filter.map(|(op, lit)| (op == CompOp::Eq, lit.to_owned())),
            resolved: None,
            stats,
            visited: 0,
            name_matches: 0,
            hits: 0,
        }
    }

    /// The aggregate over the step from `tuple`'s context node.
    pub fn evaluate(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        let Some(stats) = self.stats.clone() else {
            return self.walk(rt, tuple);
        };
        let t0 = Instant::now();
        let hits_before = self.hits;
        let value = self.walk(rt, tuple);
        let mut s = stats.lock();
        s.nanos += t0.elapsed().as_nanos() as u64;
        s.opens += 1;
        s.tuples += self.hits - hits_before;
        s.gauges.clear();
        s.gauges.extend([
            ("visited", self.visited),
            ("name_matches", self.name_matches),
            ("hits", self.hits),
        ]);
        value
    }

    fn walk(&mut self, rt: &Runtime<'_>, tuple: &Tuple) -> Value {
        let store = rt.store;
        let id = *self.resolved.get_or_insert_with(|| store.intern_lookup(&self.name));
        let ctx = tuple.get(self.ctx).and_then(Value::as_node);
        let mut count = 0u64;
        if let (Some(id), Some(ctx)) = (id, ctx) {
            let kind = self.axis.principal_kind();
            let mut cursor = AxisCursor::new(store, self.axis, ctx);
            while let Some(n) = cursor.advance(store) {
                self.visited += 1;
                if !rt.gov.tick() {
                    break;
                }
                if store.kind(n) != kind || store.name(n) != Some(id) {
                    continue;
                }
                self.name_matches += 1;
                if let Some((want_equal, lit)) = &self.filter {
                    if store.string_value_eq(n, lit) != *want_equal {
                        continue;
                    }
                }
                count += 1;
                if self.func == AggFunc::Exists {
                    break;
                }
            }
        }
        self.hits += count;
        match self.func {
            AggFunc::Exists => Value::Bool(count > 0),
            _ => Value::Num(count as f64),
        }
    }
}
