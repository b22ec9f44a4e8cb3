//! The set step (DESIGN.md §21): a `Π^D[a] ∘ Υ[a:c/axis::test]` pair
//! evaluated set-at-a-time. The shape and its soundness conditions are
//! decided by [`algebra::kernel::set_steps`].
//!
//! The operator drains its input's context column into a set, unions the
//! axis over the distinct contexts and emits every result node once, in
//! document order, as the open seed with `a` bound. On the rank encoding
//! of the structural index no context is scanned twice and no duplicate
//! is produced in the first place:
//!
//! - `descendant(-or-self)` scans each maximal context interval once;
//!   contexts inside an interval already scanned are skipped (their
//!   results are a subset), except that `descendant-or-self` still emits
//!   an attribute context itself, which the interval scan passes over;
//! - `following` is one scan after the smallest subtree end;
//! - `preceding` is one scan before the last context, minus its
//!   ancestors;
//! - the marking axes (`parent`, `ancestor(-or-self)`, the sibling axes)
//!   walk from every context and stop at the first node an earlier walk
//!   already reached — everything beyond it was reached too.
//!
//! Without a structural index, or for a context the index cannot rank,
//! the operator falls back to per-context cursor walks deduplicated
//! through a hash set and sorted into document order: the same answers.

use std::collections::HashSet;

use xmlstore::{Axis, AxisCursor, NodeId, NodeKind, StructuralIndex};
use xpath_syntax::NodeTest;

use algebra::attrmgr::Slot;
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::governor::{group_key_bytes, ChargeLedger};
use crate::iter::path::ResolvedTest;
use crate::iter::{Gauge, GroupKey, PhysIter};

/// A set of document-order ranks, one bit per ranked node.
pub(crate) struct RankSet {
    words: Vec<u64>,
}

impl RankSet {
    /// Bytes a set over an index of `len` ranks occupies (the governor
    /// charge).
    pub(crate) fn bytes(len: usize) -> u64 {
        (len.div_ceil(64) * 8) as u64
    }

    /// Empty set over an index of `len` ranks.
    pub(crate) fn new(len: usize) -> RankSet {
        RankSet { words: vec![0; len.div_ceil(64)] }
    }

    /// Add `r`; `true` if it was not in the set yet.
    pub(crate) fn insert(&mut self, r: u32) -> bool {
        let (word, bit) = ((r / 64) as usize, 1u64 << (r % 64));
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    fn contains(&self, r: u32) -> bool {
        self.words[(r / 64) as usize] & (1 << (r % 64)) != 0
    }

    /// The smallest member `≥ r`.
    fn next_from(&self, r: u32) -> Option<u32> {
        let mut word = (r / 64) as usize;
        let mut bits = self.words.get(word)? & (u64::MAX << (r % 64));
        loop {
            if bits != 0 {
                return Some(word as u32 * 64 + bits.trailing_zeros());
            }
            word += 1;
            bits = *self.words.get(word)?;
        }
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.next_from(0), |&r| self.next_from(r + 1))
    }
}

/// Axes whose union over a context set is a few rank intervals.
fn pruning_axis(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding
    )
}

/// Statistics of one set step, summed over all opens.
#[derive(Default)]
struct Counters {
    /// Distinct context nodes drained from the input.
    contexts: u64,
    /// Contexts that needed no scan or walk of their own.
    pruned: u64,
    /// Nodes visited by scans and walks (one governor tick each).
    visited: u64,
}

/// The distinct contexts of one open.
struct Contexts {
    /// Contexts the structural index ranks (allocated and charged on the
    /// first one).
    ranks: Option<RankSet>,
    /// Number of ranked contexts.
    ranked: u64,
    /// Smallest subtree end over the ranked contexts.
    min_end: u32,
    /// Largest ranked context.
    max_rank: u32,
    /// Contexts without a rank (no index, or a node it cannot rank), in
    /// input order: any of them sends the step down the hash path.
    unranked: Vec<NodeId>,
    seen: HashSet<NodeId>,
}

/// Emission state after the drain.
enum State {
    /// Opened; the input is drained on the first `next`.
    Fresh,
    /// Emitting from the rank encoding.
    Ranked(RankedScan),
    /// Emitting the hash path's result, already in document order.
    Hashed(std::vec::IntoIter<NodeId>),
    /// Exhausted (or stopped by the governor).
    Done,
}

/// Π^D ∘ Υ over one of the nine duplicate-producing axes, set-at-a-time.
pub struct SetStepIter {
    input: Box<dyn PhysIter>,
    ctx: Slot,
    out: Slot,
    axis: Axis,
    test: NodeTest,
    resolved: Option<ResolvedTest>,
    /// The open seed: every output tuple is a copy with `out` bound.
    seed: Tuple,
    state: State,
    ledger: ChargeLedger,
    counters: Counters,
}

impl SetStepIter {
    /// New set step reading contexts from slot `ctx` of `input`'s tuples
    /// and binding slot `out`.
    pub fn new(
        input: Box<dyn PhysIter>,
        ctx: Slot,
        out: Slot,
        axis: Axis,
        test: NodeTest,
    ) -> SetStepIter {
        SetStepIter {
            input,
            ctx,
            out,
            axis,
            test,
            resolved: None,
            seed: Tuple::new(),
            state: State::Done,
            ledger: ChargeLedger::new(),
            counters: Counters::default(),
        }
    }

    /// Drain the input into the context set and set up the emission;
    /// `Done` when the input has no node context or the governor tripped.
    fn prepare(&mut self, rt: &Runtime<'_>) -> State {
        let mut cx = Contexts {
            ranks: None,
            ranked: 0,
            min_end: u32::MAX,
            max_rank: 0,
            unranked: Vec::new(),
            seen: HashSet::new(),
        };
        let filled = self.drain(rt, &mut cx);
        // Drained: the input's buffers go now, not when the plan closes.
        self.input.close(rt);
        if !filled || !rt.gov.ok() {
            return State::Done;
        }
        self.counters.contexts += cx.ranked + cx.unranked.len() as u64;
        let idx = rt.store.structural_index();
        let mut list = Vec::new();
        if let (Some(set), Some(idx)) = (cx.ranks, idx) {
            if cx.unranked.is_empty() {
                let scan = |set| RankedScan {
                    set,
                    min_end: cx.min_end,
                    max_rank: cx.max_rank,
                    head: 0,
                    pos: 0,
                    end: -1,
                    scanned: false,
                };
                if pruning_axis(self.axis) {
                    if matches!(self.axis, Axis::Following | Axis::Preceding) {
                        self.counters.pruned += cx.ranked - 1;
                    }
                    return State::Ranked(scan(set));
                }
                let marked = self.mark(rt, idx, &set);
                self.ledger.release(rt.gov, RankSet::bytes(idx.len()));
                match marked {
                    Some(Ok(marks)) => return State::Ranked(scan(marks)),
                    Some(Err(())) => {}
                    None => return State::Done,
                }
            }
            list = set.iter().map(|r| idx.node_at(r)).collect();
        }
        list.extend(cx.unranked);
        if list.is_empty() {
            return State::Done;
        }
        match self.walk_hashed(rt, &list) {
            Some(nodes) => State::Hashed(nodes.into_iter()),
            None => State::Done,
        }
    }

    /// Collect the distinct context nodes; `false` when a charge tripped
    /// the governor.
    fn drain(&mut self, rt: &Runtime<'_>, cx: &mut Contexts) -> bool {
        let idx = rt.store.structural_index();
        while let Some(t) = self.input.next(rt) {
            let Some(node) = t.get(self.ctx).and_then(Value::as_node) else {
                continue; // unbound context yields nothing
            };
            match idx.and_then(|idx| Some((idx, idx.rank_of(node)?))) {
                Some((idx, r)) => {
                    if cx.ranks.is_none() {
                        if !self.ledger.charge(rt.gov, RankSet::bytes(idx.len())) {
                            return false;
                        }
                        cx.ranks = Some(RankSet::new(idx.len()));
                    }
                    if cx.ranks.as_mut().expect("allocated above").insert(r) {
                        cx.ranked += 1;
                        cx.min_end = cx.min_end.min(r.saturating_add(idx.size_at(r)));
                        cx.max_rank = cx.max_rank.max(r);
                    }
                }
                None => {
                    if cx.seen.insert(node) {
                        if !self.ledger.charge(rt.gov, group_key_bytes(&GroupKey::Node(node.0))) {
                            return false;
                        }
                        cx.unranked.push(node);
                    }
                }
            }
        }
        true
    }

    /// Walk a marking axis from every context in rank order, stopping at
    /// the first node already reached, into a rank set charged here.
    /// `Some(Err(()))` (the set released again) when a walk meets a node
    /// the index cannot rank — the caller takes the hash path — and
    /// `None` when the governor tripped.
    fn mark(
        &mut self,
        rt: &Runtime<'_>,
        idx: &StructuralIndex,
        contexts: &RankSet,
    ) -> Option<Result<RankSet, ()>> {
        if !self.ledger.charge(rt.gov, RankSet::bytes(idx.len())) {
            return None;
        }
        let mut marks = RankSet::new(idx.len());
        for r in contexts.iter() {
            let mut cursor = AxisCursor::new(rt.store, self.axis, idx.node_at(r));
            let mut first = true;
            while let Some(n) = cursor.advance(rt.store) {
                if !rt.gov.tick() {
                    return None;
                }
                self.counters.visited += 1;
                let Some(rank) = idx.rank_of(n) else {
                    self.ledger.release(rt.gov, RankSet::bytes(idx.len()));
                    return Some(Err(()));
                };
                if !marks.insert(rank) {
                    self.counters.pruned += u64::from(first);
                    break;
                }
                first = false;
            }
        }
        Some(Ok(marks))
    }

    /// The hash path: walk the axis from every context, keep each node
    /// reached once (a marking-axis walk stops at the first node already
    /// reached), and sort the matches into document order.
    fn walk_hashed(&mut self, rt: &Runtime<'_>, contexts: &[NodeId]) -> Option<Vec<NodeId>> {
        let resolved = self.resolved.as_ref().expect("opened");
        let marking = !pruning_axis(self.axis);
        let mut seen = HashSet::new();
        let mut found = Vec::new();
        for &c in contexts {
            let mut cursor = AxisCursor::new(rt.store, self.axis, c);
            let mut first = true;
            while let Some(n) = cursor.advance(rt.store) {
                if !rt.gov.tick() {
                    return None;
                }
                self.counters.visited += 1;
                if seen.insert(n) {
                    if !self.ledger.charge(rt.gov, group_key_bytes(&GroupKey::Node(n.0))) {
                        return None;
                    }
                    if resolved.matches(n, rt) {
                        found.push(n);
                    }
                } else if marking {
                    self.counters.pruned += u64::from(first);
                    break;
                }
                first = false;
            }
        }
        algebra::docorder::sort_dedup(&mut found, rt.store);
        Some(found)
    }
}

/// Emission over the rank encoding.
struct RankedScan {
    /// Pruning axes: the contexts, scanned span by span. Marking axes:
    /// every node the walks reached, emitted in rank order.
    set: RankSet,
    /// Smallest subtree end over the contexts (`following` starts after).
    min_end: u32,
    /// Largest context rank (`preceding` stops before).
    max_rank: u32,
    /// Context whose interval is being scanned (descendant axes).
    head: u32,
    /// Next rank to look at.
    pos: u32,
    /// Inclusive end of the current span; the span is empty while
    /// `pos > end`.
    end: i64,
    /// Whether a span was started (`following`/`preceding` have one).
    scanned: bool,
}

impl RankedScan {
    /// Rank of the next result node.
    fn next(
        &mut self,
        axis: Axis,
        test: &ResolvedTest,
        idx: &StructuralIndex,
        rt: &Runtime<'_>,
        counters: &mut Counters,
    ) -> Option<u32> {
        if !pruning_axis(axis) {
            while let Some(r) = self.set.next_from(self.pos) {
                self.pos = r + 1;
                if test.matches_rank(r, idx, rt) {
                    return Some(r);
                }
            }
            return None;
        }
        loop {
            if i64::from(self.pos) > self.end {
                self.next_span(axis, idx)?;
                continue;
            }
            let r = self.pos;
            self.pos += 1;
            if !rt.gov.tick() {
                return None;
            }
            counters.visited += 1;
            let attribute = idx.kind_at(r) == NodeKind::Attribute;
            let on_axis = match axis {
                Axis::Descendant | Axis::DescendantOrSelf => {
                    // A context inside the span: its own scan is covered.
                    // `descendant-or-self` still owes it its self node —
                    // the one rank the interval scan skips is an
                    // attribute's.
                    let context = self.set.contains(r);
                    if context && r != self.head {
                        counters.pruned += 1;
                    }
                    !attribute || (axis == Axis::DescendantOrSelf && context)
                }
                // Ancestors of the last context are not on its axis.
                Axis::Preceding => !attribute && r + idx.size_at(r) < self.max_rank,
                _ => !attribute,
            };
            if on_axis && test.matches_rank(r, idx, rt) {
                return Some(r);
            }
        }
    }

    /// Move to the next span; `None` when there is none.
    fn next_span(&mut self, axis: Axis, idx: &StructuralIndex) -> Option<()> {
        let last = idx.len() as i64 - 1;
        match axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                let r = self.set.next_from(self.pos)?;
                self.head = r;
                self.end = (i64::from(r) + i64::from(idx.size_at(r))).min(last);
                self.pos = if axis == Axis::Descendant { r + 1 } else { r };
            }
            // One span each.
            _ if self.scanned => return None,
            Axis::Following => {
                self.pos = self.min_end.saturating_add(1);
                self.end = last;
            }
            _ => self.end = i64::from(self.max_rank) - 1,
        }
        self.scanned = true;
        Some(())
    }
}

impl PhysIter for SetStepIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.ledger.release_all(rt.gov);
        self.seed.clone_from(seed);
        if self.seed.len() <= self.out {
            self.seed.resize(self.out + 1, Value::Null);
        }
        self.state = State::Fresh;
        if self.resolved.is_none() {
            self.resolved = Some(ResolvedTest::resolve(&self.test, self.axis, rt));
        }
    }

    fn next(&mut self, rt: &Runtime<'_>) -> Option<Tuple> {
        if matches!(self.resolved, Some(ResolvedTest::Impossible)) {
            return None;
        }
        if matches!(self.state, State::Fresh) {
            self.state = self.prepare(rt);
        }
        let node = match &mut self.state {
            State::Ranked(scan) => {
                let idx = rt.store.structural_index()?;
                let test = self.resolved.as_ref().expect("opened");
                let r = scan.next(self.axis, test, idx, rt, &mut self.counters);
                idx.node_at(r?)
            }
            State::Hashed(nodes) => nodes.next()?,
            State::Fresh | State::Done => return None,
        };
        let mut out = self.seed.clone();
        out[self.out] = Value::Node(node);
        Some(out)
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.state = State::Done;
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("contexts", self.counters.contexts));
        out.push(("pruned", self.counters.pruned));
        out.push(("visited", self.counters.visited));
        self.ledger.gauges(out);
    }
}
