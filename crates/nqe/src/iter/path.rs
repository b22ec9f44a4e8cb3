//! Navigation operators: Υ (unnest-map over an axis + node test, §3.2)
//! and the tokenising unnest used by `id()` (§3.6.3).

use std::collections::VecDeque;

use xmlstore::{
    Axis, AxisCursor, ContentKind, NameId, NodeId, NodeKind, RangeScan, StructuralIndex,
};
use xpath_syntax::{KindTest, NodeTest};

use algebra::attrmgr::Slot;
use algebra::{ProbeKind, ProbeSpec, ScanHint, Tuple, Value};

use crate::exec::Runtime;
use crate::governor::{tuple_bytes, ChargeLedger};
use crate::iter::{CompiledPred, Gauge, PhysIter};

/// Node test resolved against a concrete store (name → `NameId`).
#[derive(Clone, Debug)]
pub(crate) enum ResolvedTest {
    /// A name that does not occur in the document: matches nothing.
    Impossible,
    /// Principal-kind node with this interned name.
    Name(NodeKind, NameId),
    /// Any node of the principal kind (`*`).
    AnyPrincipal(NodeKind),
    /// `prefix:*` — principal kind, textual name starts with `prefix:`.
    Prefix(NodeKind, String),
    /// `node()`
    AnyNode,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction(target?)`
    Pi(Option<NameId>),
}

impl ResolvedTest {
    pub(crate) fn resolve(test: &NodeTest, axis: Axis, rt: &Runtime<'_>) -> ResolvedTest {
        let principal = axis.principal_kind();
        match test {
            NodeTest::Name(n) => match rt.store.intern_lookup(n) {
                Some(id) => ResolvedTest::Name(principal, id),
                None => ResolvedTest::Impossible,
            },
            NodeTest::Wildcard => ResolvedTest::AnyPrincipal(principal),
            NodeTest::NsWildcard(p) => ResolvedTest::Prefix(principal, format!("{p}:")),
            NodeTest::Kind(KindTest::Node) => ResolvedTest::AnyNode,
            NodeTest::Kind(KindTest::Text) => ResolvedTest::Text,
            NodeTest::Kind(KindTest::Comment) => ResolvedTest::Comment,
            NodeTest::Kind(KindTest::Pi(None)) => ResolvedTest::Pi(None),
            NodeTest::Kind(KindTest::Pi(Some(target))) => match rt.store.intern_lookup(target) {
                Some(id) => ResolvedTest::Pi(Some(id)),
                None => ResolvedTest::Impossible,
            },
        }
    }

    pub(crate) fn matches(&self, n: NodeId, rt: &Runtime<'_>) -> bool {
        let store = rt.store;
        match self {
            ResolvedTest::Impossible => false,
            ResolvedTest::Name(kind, id) => store.kind(n) == *kind && store.name(n) == Some(*id),
            ResolvedTest::AnyPrincipal(kind) => store.kind(n) == *kind,
            ResolvedTest::Prefix(kind, prefix) => {
                store.kind(n) == *kind && store.node_name(n).starts_with(prefix)
            }
            ResolvedTest::AnyNode => true,
            ResolvedTest::Text => store.kind(n) == NodeKind::Text,
            ResolvedTest::Comment => store.kind(n) == NodeKind::Comment,
            ResolvedTest::Pi(target) => {
                store.kind(n) == NodeKind::ProcessingInstruction
                    && target.is_none_or(|t| store.name(n) == Some(t))
            }
        }
    }

    /// Same test against the index's dense per-rank arrays — the range
    /// scan's inner loop never touches the store except for the rare
    /// `prefix:*` test, which needs name text.
    pub(crate) fn matches_rank(&self, rank: u32, idx: &StructuralIndex, rt: &Runtime<'_>) -> bool {
        match self {
            ResolvedTest::Impossible => false,
            ResolvedTest::Name(kind, id) => {
                idx.kind_at(rank) == *kind && idx.name_at(rank) == Some(*id)
            }
            ResolvedTest::AnyPrincipal(kind) => idx.kind_at(rank) == *kind,
            ResolvedTest::Prefix(kind, prefix) => {
                idx.kind_at(rank) == *kind
                    && rt.store.node_name(idx.node_at(rank)).starts_with(prefix)
            }
            ResolvedTest::AnyNode => true,
            ResolvedTest::Text => idx.kind_at(rank) == NodeKind::Text,
            ResolvedTest::Comment => idx.kind_at(rank) == NodeKind::Comment,
            ResolvedTest::Pi(target) => {
                idx.kind_at(rank) == NodeKind::ProcessingInstruction
                    && target.is_none_or(|t| idx.name_at(rank) == Some(t))
            }
        }
    }
}

/// Per-context traversal state of Υ: a compiled range scan where the
/// store's interval index covers the axis, the pointer-chasing cursor
/// otherwise.
enum Scan {
    Range(RangeScan),
    Cursor(AxisCursor),
    /// Candidates pre-computed from the content index's postings,
    /// already axis- and test-filtered, in document order.
    Probe(std::vec::IntoIter<(u32, NodeId)>),
}

/// Υ_{c:c₀/axis::test} — for each input tuple, emit one tuple per node
/// reached over the axis (in axis order) that passes the node test. The
/// axis cursor navigates the store directly — there is no intermediate
/// node materialisation (paper §5.2.2).
pub struct UnnestMapIter {
    input: Box<dyn PhysIter>,
    ctx: Slot,
    out: Slot,
    axis: Axis,
    test: NodeTest,
    /// Optimizer kernel hint: `Cursor` skips the per-context index probe
    /// entirely; `Auto`/`Range` probe the index and fall back.
    hint: ScanHint,
    /// Content-index pre-filter (`step[@a='v']` / `step[e='v']`): when
    /// the store's persistent content index covers the key, candidates
    /// come from its postings instead of an axis scan. A lossless
    /// narrowing — the predicate above still verifies every candidate.
    probe: Option<ProbeSpec>,
    /// The probe's postings, fetched once per execution: outer `None` =
    /// not yet fetched, inner `None` = the store cannot answer for this
    /// key (no content index, uncovered name, over-length value) and
    /// every context falls back to the plain scan.
    postings: Option<Option<Vec<(u32, NodeId)>>>,
    resolved: Option<ResolvedTest>,
    current: Option<(Tuple, Scan)>,
    /// Statistics: context nodes served by an interval range scan.
    pub range_scans: u64,
    /// Statistics: context nodes on an interval axis that fell back to
    /// the cursor (store without an index, or unranked node).
    pub cursor_fallbacks: u64,
    /// Statistics: context nodes served by a content-index probe.
    pub index_probes: u64,
    /// Statistics: postings examined across all probe windows.
    pub probe_postings: u64,
}

impl UnnestMapIter {
    /// New unnest-map.
    pub fn new(
        input: Box<dyn PhysIter>,
        ctx: Slot,
        out: Slot,
        axis: Axis,
        test: NodeTest,
        hint: ScanHint,
        probe: Option<ProbeSpec>,
    ) -> UnnestMapIter {
        UnnestMapIter {
            input,
            ctx,
            out,
            axis,
            test,
            hint,
            probe,
            postings: None,
            resolved: None,
            current: None,
            range_scans: 0,
            cursor_fallbacks: 0,
            index_probes: 0,
            probe_postings: 0,
        }
    }

    /// True for the axes the interval index can serve as a range scan.
    fn interval_axis(axis: Axis) -> bool {
        matches!(
            axis,
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding
        )
    }
}

impl PhysIter for UnnestMapIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.current = None;
        if self.resolved.is_none() {
            self.resolved = Some(ResolvedTest::resolve(&self.test, self.axis, rt));
        }
    }

    fn next(&mut self, rt: &Runtime<'_>) -> Option<Tuple> {
        let resolved = self.resolved.as_ref().expect("opened");
        if matches!(resolved, ResolvedTest::Impossible) {
            return None;
        }
        loop {
            if let Some((tuple, scan)) = &mut self.current {
                // The axis scan is the engine's innermost unbounded loop:
                // tick per advance so deadlines and cancellation are
                // observed even when nothing matches the node test.
                match scan {
                    Scan::Range(range) => {
                        // One virtual call per output tuple, not per hop:
                        // the scan loop itself is pure rank arithmetic.
                        let idx = rt.store.structural_index().expect("scan implies index");
                        while rt.gov.tick() {
                            let Some(rank) = range.advance(idx) else {
                                break;
                            };
                            if resolved.matches_rank(rank, idx, rt) {
                                let mut out = tuple.clone();
                                out[self.out] = Value::Node(idx.node_at(rank));
                                return Some(out);
                            }
                        }
                    }
                    Scan::Cursor(cursor) => {
                        while rt.gov.tick() {
                            let Some(n) = cursor.advance(rt.store) else {
                                break;
                            };
                            if resolved.matches(n, rt) {
                                let mut out = tuple.clone();
                                out[self.out] = Value::Node(n);
                                return Some(out);
                            }
                        }
                    }
                    Scan::Probe(cands) => {
                        // Candidates are already axis- and test-filtered,
                        // so every advance emits: tick per output tuple.
                        if rt.gov.tick() {
                            if let Some((_, n)) = cands.next() {
                                let mut out = tuple.clone();
                                out[self.out] = Value::Node(n);
                                return Some(out);
                            }
                        }
                    }
                }
                if !rt.gov.ok() {
                    return None;
                }
                self.current = None;
            }
            let t = self.input.next(rt)?;
            let Some(node) = t.get(self.ctx).and_then(|v| v.as_node()) else {
                continue; // unbound context yields nothing
            };
            // A probe annotation takes precedence over either scan
            // kernel: the candidates come straight from the content
            // index's postings clipped to the context's subtree window.
            if let Some(spec) = &self.probe {
                if self.postings.is_none() {
                    let kind = match spec.kind {
                        ProbeKind::Attribute => ContentKind::Attribute,
                        ProbeKind::Element => ContentKind::Element,
                    };
                    self.postings = Some(rt.store.content_probe(kind, &spec.name, &spec.value));
                }
                if let Some(Some(post)) = &self.postings {
                    if let Some(cands) = probe_window(
                        rt,
                        post,
                        spec.kind,
                        self.axis,
                        node,
                        resolved,
                        &mut self.probe_postings,
                    ) {
                        self.index_probes += 1;
                        self.current = Some((t, Scan::Probe(cands.into_iter())));
                        continue;
                    }
                }
            }
            // A `Cursor` hint skips the index probe: the optimizer
            // estimated the scan span to dwarf the axis output, so the
            // cursor is the chosen kernel, not a fallback.
            let probed = if self.hint == ScanHint::Cursor {
                None
            } else {
                rt.store.structural_index().and_then(|idx| idx.range_scan(self.axis, node))
            };
            let scan = match probed {
                Some(range) => {
                    self.range_scans += 1;
                    Scan::Range(range)
                }
                None => {
                    if Self::interval_axis(self.axis) && self.hint != ScanHint::Cursor {
                        self.cursor_fallbacks += 1;
                    }
                    Scan::Cursor(AxisCursor::new(rt.store, self.axis, node))
                }
            };
            self.current = Some((t, scan));
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.current = None;
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("range_scans", self.range_scans));
        out.push(("cursor_fallbacks", self.cursor_fallbacks));
        out.push(("index_probes", self.index_probes));
        out.push(("probe_postings", self.probe_postings));
    }
}

/// Compute one context's probe candidates: clip the rank-sorted
/// postings to the context's subtree window, map element postings to
/// their parent (the step's candidate), then keep only candidates that
/// actually lie on the axis and pass the node test. `None` when the
/// store has no structural index or the context is unranked — the
/// caller falls back to the plain scan kernels.
fn probe_window(
    rt: &Runtime<'_>,
    postings: &[(u32, NodeId)],
    kind: ProbeKind,
    axis: Axis,
    ctx: NodeId,
    resolved: &ResolvedTest,
    examined: &mut u64,
) -> Option<Vec<(u32, NodeId)>> {
    let idx = rt.store.structural_index()?;
    let (lo, hi) = idx.subtree_range(ctx)?;
    let start = postings.partition_point(|&(r, _)| r < lo);
    let end = postings.partition_point(|&(r, _)| r <= hi);
    let window = &postings[start..end];
    *examined += window.len() as u64;
    // Attribute postings carry the owning element; element postings
    // carry the value-matching element, whose parent is the candidate.
    let mut cands: Vec<(u32, NodeId)> = match kind {
        ProbeKind::Attribute => window.to_vec(),
        ProbeKind::Element => {
            let mut parents = Vec::with_capacity(window.len());
            for &(_, n) in window {
                if let Some(p) = rt.store.parent(n) {
                    if let Some(pr) = idx.rank_of(p) {
                        parents.push((pr, p));
                    }
                }
            }
            parents.sort_unstable_by_key(|&(r, _)| r);
            parents.dedup_by_key(|&mut (r, _)| r);
            parents
        }
    };
    cands.retain(|&(r, n)| {
        let on_axis = match axis {
            Axis::Child => rt.store.parent(n) == Some(ctx),
            Axis::Descendant => r > lo,
            Axis::DescendantOrSelf => true,
            // The optimizer only annotates the three axes above.
            _ => false,
        };
        on_axis && resolved.matches_rank(r, idx, rt)
    });
    Some(cands)
}

/// Υ_{t:tokenize(e)} — one tuple per whitespace-separated token of the
/// string subscript (`id()` support, §3.6.3).
pub struct TokenizeIter {
    input: Box<dyn PhysIter>,
    out: Slot,
    expr: CompiledPred,
    pending: VecDeque<Tuple>,
    ledger: ChargeLedger,
}

impl TokenizeIter {
    /// New tokenizer.
    pub fn new(input: Box<dyn PhysIter>, out: Slot, expr: CompiledPred) -> TokenizeIter {
        TokenizeIter {
            input,
            out,
            expr,
            pending: VecDeque::new(),
            ledger: ChargeLedger::new(),
        }
    }
}

impl PhysIter for TokenizeIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.pending.clear();
        self.ledger.release_all(rt.gov);
    }

    fn next(&mut self, rt: &Runtime<'_>) -> Option<Tuple> {
        loop {
            if !rt.gov.tick() {
                return None;
            }
            if let Some(t) = self.pending.pop_front() {
                self.ledger.release(rt.gov, tuple_bytes(&t));
                return Some(t);
            }
            let t = self.input.next(rt)?;
            let s = self.expr.eval(rt, &t).to_str(rt.store);
            for token in s.split_ascii_whitespace() {
                let mut out = t.clone();
                out[self.out] = Value::Str(token.into());
                if !self.ledger.charge_tuple(rt.gov, &out) {
                    return None;
                }
                self.pending.push_back(out);
            }
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.pending.clear();
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        self.ledger.gauges(out);
    }
}
