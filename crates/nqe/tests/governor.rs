//! Governor accounting tests with hand-computed budgets: each test derives
//! an operator's exact materialization footprint from the byte estimators,
//! then asserts the budget trips at footprint−1 and clears at footprint,
//! and that the governor's high-water mark matches the arithmetic (charge
//! rollback keeps failed charges out of the gauges).

use std::collections::HashMap;

use algebra::{QueryError, ScanHint, Tuple, Value};
use compiler::{ResourceLimits, TranslateOptions};
use xmlstore::{parse_document, ArenaStore, Axis, XmlStore};
use xpath_syntax::NodeTest;

use nqe::iter::{GroupKey, PhysIter, SingletonIter, SortIter, TmpCsIter, UnnestMapIter};
use nqe::{group_key_bytes, tuple_bytes, ResourceGovernor, Runtime};

fn store() -> ArenaStore {
    parse_document(r#"<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>"#).unwrap()
}

/// Frame width used by the hand-assembled plans below.
const W: usize = 4;

fn seed(store: &ArenaStore) -> Tuple {
    let mut t = vec![Value::Null; W];
    t[0] = Value::Node(store.root());
    t
}

fn unnest(ctx: usize, out: usize, axis: Axis, test: NodeTest) -> Box<dyn PhysIter> {
    Box::new(UnnestMapIter::new(
        Box::new(SingletonIter::new()),
        ctx,
        out,
        axis,
        test,
        ScanHint::Auto,
        None,
    ))
}

fn drain(it: &mut dyn PhysIter, rt: &Runtime<'_>, seed: &Tuple) -> Vec<Tuple> {
    it.open(rt, seed);
    let mut out = Vec::new();
    while let Some(t) = it.next(rt) {
        out.push(t);
    }
    it.close(rt);
    out
}

/// One materialized tuple of the fixed frame: W slots, no heap payload
/// (Node/Null values only), so tuple_bytes is W × size_of::<Value>().
fn frame_bytes() -> u64 {
    let t = vec![Value::Null; W];
    tuple_bytes(&t)
}

#[test]
fn sort_trips_at_footprint_minus_one_and_clears_at_footprint() {
    let s = store();
    let vars = HashMap::new();
    // descendant::b yields 3 tuples; Sort parks all of them.
    let footprint = 3 * frame_bytes();

    // Exactly the footprint: the fill completes and the governor's
    // high-water mark equals the arithmetic.
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_memory(footprint));
    let rt = Runtime { store: &s, vars: &vars, gov: &gov };
    let mut sort = SortIter::new(unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into())), 1);
    let out = drain(&mut sort, &rt, &seed(&s));
    assert_eq!(out.len(), 3);
    assert!(gov.ok());
    assert_eq!(gov.high_water(), footprint, "peak equals the hand-computed footprint");
    assert_eq!(gov.transient_bytes(), 0, "everything released at close");

    // One byte short: the third charge is refused and rolled back, so the
    // high-water mark stays at two tuples.
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_memory(footprint - 1));
    let rt = Runtime { store: &s, vars: &vars, gov: &gov };
    let mut sort = SortIter::new(unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into())), 1);
    let out = drain(&mut sort, &rt, &seed(&s));
    assert!(out.is_empty(), "a tripped sort emits nothing");
    match gov.error() {
        Some(QueryError::MemoryExceeded { limit, requested }) => {
            assert_eq!(limit, footprint - 1);
            assert_eq!(requested, footprint, "the refused charge needed the full footprint");
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
    assert_eq!(gov.high_water(), 2 * frame_bytes(), "failed charge rolled back");
    assert_eq!(gov.transient_bytes(), 0, "no leaked charges after close");
}

#[test]
fn tmpcs_trips_at_footprint_minus_one_and_clears_at_footprint() {
    let s = store();
    let vars = HashMap::new();
    // Ungrouped Tmp^cs over descendant::b parks all 3 tuples to annotate
    // the context-sequence size.
    let footprint = 3 * frame_bytes();

    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_memory(footprint));
    let rt = Runtime { store: &s, vars: &vars, gov: &gov };
    let mut tmpcs =
        TmpCsIter::new(unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into())), 2, None);
    let out = drain(&mut tmpcs, &rt, &seed(&s));
    assert_eq!(out.len(), 3);
    assert!(gov.ok());
    assert_eq!(gov.high_water(), footprint);

    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_memory(footprint - 1));
    let rt = Runtime { store: &s, vars: &vars, gov: &gov };
    let mut tmpcs =
        TmpCsIter::new(unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into())), 2, None);
    let out = drain(&mut tmpcs, &rt, &seed(&s));
    assert!(out.is_empty());
    assert!(matches!(gov.error(), Some(QueryError::MemoryExceeded { .. })));
    assert_eq!(gov.high_water(), 2 * frame_bytes());
    assert_eq!(gov.transient_bytes(), 0);
}

#[test]
fn tuple_budget_counts_materialized_tuples_only() {
    let s = store();
    let vars = HashMap::new();
    // Sort materializes 3 tuples; a budget of 2 trips, 3 clears. Streaming
    // operators upstream never charge the tuple budget.
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_tuples(3));
    let rt = Runtime { store: &s, vars: &vars, gov: &gov };
    let mut sort = SortIter::new(unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into())), 1);
    assert_eq!(drain(&mut sort, &rt, &seed(&s)).len(), 3);
    assert!(gov.ok());
    assert_eq!(gov.tuples_charged(), 3);

    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_tuples(2));
    let rt = Runtime { store: &s, vars: &vars, gov: &gov };
    let mut sort = SortIter::new(unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into())), 1);
    assert!(drain(&mut sort, &rt, &seed(&s)).is_empty());
    assert!(matches!(gov.error(), Some(QueryError::TuplesExceeded { limit: 2 })));
}

/// Assert that `query` clears a memory budget of exactly `footprint`
/// bytes and trips with a typed MemoryExceeded one byte short.
fn assert_exact_footprint(store: &dyn XmlStore, query: &str, footprint: u64) {
    let run = |max: u64| {
        nqe::evaluate_governed(
            store,
            query,
            &TranslateOptions::improved(),
            &ResourceLimits::unlimited().with_max_memory(max),
            store.root(),
            &HashMap::new(),
        )
    };
    let out = run(footprint);
    assert!(out.is_ok(), "exact footprint clears `{query}`: {out:?}");
    let out = run(footprint - 1);
    assert!(
        matches!(out, Err(compiler::PipelineError::Resource(QueryError::MemoryExceeded { .. }))),
        "one byte short trips `{query}`: {out:?}"
    );
}

#[test]
fn dedup_bitsets_charge_one_word_block_each() {
    // On an indexed store the Π^D seen-sets are rank bitsets of
    // ⌈index len / 64⌉ words, charged once when the first node key
    // arrives. The aggregate's nested plan for //b/parent::a keeps its
    // standalone Π^D operators (a top-level path runs them as set steps,
    // see below) and carries two of them, both alive at the peak
    // (descendant-or-self step + parent step). A scalar result
    // accumulates no node-ids.
    let s = store();
    let idx_len = s.structural_index().expect("arena is indexed").len();
    let bitset_bytes = (idx_len.div_ceil(64) * 8) as u64;
    assert_exact_footprint(&s, "count(//b/parent::a)", 2 * bitset_bytes);
}

#[test]
fn dedup_seen_set_charges_group_keys_without_index() {
    // Hiding the index forces Π^D back onto the hash seen-sets: one
    // GroupKey per distinct value. The nested plan of count(//b/parent::a)
    // carries two of them, both alive at the peak: the
    // descendant-or-self step's (all 10 nodes of the fixture: root,
    // <r>, 2×<a>, 3×<b>, 3 text nodes) and the parent step's (2 distinct
    // <a>).
    let s = store();
    let plain = xmlstore::NoIndex(&s);
    let key_bytes = group_key_bytes(&GroupKey::Null);
    assert_exact_footprint(&plain, "count(//b/parent::a)", 10 * key_bytes + 2 * key_bytes);
}

#[test]
fn set_steps_charge_rank_sets_or_hash_keys() {
    // The top-level //b/parent::a runs both duplicate-eliminated steps as
    // set steps (DESIGN.md §21). On the indexed fixture (10 ranks, so one
    // 1-word set = 8 B) the peak is two sets, reached three times over:
    // while the parent step drains, the descendant-or-self step's context
    // set and the parent step's; once the drained input is closed, the
    // parent step's context set and its reached-set; once the context set
    // is released, the reached-set and the 2 result node-ids.
    let s = store();
    let idx_len = s.structural_index().expect("arena is indexed").len();
    let bitset_bytes = (idx_len.div_ceil(64) * 8) as u64;
    let node_id = std::mem::size_of::<xmlstore::NodeId>() as u64;
    let footprint = (2 * bitset_bytes).max(bitset_bytes + 2 * node_id);
    assert_eq!(footprint, 2 * bitset_bytes);
    assert_exact_footprint(&s, "//b/parent::a", footprint);

    // Without an index both steps take the hash path: one GroupKey per
    // distinct context and per distinct node reached. The peak is while
    // the parent step drains: the descendant-or-self step's 1 context and
    // 10 reached nodes plus the parent step's 3 contexts (<b>). After the
    // input closes the parent step holds 3 + 2 keys (the 2 <a>) and the
    // result accumulator 2 node-ids, well below.
    let plain = xmlstore::NoIndex(&s);
    let key_bytes = group_key_bytes(&GroupKey::Null);
    assert!(5 * key_bytes + 2 * node_id < 14 * key_bytes);
    assert_exact_footprint(&plain, "//b/parent::a", (1 + 10 + 3) * key_bytes);
}

#[test]
fn profiler_gauges_reconcile_with_governor_accounting() {
    // Dominant-materializer plan: the step's positional Tmp^cs is the only
    // operator parking tuples while the budget peaks, so its mem_peak gauge
    // equals the governor's high-water mark; and cumulative charges are
    // conserved — the per-operator mem_charged gauges plus the result
    // accumulator (one NodeId per result node) sum to the governor total.
    let s = store();
    let limits = ResourceLimits::unlimited();
    let (out, report) = nqe::explain_analyze_governed(
        &s,
        "/r/a/b[position()=last()]",
        &TranslateOptions::improved(),
        &limits,
        s.root(),
        &HashMap::new(),
    )
    .expect("compiles");
    let out = out.expect("unlimited run");
    let gauge_values = |name: &str| -> Vec<u64> {
        report
            .profile
            .entries
            .iter()
            .flat_map(|op| {
                op.stats
                    .lock()
                    .gauges
                    .iter()
                    .filter(|(g, _)| *g == name)
                    .map(|(_, v)| *v)
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let peaks = gauge_values("mem_peak");
    assert!(!peaks.is_empty(), "materializing operators export mem_peak gauges");
    assert_eq!(
        report.resources.high_water_bytes,
        peaks.iter().copied().max().unwrap(),
        "governor high-water equals the dominant operator's peak gauge"
    );
    let result_nodes = match &out {
        algebra::QueryOutput::Nodes(ns) => ns.len() as u64,
        other => panic!("expected nodes, got {other:?}"),
    };
    let accumulator = result_nodes * std::mem::size_of::<xmlstore::NodeId>() as u64;
    assert_eq!(
        report.resources.charged_bytes,
        gauge_values("mem_charged").iter().sum::<u64>() + accumulator,
        "per-operator charged gauges plus the result accumulator sum to the governor total"
    );
    assert_eq!(report.resources.transient_bytes, 0);
}
