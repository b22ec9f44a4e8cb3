//! Direct unit tests of the physical iterators, driven without the
//! compiler: plans are assembled by hand so each operator's contract
//! (open/next/close, seeding, caching) is observable in isolation.

use std::collections::HashMap;

use algebra::scalar::{AggFunc, CmpMode};
use algebra::{ScanHint, Tuple, Value};
use xmlstore::{parse_document, ArenaStore, Axis, XmlStore};
use xpath_syntax::{CompOp, NodeTest};

use nqe::iter::{
    CompiledPred, ConcatIter, CounterIter, DJoinIter, DedupIter, MemoXIter, NestedEval, PhysIter,
    SelectIter, SingletonIter, SortIter, TmpCsIter, UnnestMapIter,
};
use nqe::nvm::{Instr, Program};
use nqe::{ResourceGovernor, Runtime};

fn store() -> ArenaStore {
    parse_document(r#"<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>"#).unwrap()
}

fn rt<'a>(
    s: &'a ArenaStore,
    vars: &'a HashMap<String, Value>,
    gov: &'a ResourceGovernor,
) -> Runtime<'a> {
    Runtime { store: s, vars, gov }
}

/// Frame: slot 0 = context node, slot 1 = step output, slot 2 = scratch.
const W: usize = 4;

fn seed(store: &ArenaStore) -> Tuple {
    let mut t = vec![Value::Null; W];
    t[0] = Value::Node(store.root());
    t
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

#[test]
fn singleton_yields_seed_once_per_open() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let mut it = SingletonIter::new();
    assert_eq!(drain(&mut it, &rt, &seed(&s)).len(), 1);
    // Re-open works (d-join contract).
    assert_eq!(drain(&mut it, &rt, &seed(&s)).len(), 1);
}

#[test]
fn unnest_map_walks_axis_in_order() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let out = drain(it.as_mut(), &rt, &seed(&s));
    let values: Vec<String> =
        out.iter().map(|t| t[1].as_node().map(|n| s.string_value(n)).unwrap()).collect();
    assert_eq!(values, ["1", "2", "3"]);
    // Unknown names match nothing (resolved-test Impossible path).
    let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("zzz".into()));
    assert!(drain(it.as_mut(), &rt, &seed(&s)).is_empty());
}

#[test]
fn djoin_reopens_dependent_side_per_left_tuple() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // left: a elements into slot 1; right: b children of slot 1 into 2.
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let right = Box::new(UnnestMapIter::new(
        Box::new(SingletonIter::new()),
        1,
        2,
        Axis::Child,
        NodeTest::Name("b".into()),
        ScanHint::Auto,
        None,
    ));
    let mut join = DJoinIter::new(left, right);
    let out = drain(&mut join, &rt, &seed(&s));
    assert_eq!(out.len(), 3);
    // Every output tuple carries both the left and the right binding.
    for t in &out {
        assert!(t[1].as_node().is_some());
        assert!(t[2].as_node().is_some());
    }
}

#[test]
fn counter_resets_on_group_change() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let step = Box::new(UnnestMapIter::new(
        left,
        1,
        2,
        Axis::Child,
        NodeTest::Name("b".into()),
        ScanHint::Auto,
        None,
    ));
    let mut counter = CounterIter::new(step, 3, Some(1));
    let out = drain(&mut counter, &rt, &seed(&s));
    let positions: Vec<f64> = out
        .iter()
        .map(|t| match t[3] {
            Value::Num(n) => n,
            _ => panic!(),
        })
        .collect();
    assert_eq!(positions, [1.0, 2.0, 1.0], "counter must reset on the second <a>");
}

#[test]
fn tmpcs_annotates_group_sizes() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let step = Box::new(UnnestMapIter::new(
        left,
        1,
        2,
        Axis::Child,
        NodeTest::Name("b".into()),
        ScanHint::Auto,
        None,
    ));
    let mut tmpcs = TmpCsIter::new(step, 3, Some(1));
    let out = drain(&mut tmpcs, &rt, &seed(&s));
    let sizes: Vec<f64> = out
        .iter()
        .map(|t| match t[3] {
            Value::Num(n) => n,
            _ => panic!(),
        })
        .collect();
    assert_eq!(sizes, [2.0, 2.0, 1.0], "per-context sizes");
    // Ungrouped variant counts the whole input (Tmp^cs).
    let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let step = Box::new(UnnestMapIter::new(
        left,
        1,
        2,
        Axis::Child,
        NodeTest::Name("b".into()),
        ScanHint::Auto,
        None,
    ));
    let mut tmpcs = TmpCsIter::new(step, 3, None);
    let out = drain(&mut tmpcs, &rt, &seed(&s));
    assert!(out.iter().all(|t| matches!(t[3], Value::Num(n) if n == 3.0)));
}

#[test]
fn dedup_keeps_first_occurrence() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // b/parent::a produces each <a> per child b.
    let bs = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let parents = Box::new(UnnestMapIter::new(
        bs,
        1,
        2,
        Axis::Parent,
        NodeTest::Wildcard,
        ScanHint::Auto,
        None,
    ));
    let mut dedup = DedupIter::new(parents, 2);
    let out = drain(&mut dedup, &rt, &seed(&s));
    assert_eq!(out.len(), 2, "three b-parents collapse to two distinct <a>");
}

#[test]
fn sort_establishes_document_order() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // preceding axis yields reverse document order; Sort flips it back.
    let last_b = {
        let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let out = drain(it.as_mut(), &rt, &seed(&s));
        out.last().unwrap().clone()
    };
    let prec = Box::new(UnnestMapIter::new(
        Box::new(SingletonIter::new()),
        1,
        2,
        Axis::Preceding,
        NodeTest::Name("b".into()),
        ScanHint::Auto,
        None,
    ));
    let mut sort = SortIter::new(prec, 2);
    let out = drain(&mut sort, &rt, &last_b);
    let values: Vec<String> =
        out.iter().map(|t| t[2].as_node().map(|n| s.string_value(n)).unwrap()).collect();
    assert_eq!(values, ["1", "2"]);
}

#[test]
fn select_filters_by_compiled_predicate() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // pred: number(string-value of slot1 node) >= 2
    let pred = CompiledPred::new(
        Program {
            instrs: vec![
                Instr::LoadSlot { dst: 0, slot: 1 },
                Instr::ToNumber { dst: 1, a: 0 },
                Instr::LoadConst { dst: 2, value: Value::Num(2.0) },
                Instr::Cmp { op: CompOp::Ge, mode: CmpMode::Num, dst: 3, a: 1, b: 2 },
            ],
            nregs: 4,
            result: 3,
        },
        vec![],
    );
    let bs = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut select = SelectIter::new(bs, pred);
    let out = drain(&mut select, &rt, &seed(&s));
    assert_eq!(out.len(), 2);
}

#[test]
fn concat_chains_parts_with_same_seed() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let p1 = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
    let p2 = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut concat = ConcatIter::new(vec![p1, p2]);
    let out = drain(&mut concat, &rt, &seed(&s));
    assert_eq!(out.len(), 5, "2 a's then 3 b's");
}

#[test]
fn memox_replays_on_key_hits() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let inner = unnest(1, 2, Axis::Child, NodeTest::Name("b".into()));
    let mut memo = MemoXIter::new(inner, 1);

    // Seed with the first <a>.
    let a1 = {
        let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
        drain(it.as_mut(), &rt, &seed(&s))[0].clone()
    };
    let first = drain(&mut memo, &rt, &a1);
    assert_eq!(first.len(), 2);
    assert_eq!((memo.hits, memo.misses), (0, 1));
    // Same key again: served from the table.
    let again = drain(&mut memo, &rt, &a1);
    assert_eq!(again.len(), 2);
    assert_eq!((memo.hits, memo.misses), (1, 1));
}

#[test]
fn memox_discards_partial_recordings() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let inner = unnest(1, 2, Axis::Child, NodeTest::Name("b".into()));
    let mut memo = MemoXIter::new(inner, 1);
    let a1 = {
        let mut it = unnest(0, 1, Axis::Descendant, NodeTest::Name("a".into()));
        drain(it.as_mut(), &rt, &seed(&s))[0].clone()
    };
    // Early exit: take one tuple, close.
    memo.open(&rt, &a1);
    assert!(memo.next(&rt).is_some());
    memo.close(&rt);
    // The partial sequence must not have been cached.
    let full = drain(&mut memo, &rt, &a1);
    assert_eq!(full.len(), 2);
    assert_eq!(memo.misses, 2, "second open is a miss again");
}

#[test]
fn nested_eval_aggregates_and_caches_independent_plans() {
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::Count, false);
    match agg.evaluate(&rt, &seed(&s)) {
        Value::Num(n) => assert_eq!(n, 3.0),
        other => panic!("{other:?}"),
    }
    // Sum over the b contents.
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::Sum, false);
    match agg.evaluate(&rt, &seed(&s)) {
        Value::Num(n) => assert_eq!(n, 6.0),
        other => panic!("{other:?}"),
    }
    // Min/Max.
    for (f, expect) in [(AggFunc::Min, 1.0), (AggFunc::Max, 3.0)] {
        let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let mut agg = NestedEval::new(plan, 1, f, false);
        match agg.evaluate(&rt, &seed(&s)) {
            Value::Num(n) => assert_eq!(n, expect),
            other => panic!("{other:?}"),
        }
    }
    // FirstNode picks document order.
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::FirstNode, false);
    match agg.evaluate(&rt, &seed(&s)) {
        Value::Node(n) => assert_eq!(s.string_value(n), "1"),
        other => panic!("{other:?}"),
    }
    // Exists with empty input.
    let plan = unnest(0, 1, Axis::Descendant, NodeTest::Name("none".into()));
    let mut agg = NestedEval::new(plan, 1, AggFunc::Exists, false);
    assert!(matches!(agg.evaluate(&rt, &seed(&s)), Value::Bool(false)));
}

#[test]
fn semi_and_anti_join_are_complementary() {
    use nqe::iter::SemiJoinIter;
    let s = store();
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = rt(&s, &vars, &gov);
    // left: all b's (slot 1); right: b's with value >= 2 (slot 2);
    // pred: string-values equal.
    let pred = || {
        CompiledPred::new(
            Program {
                instrs: vec![
                    Instr::LoadSlot { dst: 0, slot: 1 },
                    Instr::ToString { dst: 1, a: 0 },
                    Instr::LoadSlot { dst: 2, slot: 2 },
                    Instr::ToString { dst: 3, a: 2 },
                    Instr::Cmp { op: CompOp::Eq, mode: CmpMode::Str, dst: 4, a: 1, b: 3 },
                ],
                nregs: 5,
                result: 4,
            },
            vec![],
        )
    };
    let right = || -> Box<dyn PhysIter> {
        let bs = unnest(0, 2, Axis::Descendant, NodeTest::Name("b".into()));
        Box::new(SelectIter::new(
            bs,
            CompiledPred::new(
                Program {
                    instrs: vec![
                        Instr::LoadSlot { dst: 0, slot: 2 },
                        Instr::ToNumber { dst: 1, a: 0 },
                        Instr::LoadConst { dst: 2, value: Value::Num(2.0) },
                        Instr::Cmp { op: CompOp::Ge, mode: CmpMode::Num, dst: 3, a: 1, b: 2 },
                    ],
                    nregs: 4,
                    result: 3,
                },
                vec![],
            ),
        ))
    };
    let semi_out = {
        let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let mut semi = SemiJoinIter::new(left, right(), pred(), vec![2], false);
        drain(&mut semi, &rt, &seed(&s))
    };
    let anti_out = {
        let left = unnest(0, 1, Axis::Descendant, NodeTest::Name("b".into()));
        let mut anti = SemiJoinIter::new(left, right(), pred(), vec![2], true);
        drain(&mut anti, &rt, &seed(&s))
    };
    let values = |ts: &[Tuple]| -> Vec<String> {
        ts.iter().map(|t| t[1].as_node().map(|n| s.string_value(n)).unwrap()).collect()
    };
    assert_eq!(values(&semi_out), ["2", "3"]);
    assert_eq!(values(&anti_out), ["1"]);
}
