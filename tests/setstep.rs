//! The set step (DESIGN.md §21): a `Π^D ∘ Υ` pair over one of the nine
//! duplicate-producing axes runs set-at-a-time — the distinct contexts
//! are drained, pruned against each other and the axis is unioned over
//! them. Every axis is checked from element, attribute, text and root
//! contexts against both interpreters, on the arena, a page file and an
//! index-less store, under the improved, extended and cost-based presets;
//! contexts the index cannot rank take the hash path with the same
//! answers; random trees and random ppd chains do the same; injected
//! faults stay typed and leak nothing; and EXPLAIN names a set step
//! exactly where EXPLAIN ANALYZE ran one.

use std::collections::HashMap;

use proptest::prelude::*;

use compiler::{CompiledQuery, ResourceLimits, TranslateOptions};
use interp::{InterpOptions, Interpreter};
use natix::{QueryError, QueryOutput};
use nqe::{FailPoint, ResourceGovernor};
use xmlstore::diskstore::DiskStore;
use xmlstore::tmp::TempPath;
use xmlstore::{parse_document, ArenaBuilder, ArenaStore, NoIndex, XmlStore};

/// Attributes on nested elements, text split by an element, a comment
/// and a PI between elements, and a second subtree repeating the names.
const DOC: &str = r#"<r a="1" b="2"><x p="3"><y q="4">t1<z/>t2</y><!--c--><y/></x><?pi d?><w k="5"><x p="6"><y q="7"/></x>tail</w></r>"#;

/// The nine axes on which one node can be reached from several contexts.
const PPD_AXES: [&str; 9] = [
    "parent",
    "ancestor",
    "ancestor-or-self",
    "descendant",
    "descendant-or-self",
    "following",
    "following-sibling",
    "preceding",
    "preceding-sibling",
];

/// Context sets: elements (nested and not), attributes, text nodes, the
/// root, and mixtures of elements with their own attributes.
const CONTEXTS: [&str; 8] = [
    "/",
    "//y",
    "//*",
    "//@*",
    "//@p",
    "//text()",
    "(//x | //x/@p)",
    "(//@* | //y)",
];

/// Edge cases named by the design: `descendant-or-self` from an attribute
/// inside an interval another context covers, and `following` /
/// `preceding` from attributes.
const EDGES: [(&str, &str); 5] = [
    ("(//x | //x/@p)/descendant-or-self::node()/@p", "3 6"),
    ("count((/r | //@q)/descendant-or-self::node())", "15"),
    // From an attribute, `following` starts with its owner's children.
    ("//@q/following::node()", "t1  t2 c  d tail   tail"),
    // From an attribute, `preceding` skips its owner and the owner's
    // ancestors.
    ("//y/@q/preceding::node()", "t1t2 t1t2 t1  t2 c  d"),
    ("count(//@p/following::*)", "6"),
];

fn doc() -> ArenaStore {
    parse_document(DOC).expect("fixture parses")
}

fn disk(arena: &ArenaStore) -> (DiskStore, TempPath) {
    let path = TempPath::new(".natix");
    let store = DiskStore::create_from(arena, path.path(), 4).expect("disk store");
    (store, path)
}

fn presets() -> [TranslateOptions; 3] {
    [
        TranslateOptions::improved(),
        TranslateOptions::extended(),
        TranslateOptions::cost_based(),
    ]
}

/// Every preset against both interpreters on `store`.
fn check(store: &dyn XmlStore, q: &str) -> QueryOutput {
    let reference = Interpreter::new(store, InterpOptions::context_list())
        .evaluate(q, store.root())
        .unwrap_or_else(|e| panic!("interpreter `{q}`: {e}"));
    let naive = Interpreter::new(store, InterpOptions::naive())
        .evaluate(q, store.root())
        .unwrap_or_else(|e| panic!("naive interpreter `{q}`: {e}"));
    assert_eq!(reference, naive, "interpreters disagree on `{q}`");
    for opts in presets() {
        let got = nqe::evaluate(store, q, &opts).unwrap_or_else(|e| panic!("`{q}`: {e}"));
        assert_eq!(got, reference, "`{q}` under {opts:?}");
    }
    reference
}

/// Number of set steps in the EXPLAIN of `q` compiled as the engine
/// compiles it against `store`, and in its EXPLAIN ANALYZE.
fn fused_sites(store: &dyn XmlStore, q: &str, opts: &TranslateOptions) -> (usize, usize) {
    let stats = store.structural_index().map(|idx| idx.stats());
    let explained = match compiler::compile_with_stats(q, opts, stats).expect("compiles").0 {
        CompiledQuery::Sequence(plan) => algebra::explain(&plan).matches("Υ^D[").count(),
        CompiledQuery::Scalar(_) => 0,
    };
    let (_, report) =
        nqe::explain_analyze(store, q, opts, store.root(), &HashMap::new()).expect("compiles");
    let ran = report.profile.entries.iter().filter(|e| e.label.starts_with("Υ^D[")).count();
    (explained, ran)
}

#[test]
fn every_ppd_axis_from_every_context_kind_agrees_on_three_stores() {
    let arena = doc();
    let (paged, _path) = disk(&arena);
    let plain = NoIndex(&arena);
    let stores: [&dyn XmlStore; 3] = [&arena, &paged, &plain];
    for axis in PPD_AXES {
        let mut fused = 0;
        for ctx in CONTEXTS {
            for test in ["node()", "*", "y"] {
                let q = format!("{ctx}/{axis}::{test}");
                for store in stores {
                    check(store, &q);
                }
                fused += fused_sites(&arena, &q, &TranslateOptions::improved()).0;
            }
        }
        assert!(fused > 0, "no `{axis}` step ran as a set step");
    }
}

#[test]
fn edge_cases_agree_and_select_the_expected_nodes() {
    let arena = doc();
    let (paged, _path) = disk(&arena);
    let plain = NoIndex(&arena);
    let stores: [&dyn XmlStore; 3] = [&arena, &paged, &plain];
    for (q, want) in EDGES {
        let plan = match compiler::compile(q, &TranslateOptions::improved()).unwrap() {
            CompiledQuery::Sequence(plan) => algebra::explain(&plan),
            CompiledQuery::Scalar(_) => String::new(),
        };
        for store in stores {
            let got = match check(store, q) {
                QueryOutput::Nodes(ns) => {
                    ns.iter().map(|&n| store.string_value(n)).collect::<Vec<_>>().join(" ")
                }
                QueryOutput::Num(n) => n.to_string(),
                other => panic!("`{q}`: {other:?}"),
            };
            assert_eq!(got, want, "`{q}`:\n{plan}");
        }
    }
}

#[test]
fn explain_names_a_set_step_iff_analyze_ran_one() {
    let arena = doc();
    let plain = NoIndex(&arena);
    let mut queries: Vec<String> = Vec::new();
    for axis in PPD_AXES {
        for ctx in CONTEXTS {
            queries.push(format!("{ctx}/{axis}::*"));
        }
    }
    queries.extend(EDGES.iter().map(|(q, _)| q.to_string()));
    // Shapes that must not fuse: a positional predicate reads the step's
    // context, the step sits in a nested plan, or the axis cannot repeat
    // a node.
    let unfused = [
        "/r/x/y/ancestor::*[1]",
        "/r/x/y[count(following::*) > 1]",
        "count(/r/x/y/ancestor::*)",
        "/r/x/child::y",
    ];
    queries.extend(unfused.iter().map(|q| q.to_string()));
    for q in &queries {
        for opts in presets() {
            let stores: [&dyn XmlStore; 2] = [&arena, &plain];
            for store in stores {
                let (explained, ran) = fused_sites(store, q, &opts);
                assert_eq!(explained, ran, "`{q}` under {opts:?}");
            }
        }
    }
    for q in unfused {
        assert_eq!(fused_sites(&arena, q, &TranslateOptions::improved()), (0, 0), "`{q}`");
    }
    let sites = fused_sites(&arena, "//y/ancestor::*/following::*", &TranslateOptions::improved());
    assert_eq!(sites, (3, 3), "descendant-or-self, ancestor and following all fuse");
}

#[test]
fn injected_faults_are_typed_and_leak_nothing() {
    let arena = doc();
    let plain = NoIndex(&arena);
    let stores: [&dyn XmlStore; 2] = [&arena, &plain];
    for q in [
        "//y/ancestor::*/following::node()",
        "(//x | //@*)/descendant-or-self::node()",
    ] {
        for store in stores {
            let opts = TranslateOptions::improved();
            let oracle = nqe::evaluate(store, q, &opts).expect("ungoverned oracle");
            let compiled = compiler::compile(q, &opts).expect("compiles");
            let (mut trips, mut cancels) = (0, 0);
            for n in 1..=60u64 {
                for failpoint in [
                    FailPoint { fail_at_alloc: Some(n), ..FailPoint::none() },
                    FailPoint { cancel_at_tick: Some(n), ..FailPoint::none() },
                ] {
                    let mut phys = nqe::build_physical(&compiled);
                    let limits = ResourceLimits::unlimited().with_tick_interval(1);
                    let gov = ResourceGovernor::with_failpoint(limits, failpoint);
                    let out = phys.execute_governed(store, &HashMap::new(), store.root(), &gov);
                    assert_eq!(gov.transient_bytes(), 0, "`{q}` leaked at {failpoint:?}");
                    match out {
                        Ok(got) => assert_eq!(got, oracle, "`{q}` at {failpoint:?}"),
                        Err(QueryError::MemoryExceeded { .. }) => trips += 1,
                        Err(QueryError::Cancelled) => cancels += 1,
                        Err(e) => panic!("`{q}` at {failpoint:?}: untyped trip {e}"),
                    }
                }
            }
            assert!(trips > 0 && cancels > 0, "`{q}`: the sweep must hit both channels");
        }
    }
}

#[test]
fn unranked_contexts_on_an_indexed_store_take_the_hash_path() {
    // A removed subtree keeps its node ids but leaves the index: a query
    // run from one of its nodes hands the set steps contexts the index
    // cannot rank.
    let mut arena = doc();
    let x = arena.first_child(arena.first_child(arena.root()).unwrap()).unwrap();
    let y = arena.first_child(x).unwrap();
    arena.remove_subtree(x).expect("removes");
    assert!(arena.structural_index().unwrap().rank_of(y).is_none());
    for axis in PPD_AXES {
        for q in [
            format!("{axis}::node()/{axis}::node()"),
            format!("self::node()/{axis}::*"),
        ] {
            let want = Interpreter::new(&arena, InterpOptions::context_list())
                .evaluate(&q, y)
                .unwrap_or_else(|e| panic!("interpreter `{q}`: {e}"));
            for opts in presets() {
                let got = nqe::evaluate_with(&arena, &q, &opts, y, &HashMap::new())
                    .unwrap_or_else(|e| panic!("`{q}`: {e}"));
                assert_eq!(got, want, "`{q}` under {opts:?}");
            }
        }
    }
    let (_, report) = nqe::explain_analyze(
        &arena,
        "ancestor-or-self::node()/descendant::node()",
        &TranslateOptions::improved(),
        y,
        &HashMap::new(),
    )
    .expect("compiles");
    // Both set steps hash: one GroupKey per context and per reached node,
    // where a rank set over this index would be a single 8-byte word.
    let key = nqe::group_key_bytes(&nqe::iter::GroupKey::Null);
    let steps: Vec<_> =
        report.profile.entries.iter().filter(|e| e.label.starts_with("Υ^D[")).collect();
    assert_eq!(steps.len(), 2, "{}", report.text());
    for e in steps {
        let stats = e.stats.lock();
        let charged = stats.gauges.iter().find(|(k, _)| *k == "mem_charged").unwrap().1;
        assert!(charged >= 2 * key && charged % key == 0, "{}: {charged} B", e.label);
    }
}

// ---------- random trees × random ppd chains ------------------------------

#[derive(Clone, Debug)]
struct Tree {
    name: usize,
    attr: bool,
    text: bool,
    children: Vec<Tree>,
}

const NAMES: [&str; 3] = ["a", "b", "c"];

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = (0..NAMES.len(), 0..2u32, 0..2u32).prop_map(|(name, attr, text)| Tree {
        name,
        attr: attr == 1,
        text: text == 1,
        children: vec![],
    });
    leaf.prop_recursive(4, 40, 4, |inner| {
        (0..NAMES.len(), 0..2u32, proptest::collection::vec(inner, 0..4)).prop_map(
            |(name, attr, children)| Tree { name, attr: attr == 1, text: false, children },
        )
    })
}

fn build(t: &Tree, b: &mut ArenaBuilder) {
    b.start_element(NAMES[t.name]);
    if t.attr {
        b.attribute("id", NAMES[t.name]);
    }
    if t.text {
        b.text("t");
    }
    for c in &t.children {
        build(c, b);
    }
    b.end_element();
}

fn make_store(t: &Tree) -> ArenaStore {
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    build(t, &mut b);
    b.end_element();
    b.finish()
}

fn chain_strategy() -> impl Strategy<Value = String> {
    let step = (0..PPD_AXES.len(), 0..5usize).prop_map(|(axis, test)| {
        let test = ["node()", "*", "a", "b", "text()"][test];
        format!("{}::{test}", PPD_AXES[axis])
    });
    let start = (0..4usize).prop_map(|i| ["/", "//a", "//@id", "//text()"][i].to_owned());
    (start, proptest::collection::vec(step, 2..5)).prop_map(|(start, steps)| {
        let sep = if start == "/" { "" } else { "/" };
        format!("{start}{sep}{}", steps.join("/"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_ppd_chains_agree_with_both_interpreters(
        t in tree_strategy(),
        q in chain_strategy(),
    ) {
        let arena = make_store(&t);
        let plain = NoIndex(&arena);
        let stores: [&dyn XmlStore; 2] = [&arena, &plain];
        for store in stores {
            let reference = Interpreter::new(store, InterpOptions::context_list())
                .evaluate(&q, store.root())
                .expect("interpreter");
            let naive = Interpreter::new(store, InterpOptions::naive())
                .evaluate(&q, store.root())
                .expect("naive interpreter");
            prop_assert_eq!(&reference, &naive, "interpreters: {}", q);
            for opts in presets() {
                let got = nqe::evaluate(store, &q, &opts).expect("evaluates");
                prop_assert_eq!(&got, &reference, "{} under {:?}", q, opts);
            }
        }
    }
}
