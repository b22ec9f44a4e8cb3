//! The fused step kernel (DESIGN.md §20): `[name]`, `[name = 'lit']`,
//! `[name != 'lit']` and `count(name)` over the child or attribute axis
//! run as one axis walk instead of a nested iterator plan. Every edge
//! case of the borrowed string-value compare is checked against both
//! interpreters on the arena and on the disk store; shapes that must not
//! fuse are pinned through EXPLAIN; and the kernel's walk honours the
//! governor (cancellation, deadline) and the storage layer's faults.

use std::collections::HashMap;
use std::time::Duration;

use compiler::{CompiledQuery, ResourceLimits, TranslateOptions};
use interp::{InterpOptions, Interpreter};
use natix::{QueryError, QueryOutput};
use nqe::{FailPoint, ResourceGovernor};
use xmlstore::diskstore::DiskStore;
use xmlstore::gen::{generate_dblp, DblpParams};
use xmlstore::tmp::TempPath;
use xmlstore::{parse_document, ArenaBuilder, ArenaStore, IoFailPoint, XmlStore};

/// Books whose `author` string-values exercise the borrowed compare:
/// plain text, text split by a PI, text continued in a nested element,
/// an empty author, comments and PIs between children, a prefixed name,
/// an attribute-only record, and values that are a prefix / an extension
/// of the literal.
const LIB: &str = r#"<lib xmlns:p="urn:p">
<book id="1"><author>Ann</author><title>T1</title></book>
<book id="2"><author>A<?pi x?>nn</author></book>
<book id="3"><author>An<i>n</i></author></book>
<book id="4"><author/><author>Bob</author></book>
<book id="5"><!--note--><?pi y?><author>Ann</author><!--tail--></book>
<book id="6"><p:author>Ann</p:author></book>
<book id="7" key="k7"/>
<book id="8"><author>Annie</author></book>
<book id="9"><author>An</author></book>
<book id="10"><author>A<b>n</b>n<!--x-->n</author></book>
</lib>"#;

/// Queries that must run as a fused kernel, with the ids they select.
const FUSED: &[(&str, &str)] = &[
    ("/lib/book[author = 'Ann']/@id", "1 2 3 5"),
    ("/lib/book['Ann' = author]/@id", "1 2 3 5"),
    ("/lib/book[author = '']/@id", "4"),
    ("/lib/book[@key = 'k7']/@id", "7"),
    ("/lib/book[@key]/@id", "7"),
    ("/lib/book[@id = '3']/@id", "3"),
    ("/lib/book[editor = 'Ann']/@id", ""),
    ("/lib/book[editor]/@id", ""),
    ("/lib/book[@editor = 'x']/@id", ""),
    ("/lib/book[author != 'Ann']/@id", "4 8 9 10"),
    ("/lib/book[not(author = 'Ann')]/@id", "4 6 7 8 9 10"),
    ("/lib/book[p:author = 'Ann']/@id", "6"),
    ("/lib/book[count(author) = 2]/@id", "4"),
    ("/lib/book[count(author) = 0]/@id", "6 7"),
    ("/lib/book[author = 'Annn']/@id", "10"),
];

/// Shapes that must keep the general nested-plan path.
const GENERAL: &[&str] = &[
    // Descendant axis.
    "/lib/book[descendant::author = 'Ann']/@id",
    // A positional predicate on the inner step.
    "/lib/book[author[2] = 'Bob']/@id",
    // A numeric compare.
    "/lib/book[@id = 3]/@id",
    // A wildcard step.
    "/lib/book[* = 'Ann']/@id",
];

fn lib() -> ArenaStore {
    parse_document(LIB).expect("fixture parses")
}

fn disk(arena: &ArenaStore) -> (DiskStore, TempPath) {
    let path = TempPath::new(".natix");
    let store = DiskStore::create_from(arena, path.path(), 4).expect("disk store");
    (store, path)
}

fn explain(q: &str, opts: &TranslateOptions) -> String {
    match compiler::compile(q, opts).unwrap_or_else(|e| panic!("compile `{q}`: {e}")) {
        CompiledQuery::Sequence(plan) => algebra::explain(&plan),
        CompiledQuery::Scalar(s) => panic!("`{q}` is scalar: {s}"),
    }
}

/// The `id` attribute values of a node-set answer, space-separated.
fn ids(store: &dyn XmlStore, out: &QueryOutput) -> String {
    let nodes = out.as_nodes().expect("node-set answer");
    nodes.iter().map(|&n| store.string_value(n)).collect::<Vec<_>>().join(" ")
}

/// Both algebraic translations against both interpreters.
fn check_all_engines(store: &dyn XmlStore, q: &str) -> QueryOutput {
    let improved = nqe::evaluate(store, q, &TranslateOptions::improved())
        .unwrap_or_else(|e| panic!("improved `{q}`: {e}"));
    let canonical = nqe::evaluate(store, q, &TranslateOptions::canonical())
        .unwrap_or_else(|e| panic!("canonical `{q}`: {e}"));
    assert_eq!(improved, canonical, "improved vs canonical on `{q}`");
    for opts in [InterpOptions::context_list(), InterpOptions::naive()] {
        let reference = Interpreter::new(store, opts)
            .evaluate(q, store.root())
            .unwrap_or_else(|e| panic!("interpreter `{q}`: {e}"));
        assert_eq!(improved, reference, "algebraic vs interpreter on `{q}`");
    }
    improved
}

#[test]
fn fused_shapes_agree_with_both_interpreters_on_arena_and_disk() {
    let arena = lib();
    let (paged, _path) = disk(&arena);
    for &(q, want) in FUSED {
        for opts in [TranslateOptions::improved(), TranslateOptions::canonical()] {
            let plan = explain(q, &opts);
            assert!(plan.contains("𝔄Υ["), "`{q}` must fuse:\n{plan}");
        }
        let stores: [&dyn XmlStore; 2] = [&arena, &paged];
        for store in stores {
            let out = check_all_engines(store, q);
            assert_eq!(ids(store, &out), want, "`{q}`");
        }
    }
}

#[test]
fn scalar_queries_fuse_inside_their_aggregates() {
    let arena = lib();
    let (paged, _path) = disk(&arena);
    let stores: [&dyn XmlStore; 2] = [&arena, &paged];
    for store in stores {
        for (q, want) in [
            ("count(/lib/book[author = 'Ann'])", 4.0),
            ("count(/lib/book[author != ''])", 8.0),
            ("count(/lib/book[@key])", 1.0),
        ] {
            assert_eq!(check_all_engines(store, q), QueryOutput::Num(want), "`{q}`");
        }
    }
}

#[test]
fn non_fusing_shapes_keep_the_general_path() {
    let arena = lib();
    let (paged, _path) = disk(&arena);
    for q in GENERAL {
        let plan = explain(q, &TranslateOptions::improved());
        assert!(!plan.contains("𝔄Υ["), "`{q}` must not fuse:\n{plan}");
        assert!(plan.contains("(nested)") && plan.contains("<>"), "`{q}`:\n{plan}");
        let stores: [&dyn XmlStore; 2] = [&arena, &paged];
        for store in stores {
            check_all_engines(store, q);
        }
    }
}

#[test]
fn analyze_prints_one_kernel_row_with_gauges_and_no_memo() {
    let arena = lib();
    let (out, report) = nqe::explain_analyze(
        &arena,
        "/lib/book[author = 'Ann']/@id",
        &TranslateOptions::improved(),
        arena.root(),
        &HashMap::new(),
    )
    .unwrap();
    assert_eq!(ids(&arena, &out), "1 2 3 5");
    let text = report.text();
    assert!(!text.contains("χ^mat"), "{text}");
    assert!(!text.contains("<>"), "nested operators that never ran are not shown:\n{text}");
    let kernel = report
        .profile
        .entries
        .iter()
        .find(|e| e.label.starts_with("𝔄Υ[Exists; "))
        .unwrap_or_else(|| panic!("no kernel row:\n{text}"));
    let stats = kernel.stats.lock();
    // One evaluation per book; a hit per matching book.
    assert_eq!(stats.opens, 10);
    assert_eq!(stats.tuples, 4);
    let gauge = |name: &str| stats.gauges.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
    assert_eq!(gauge("hits"), Some(4));
    // Nine `author` children in all, each reached: the walks that hit
    // stop at their author, so book 1's title is never visited, while
    // book 5's comment and PI are (3 nodes) and book 4's walk runs to
    // its end (2). Hand count: 1+1+1+2+3+1+0+1+1+1 = 12 nodes.
    assert_eq!(gauge("name_matches"), Some(9));
    assert_eq!(gauge("visited"), Some(12), "{:?}", stats.gauges);
}

#[test]
fn fig10_worst_row_runs_one_kernel_without_a_memo() {
    let store = generate_dblp(DblpParams { records: 2000, seed: 11 });
    let q = "/dblp/*[author='Guido Moerkotte']/@key";
    let want = check_all_engines(&store, q);
    let (out, report) = nqe::explain_analyze(
        &store,
        q,
        &TranslateOptions::improved(),
        store.root(),
        &HashMap::new(),
    )
    .unwrap();
    assert_eq!(out, want);
    let text = report.text();
    assert!(!text.contains("χ^mat") && !text.contains("<>"), "{text}");
    let kernels: Vec<_> =
        report.profile.entries.iter().filter(|e| e.label.starts_with("𝔄Υ[")).collect();
    assert_eq!(kernels.len(), 1, "{text}");
    // One evaluation per record, one hit per selected record.
    let stats = kernels[0].stats.lock();
    assert_eq!(stats.opens, 2000);
    assert_eq!(stats.tuples, want.as_nodes().unwrap().len() as u64);
    // The χ^mat this plan used to carry charged 48 bytes per record
    // (96 000 B here) for zero hits; what is left is the result's
    // duplicate-elimination bitset and node list.
    assert!(report.resources.high_water_bytes < 16 * 1024, "{text}");
}

/// `contexts` `<a>` elements with `width` non-matching children each,
/// then one `<b/>` outside them (so the name test resolves and every
/// kernel evaluation walks all `width` children).
fn wide(contexts: usize, width: usize) -> ArenaStore {
    let mut b = ArenaBuilder::new();
    b.start_element("r");
    for _ in 0..contexts {
        b.start_element("a");
        for _ in 0..width {
            b.start_element("x");
            b.end_element();
        }
        b.end_element();
    }
    b.start_element("b");
    b.end_element();
    b.end_element();
    b.finish()
}

fn kernel_visited(profile: &nqe::Profile) -> u64 {
    let entry = profile.entries.iter().find(|e| e.label.starts_with("𝔄Υ[")).expect("kernel row");
    let stats = entry.stats.lock();
    stats.gauges.iter().find(|(k, _)| *k == "visited").map_or(0, |(_, v)| *v)
}

#[test]
fn cancellation_inside_the_kernel_is_typed_and_leaks_nothing() {
    let store = wide(1, 500);
    let q = "/r/a[b = 'z']";
    let compiled = compiler::compile(q, &TranslateOptions::improved()).unwrap();
    let (mut phys, profile) = nqe::build_physical_profiled(&compiled);
    let gov = ResourceGovernor::with_failpoint(
        ResourceLimits::unlimited().with_tick_interval(1),
        FailPoint { cancel_at_tick: Some(100), ..FailPoint::none() },
    );
    let out = phys.execute_governed(&store, &HashMap::new(), store.root(), &gov);
    assert!(matches!(out, Err(QueryError::Cancelled)), "{out:?}");
    assert_eq!(gov.transient_bytes(), 0);
    // The token went up mid-walk: the kernel stopped well before the end.
    let visited = kernel_visited(&profile);
    assert!((90..=110).contains(&visited), "kernel visited {visited} of 500 children");
}

#[test]
fn deadline_inside_the_kernel_is_typed_and_leaks_nothing() {
    // 400 contexts × 500 children: the walk dominates the run, so the
    // deadline (checked at every tick) expires inside the kernel.
    let store = wide(400, 500);
    let compiled = compiler::compile("/r/a[b = 'z']", &TranslateOptions::improved()).unwrap();
    let (mut phys, profile) = nqe::build_physical_profiled(&compiled);
    let limits = ResourceLimits::unlimited()
        .with_timeout(Duration::from_millis(1))
        .with_tick_interval(1);
    let gov = ResourceGovernor::new(limits);
    let out = phys.execute_governed(&store, &HashMap::new(), store.root(), &gov);
    assert!(matches!(out, Err(QueryError::DeadlineExceeded { .. })), "{out:?}");
    assert_eq!(gov.transient_bytes(), 0);
    let visited = kernel_visited(&profile);
    assert!(visited > 0 && visited < 400 * 500, "kernel visited {visited}");
}

#[test]
fn io_fault_during_a_kernel_walk_is_a_storage_error() {
    // Many records with a value child each; one buffer frame, so every
    // hop of the walk pins a page.
    let mut arena = parse_document("<log></log>").unwrap();
    let root = arena.first_child(arena.root()).unwrap();
    for i in 0..300 {
        let e = arena.append_element(root, "entry").unwrap();
        let t = arena.append_element(e, "text").unwrap();
        arena.append_text(t, &format!("message {i}")).unwrap();
    }
    let path = TempPath::new(".natix");
    xmlstore::diskstore::create_store_file(&arena, path.path()).unwrap();
    let q = "count(/log/entry[text = 'message 250'])";
    let probe = DiskStore::open(path.path(), 1).unwrap();
    let s = probe.buffer_stats();
    let open_pins = s.hits + s.misses;
    assert_eq!(
        nqe::evaluate(&probe, q, &TranslateOptions::improved()).unwrap(),
        QueryOutput::Num(1.0)
    );
    let s = probe.buffer_stats();
    let total_pins = s.hits + s.misses;
    drop(probe);
    let mut storage_errors = 0;
    let picks: Vec<u64> = (open_pins + 1..=total_pins).collect();
    for &n in picks.iter().step_by((picks.len() / 25).max(1)) {
        let store = DiskStore::open_with(
            path.path(),
            1,
            IoFailPoint { fail_pin_at: Some(n), ..IoFailPoint::none() },
        )
        .unwrap();
        let (out, report) = nqe::explain_analyze_governed(
            &store,
            q,
            &TranslateOptions::improved(),
            &ResourceLimits::unlimited(),
            store.root(),
            &HashMap::new(),
        )
        .unwrap();
        assert!(report.text().contains("𝔄Υ["), "the walk runs in the kernel");
        match out {
            Err(QueryError::Storage { io, ref detail }) => {
                assert!(io, "an injected read error is an I/O fault: {detail}");
                storage_errors += 1;
            }
            Ok(got) => assert_eq!(got, QueryOutput::Num(1.0), "pin {n}: wrong answer"),
            Err(e) => panic!("pin {n}: unexpected error class {e}"),
        }
        assert_eq!(report.resources.transient_bytes, 0, "pin {n} leaked charges");
    }
    assert!(storage_errors > 0, "some injected pin failure must surface");
}

#[test]
fn borrowed_compare_matches_the_built_string_value() {
    let arena = lib();
    let (paged, _path) = disk(&arena);
    let plain = xmlstore::NoIndex(&arena);
    let stores: [&dyn XmlStore; 3] = [&arena, &paged, &plain];
    for store in stores {
        for i in 0..store.node_count() as u32 {
            let n = xmlstore::NodeId(i);
            let value = store.string_value(n);
            assert!(store.string_value_eq(n, &value), "node {i}: {value:?}");
            for other in ["", "Ann", "An", "Annie", "Annn", "k7"] {
                assert_eq!(
                    store.string_value_eq(n, other),
                    value == other,
                    "node {i} vs {other:?}"
                );
            }
        }
    }
}
