//! Differential tests: the four evaluators (improved/canonical algebraic,
//! context-list/naive interpreters) must produce identical results on a
//! broad query corpus over the paper's generated documents.

use compiler::{CostMode, TranslateOptions};
use interp::{InterpOptions, Interpreter};
use natix::QueryOutput;
use xmlstore::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
use xmlstore::{ArenaStore, XmlStore};

mod corpus;
use corpus::{DBLP_QUERIES, TREE_QUERIES};

fn run_all(store: &ArenaStore, queries: &[&str]) {
    for q in queries {
        let improved = nqe::evaluate(store, q, &TranslateOptions::improved())
            .unwrap_or_else(|e| panic!("improved `{q}`: {e}"));
        let canonical = nqe::evaluate(store, q, &TranslateOptions::canonical())
            .unwrap_or_else(|e| panic!("canonical `{q}`: {e}"));
        assert_eq!(improved, canonical, "improved vs canonical on `{q}`");
        let cl = Interpreter::new(store, InterpOptions::context_list())
            .evaluate(q, store.root())
            .unwrap_or_else(|e| panic!("interp `{q}`: {e}"));
        assert_eq!(improved, cl, "algebraic vs interpreter on `{q}`");
    }
}

#[test]
fn tree_documents_all_engines_agree() {
    for params in [
        TreeParams { max_elements: 40, fanout: 3, max_depth: 3 },
        TreeParams { max_elements: 200, fanout: 6, max_depth: 4 },
        TreeParams { max_elements: 500, fanout: 10, max_depth: 3 },
        // Degenerate shapes.
        TreeParams { max_elements: 30, fanout: 1, max_depth: 40 }, // a chain
        TreeParams { max_elements: 50, fanout: 49, max_depth: 1 }, // flat
    ] {
        let store = generate_tree(params);
        run_all(&store, TREE_QUERIES);
    }
}

/// Hiding the structural index behind `NoIndex` must not change a single
/// answer: the corpus runs once against the indexed arena and once
/// against the delegating wrapper (cursor axes, hash dedup, comparator
/// sort) and the outputs are compared byte for byte.
#[test]
fn indexed_and_unindexed_paths_agree_on_corpus() {
    let store = generate_tree(TreeParams { max_elements: 200, fanout: 6, max_depth: 4 });
    assert!(store.structural_index().is_some());
    let plain = xmlstore::NoIndex(&store);
    assert!(plain.structural_index().is_none(), "the wrapper hides the index");
    for q in TREE_QUERIES {
        for opts in [TranslateOptions::improved(), TranslateOptions::canonical()] {
            let fast =
                nqe::evaluate(&store, q, &opts).unwrap_or_else(|e| panic!("indexed `{q}`: {e}"));
            let slow =
                nqe::evaluate(&plain, q, &opts).unwrap_or_else(|e| panic!("unindexed `{q}`: {e}"));
            assert_eq!(fast, slow, "indexed vs NoIndex on `{q}`");
        }
    }
}

#[test]
fn naive_interpreter_agrees_on_small_documents() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    for q in TREE_QUERIES {
        let improved = nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap();
        let naive = Interpreter::new(&store, InterpOptions::naive())
            .evaluate(q, store.root())
            .unwrap_or_else(|e| panic!("naive `{q}`: {e}"));
        assert_eq!(improved, naive, "algebraic vs naive on `{q}`");
    }
}

#[test]
fn dblp_document_all_engines_agree() {
    let store = generate_dblp(DblpParams { records: 300, seed: 11 });
    run_all(&store, DBLP_QUERIES);
}

/// DESIGN.md §14: the parallel plan must be byte-identical to the serial
/// one — Exchange merges chunk results in source order and every body
/// operator is partition transparent, so no tolerance is granted.
#[test]
fn parallel_threads_agree_with_serial() {
    let tree = generate_tree(TreeParams { max_elements: 500, fanout: 10, max_depth: 3 });
    let dblp = generate_dblp(DblpParams { records: 300, seed: 11 });
    let corpora: [(&dyn XmlStore, &[&str]); 2] = [(&tree, TREE_QUERIES), (&dblp, DBLP_QUERIES)];
    for (store, queries) in corpora {
        for q in queries {
            let serial = nqe::evaluate(store, q, &TranslateOptions::improved())
                .unwrap_or_else(|e| panic!("serial `{q}`: {e}"));
            for threads in [2, 4, 8] {
                let opts = TranslateOptions::improved().with_threads(threads);
                let par = nqe::evaluate(store, q, &opts)
                    .unwrap_or_else(|e| panic!("threads={threads} `{q}`: {e}"));
                assert_eq!(par, serial, "threads={threads} on `{q}`");
            }
        }
    }
}

#[test]
fn ablation_combinations_agree() {
    // Every combination of the four §4 improvements — with and without
    // the cost-based optimizer on top — must preserve semantics; only
    // performance may change.
    let store = generate_tree(TreeParams { max_elements: 120, fanout: 4, max_depth: 3 });
    let reference: Vec<QueryOutput> = TREE_QUERIES
        .iter()
        .map(|q| nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap())
        .collect();
    for bits in 0..64u32 {
        let opts = TranslateOptions {
            stacked_outer: bits & 1 != 0,
            push_dedup: bits & 2 != 0,
            memoize_inner: bits & 4 != 0,
            split_expensive: bits & 8 != 0,
            prune_properties: bits & 16 != 0,
            optimize: if bits & 32 != 0 {
                CostMode::CostBased
            } else {
                CostMode::Off
            },
            threads: 1,
        };
        for (q, expect) in TREE_QUERIES.iter().zip(&reference) {
            let got =
                nqe::evaluate(&store, q, &opts).unwrap_or_else(|e| panic!("{opts:?} `{q}`: {e}"));
            assert_eq!(&got, expect, "{opts:?} on `{q}`");
        }
    }
}

#[test]
fn fig5_queries_known_cardinalities() {
    // On a generated document, query 1 and query 4 of Fig. 5 both select
    // id attributes of inner (non-root) elements; sanity-check the
    // cardinalities are stable and plausible.
    let store = generate_tree(TreeParams::small(200));
    let q1 = nqe::evaluate(
        &store,
        "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
        &TranslateOptions::improved(),
    )
    .unwrap();
    // Every element below the root is reachable: descendant/ancestor/
    // descendant covers all non-root elements.
    assert_eq!(q1.as_nodes().unwrap().len(), 199);
    let q4 = nqe::evaluate(
        &store,
        "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
        &TranslateOptions::improved(),
    )
    .unwrap();
    assert_eq!(q4.as_nodes().unwrap().len(), 199);
}

// ---------- numeric/string edge cases --------------------------------------

/// IEEE-754 and XPath §4 corner cases: NaN, signed zero, infinities in
/// string(), substring() with NaN/infinite/out-of-range positions, and
/// id() with duplicate tokens. These stress exactly the paths where the
/// four evaluators are most likely to drift apart.
const EDGE_QUERIES: &[&str] = &[
    // NaN construction and propagation.
    "number('abc')",
    "number('')",
    "0 div 0",
    "number('abc') + 1",
    "boolean(0 div 0)",
    "string(0 div 0)",
    // NaN comparisons: every comparison with NaN is false, so != is true.
    "0 div 0 = 0 div 0",
    "0 div 0 != 0 div 0",
    "0 div 0 < 1",
    "0 div 0 > 1",
    // Signed zero: -0 compares and prints as 0.
    "string(-0)",
    "-0 = 0",
    "string(0 - 0)",
    "string(round(-0.4))",
    "ceiling(-0.5) = 0",
    "1 div (0 - 0) = 1 div 0",
    // Infinities.
    "1 div 0",
    "-1 div 0",
    "string(1 div 0)",
    "string(-1 div 0)",
    "1 div 0 > 1000000",
    "-1 div 0 < 0",
    "round(1 div 0)",
    "floor(-1 div 0)",
    // substring() with NaN / infinite / fractional / out-of-range indices
    // (the spec's own example set, §4.2).
    "substring('12345', 2, 3)",
    "substring('12345', 1.5, 2.6)",
    "substring('12345', 0, 3)",
    "substring('12345', 0 div 0, 3)",
    "substring('12345', 1, 0 div 0)",
    "substring('12345', -42, 1 div 0)",
    "substring('12345', -1 div 0, 1 div 0)",
    "substring('12345', 7, 3)",
    "substring('12345', -2)",
    // id() with duplicate and unknown tokens.
    "id('3 3 7 7 3')/@id",
    "count(id('3 3 7 7 3'))",
    "count(id('99999 99999'))",
    "id('5') | id('5 5')",
];

/// QueryOutput comparison that treats NaN as equal to NaN (the derived
/// PartialEq follows IEEE semantics, under which a NaN-producing query
/// would never equal its own oracle).
fn outputs_agree(a: &QueryOutput, b: &QueryOutput) -> bool {
    match (a, b) {
        (QueryOutput::Num(x), QueryOutput::Num(y)) => (x.is_nan() && y.is_nan()) || x == y,
        _ => a == b,
    }
}

#[test]
fn edge_case_corpus_all_four_evaluators_agree() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    for q in EDGE_QUERIES {
        let improved = nqe::evaluate(&store, q, &TranslateOptions::improved())
            .unwrap_or_else(|e| panic!("improved `{q}`: {e}"));
        for (name, out) in [
            (
                "canonical",
                nqe::evaluate(&store, q, &TranslateOptions::canonical())
                    .unwrap_or_else(|e| panic!("canonical `{q}`: {e}")),
            ),
            (
                "extended",
                nqe::evaluate(&store, q, &TranslateOptions::extended())
                    .unwrap_or_else(|e| panic!("extended `{q}`: {e}")),
            ),
            (
                "context-list",
                Interpreter::new(&store, InterpOptions::context_list())
                    .evaluate(q, store.root())
                    .unwrap_or_else(|e| panic!("interp `{q}`: {e}")),
            ),
            (
                "naive",
                Interpreter::new(&store, InterpOptions::naive())
                    .evaluate(q, store.root())
                    .unwrap_or_else(|e| panic!("naive `{q}`: {e}")),
            ),
        ] {
            assert!(
                outputs_agree(&improved, &out),
                "improved vs {name} on `{q}`: {improved:?} vs {out:?}"
            );
        }
    }
}

// ---------- fault-injection sweep ------------------------------------------

/// Run one query with a fault injected at a precise governor event and
/// check the contract: the result is either the correct answer or a typed
/// error — never a panic, never a wrong answer, never leaked temp state.
fn run_injected(
    store: &ArenaStore,
    q: &str,
    opts: &TranslateOptions,
    fp: nqe::FailPoint,
) -> Result<QueryOutput, algebra::QueryError> {
    let compiled = compiler::compile(q, opts).expect("corpus queries compile");
    let mut phys = nqe::build_physical(&compiled);
    let gov = nqe::ResourceGovernor::with_failpoint(compiler::ResourceLimits::unlimited(), fp);
    let out = phys.execute_governed(store, &std::collections::HashMap::new(), store.root(), &gov);
    assert_eq!(gov.transient_bytes(), 0, "leaked transient charges on `{q}` ({fp:?})");
    out
}

/// Deterministic fault sweep: budget exhaustion at the Nth allocation and
/// cancellation at the Nth tick, over the whole tree corpus plus three
/// child-value predicates, for both the improved and the canonical plans.
#[test]
fn fault_injection_sweep_over_corpus() {
    let store = generate_tree(TreeParams { max_elements: 60, fanout: 3, max_depth: 3 });
    // Child-value predicates run in the fused step kernel (DESIGN.md §20).
    let kernel_queries = ["//*[b = '']/@id", "//*[c != 'x']/@id", "count(//*[a = ''])"];
    for q in TREE_QUERIES.iter().chain(&kernel_queries) {
        let oracle = nqe::evaluate(&store, q, &TranslateOptions::improved()).unwrap();
        for opts in [TranslateOptions::improved(), TranslateOptions::canonical()] {
            for alloc in [1u64, 2, 3, 5, 8, 13, 21, 50] {
                let fp = nqe::FailPoint { fail_at_alloc: Some(alloc), cancel_at_tick: None };
                match run_injected(&store, q, &opts, fp) {
                    Ok(out) => assert!(
                        outputs_agree(&out, &oracle),
                        "survived injection but wrong on `{q}`: {out:?} vs {oracle:?}"
                    ),
                    Err(e) => assert!(
                        matches!(e, algebra::QueryError::MemoryExceeded { .. }),
                        "alloc failpoint must surface as MemoryExceeded on `{q}`: {e:?}"
                    ),
                }
            }
            for tick in [1u64, 5, 25, 200] {
                let fp = nqe::FailPoint { fail_at_alloc: None, cancel_at_tick: Some(tick) };
                match run_injected(&store, q, &opts, fp) {
                    Ok(out) => assert!(
                        outputs_agree(&out, &oracle),
                        "survived injection but wrong on `{q}`: {out:?} vs {oracle:?}"
                    ),
                    Err(e) => assert!(
                        matches!(e, algebra::QueryError::Cancelled),
                        "tick failpoint must surface as Cancelled on `{q}`: {e:?}"
                    ),
                }
            }
        }
    }
}
