//! Experiments E1–E4 — paper Figs. 6–9: execution time of the four Fig. 5
//! queries over generated documents of growing size, for the algebraic
//! engine (Natix) and the main-memory interpreters (xsltproc/Xalan stand-
//! ins). Prints one series block per query, CSV-ish rows:
//!
//! `query, elements, natix_ms, interp_ms, naive_ms`
//!
//! With `--json <path>` the harness additionally writes a results file
//! carrying, per measured point, the timings and a per-operator
//! EXPLAIN ANALYZE profile of the algebraic run.
//!
//! ```sh
//! cargo run --release -p bench --bin fig6_9 [--runs N] [--max-elems N] [--skip-naive] \
//!     [--json out.json] [--update-baseline]
//! ```
//!
//! `--update-baseline` pins the B15 gate configuration and its measured
//! quantities in `results/BENCH_15_baseline.json`: the engine/interpreter
//! ratio of q1–q4, measured in one process with the two evaluators
//! alternating (q1, q3 and q4 at [`GATE_ELEMENTS`] elements, q2 at
//! [`GATE_Q2_ELEMENTS`]). `bench/bin/regress --check` re-measures them and
//! requires the q1–q4 geometric mean and each of q1–q3 to stay ≤ 1.0.

use bench::{
    arg_value, fig5_gate, fig5_times, host_json, ms, ms_f, profile_report, time_query,
    tree_document, write_results_json, Evaluator, FIG5_QUERIES, LARGE_SIZES, SMALL_SIZES,
};
use nqe::Json;

/// The committed gate baseline (see `bench/bin/regress`).
const BASELINE: &str = "results/BENCH_15_baseline.json";

/// Document size the gate measures q1, q3 and q4 at.
const GATE_ELEMENTS: usize = 20_000;

/// Document size the gate measures q2 at: `following` from every
/// preceding sibling is quadratic for the interpreter.
const GATE_Q2_ELEMENTS: usize = 2_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let runs = get("--runs", 3);
    let max_elems = get("--max-elems", 80_000);
    // q2 (preceding-sibling/following) is quadratic-ish for every engine;
    // cap its sweep separately so the full harness stays tractable.
    let heavy_cap = get("--heavy-cap", 20_000);
    let skip_naive = args.iter().any(|a| a == "--skip-naive");
    let json_path = arg_value(&args, "--json");
    let mut results: Vec<Json> = Vec::new();

    let sizes: Vec<usize> = SMALL_SIZES
        .iter()
        .chain(LARGE_SIZES.iter())
        .copied()
        .filter(|&s| s <= max_elems)
        .collect();

    println!("# Paper Figs. 6-9: Fig. 5 queries over generated documents");
    println!("# runs per point: {runs} (median); times in ms; compile+execute, parse excluded");
    let docs: Vec<_> = sizes
        .iter()
        .map(|&s| {
            eprintln!("generating document with {s} elements…");
            (s, tree_document(s))
        })
        .collect();

    for (name, query) in FIG5_QUERIES {
        println!("\n## figure for {name}: {query}");
        println!("query,elements,natix_ms,interp_ms,naive_ms");
        let cap = if name == "q2" { heavy_cap } else { usize::MAX };
        for (s, doc) in docs.iter().filter(|(s, _)| *s <= cap) {
            let natix = time_query(Evaluator::NatixImproved, doc, query, runs);
            let interp = time_query(Evaluator::ContextList, doc, query, runs);
            // The naive evaluator blows up on these queries exactly like
            // the paper's weakest baselines: keep it to small documents.
            let naive = if !skip_naive && *s <= 4000 {
                ms(time_query(Evaluator::Naive, doc, query, 1))
            } else {
                "-".to_owned()
            };
            println!("{name},{s},{},{},{naive}", ms(natix), ms(interp));
            if json_path.is_some() {
                let profile =
                    profile_report(Evaluator::NatixImproved, doc, query).expect("profile");
                results.push(Json::obj(vec![
                    ("name", Json::Str(name.to_owned())),
                    ("query", Json::Str(query.to_owned())),
                    ("elements", Json::Num(*s as f64)),
                    ("natix_ms", Json::Num(ms_f(natix))),
                    ("interp_ms", Json::Num(ms_f(interp))),
                    ("profile", profile),
                ]));
            }
        }
    }
    if let Some(path) = json_path {
        write_results_json(&path, "fig6_9", bench::arg_seed(&args), results);
    }
    if args.iter().any(|a| a == "--update-baseline") {
        eprintln!("measuring gate quantities at {GATE_ELEMENTS} / {GATE_Q2_ELEMENTS} elements…");
        let ratios: Vec<f64> =
            fig5_times(&tree_document(GATE_ELEMENTS), &tree_document(GATE_Q2_ELEMENTS), runs)
                .iter()
                .map(|(i, n)| n.as_secs_f64() / i.as_secs_f64())
                .collect();
        let (geomean, worst) = fig5_gate(&ratios);
        let base = Json::obj(vec![
            ("bench", Json::Str("fig6_9".to_owned())),
            ("host", host_json(bench::arg_seed(&args))),
            ("gate_elements", Json::Num(GATE_ELEMENTS as f64)),
            ("gate_q2_elements", Json::Num(GATE_Q2_ELEMENTS as f64)),
            ("gate_runs", Json::Num(runs as f64)),
            ("gate_ratios", Json::Arr(ratios.iter().map(|&r| Json::Num(r)).collect())),
            ("gate_geomean_ratio", Json::Num(geomean)),
        ]);
        match std::fs::write(BASELINE, base.pretty()) {
            Ok(()) => eprintln!(
                "baseline updated: {BASELINE} (geomean {geomean:.2}, worst of q1–q3 {worst:.2})"
            ),
            Err(e) => {
                eprintln!("error: {BASELINE}: {e}");
                std::process::exit(2);
            }
        }
    }
}
