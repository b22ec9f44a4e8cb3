//! Experiment E5 — paper Fig. 10: the 13 DBLP queries, interpreter
//! (≙ Xalan) vs algebraic engine (≙ Natix). Prints the same table rows as
//! the paper: `path, xalan_ms, natix_ms, result_cardinality`, plus the
//! engine/interpreter ratio per row.
//!
//! ```sh
//! cargo run --release -p bench --bin fig10 \
//!     [--records N] [--runs N] [--seed N] [--json PATH] [--update-baseline]
//! ```
//!
//! `--update-baseline` pins the B12 gate configuration and its measured
//! quantities in `results/BENCH_12_baseline.json`: the geometric-mean
//! engine/interpreter ratio over the predicate rows r08–r13 and the r11
//! ratio, at [`GATE_RECORDS`] records. `bench/bin/regress --check`
//! re-measures them and requires both to stay ≤ 1.0.

use bench::{
    arg_seed, arg_value, dblp_document_seeded, fig10_gate, fig10_times, host_json, ms, ms_f,
    profile_report, write_results_json, Evaluator, FIG10_QUERIES,
};
use nqe::Json;

/// The committed gate baseline (see `bench/bin/regress`).
const BASELINE: &str = "results/BENCH_12_baseline.json";

/// Document size the gate is measured at: large enough that every row
/// runs for milliseconds, small enough for a CI step.
const GATE_RECORDS: usize = 20_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: usize| -> usize {
        arg_value(&args, flag).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let records = get("--records", 50_000);
    let runs = get("--runs", 3);
    let seed = arg_seed(&args);
    let json_path = arg_value(&args, "--json");
    let update = args.iter().any(|a| a == "--update-baseline");

    eprintln!("generating synthetic DBLP with {records} records…");
    let doc = dblp_document_seeded(records, seed);

    println!("# Paper Fig. 10: queries against (synthetic) DBLP, times in ms");
    println!("# {records} records, {runs} runs per cell (median)");
    println!(
        "{:<75} {:>12} {:>12} {:>8} {:>8}",
        "path", "interp(Xalan)", "natix", "ratio", "|result|"
    );
    let times = fig10_times(&doc, runs);
    let ratios: Vec<f64> = times.iter().map(|(i, n)| n.as_secs_f64() / i.as_secs_f64()).collect();
    let mut results = Vec::new();
    for ((q, (interp, natix)), ratio) in FIG10_QUERIES.iter().zip(&times).zip(&ratios) {
        let out = Evaluator::NatixImproved.run(&doc, q);
        let cardinality = out.as_nodes().map(|n| n.len()).unwrap_or(0);
        println!("{q:<75} {:>12} {:>12} {ratio:>8.2} {cardinality:>8}", ms(*interp), ms(*natix));
        if json_path.is_some() {
            results.push(Json::obj(vec![
                ("query", Json::Str((*q).to_owned())),
                ("records", Json::Num(records as f64)),
                ("interp_ms", Json::Num(ms_f(*interp))),
                ("natix_ms", Json::Num(ms_f(*natix))),
                ("ratio", Json::Num(*ratio)),
                ("cardinality", Json::Num(cardinality as f64)),
                (
                    "profile",
                    profile_report(Evaluator::NatixImproved, &doc, q).unwrap_or(Json::Null),
                ),
            ]));
        }
    }
    let (geomean, r11) = fig10_gate(&ratios);
    println!(
        "# engine/interpreter: r08–r13 geomean {geomean:.2}, r11 {r11:.2} (B12 gate: both ≤ 1.00)"
    );
    if let Some(path) = json_path {
        write_results_json(&path, "fig10", seed, results);
    }
    if update {
        let (geomean, r11) = if records == GATE_RECORDS {
            (geomean, r11)
        } else {
            eprintln!("measuring gate quantities at {GATE_RECORDS} records…");
            let gate_doc = dblp_document_seeded(GATE_RECORDS, seed);
            let ratios: Vec<f64> = fig10_times(&gate_doc, runs)
                .iter()
                .map(|(i, n)| n.as_secs_f64() / i.as_secs_f64())
                .collect();
            fig10_gate(&ratios)
        };
        let base = Json::obj(vec![
            ("bench", Json::Str("fig10".to_owned())),
            ("host", host_json(seed)),
            ("gate_records", Json::Num(GATE_RECORDS as f64)),
            ("gate_runs", Json::Num(runs as f64)),
            ("gate_geomean_ratio", Json::Num(geomean)),
            ("gate_r11_ratio", Json::Num(r11)),
        ]);
        match std::fs::write(BASELINE, base.pretty()) {
            Ok(()) => {
                eprintln!("baseline updated: {BASELINE} (geomean {geomean:.2}, r11 {r11:.2})")
            }
            Err(e) => {
                eprintln!("error: {BASELINE}: {e}");
                std::process::exit(2);
            }
        }
    }
}
