//! Experiment B6 — the perf-regression harness: replay the standard
//! workload set, summarise each workload's latency distribution with the
//! telemetry crate's log-linear histogram (p50/p90/p99/max), and diff
//! against a committed baseline with a tolerance gate.
//!
//! ```sh
//! cargo run --release -p bench --bin regress -- --json results/BENCH_6.json
//! cargo run --release -p bench --bin regress -- --check            # CI gate (B6–B10, B12, B15)
//! cargo run --release -p bench --bin regress -- --update-baseline  # re-pin
//! ```
//!
//! Machine-speed normalisation: absolute latencies are not comparable
//! across machines (or CI runners), so the gate compares *ratios*. The
//! `calibrate` workload (a fixed structural scan) measures the machine;
//! every other workload is gated on
//! `p50 / calibrate_p50 ≤ baseline_ratio × tolerance`. The default
//! tolerance (2.0×) absorbs CI noise while still catching the
//! order-of-magnitude blowups this harness exists for — tighten it with
//! `--tolerance` for local A/B runs.

use std::time::Instant;

use bench::{
    arg_seed, arg_value, dblp_document_seeded, host_json, tree_document, Evaluator, FIG10_QUERIES,
    FIG5_QUERIES, SERVICE_CORPUS,
};
use nqe::Json;
use telemetry::Histogram;
use xmlstore::ArenaStore;

/// Default baseline location (committed to the repo).
const BASELINE: &str = "results/BENCH_6_baseline.json";

/// The B7 throughput baseline carrying the warm-cache p50 gate (written
/// by `bench/bin/throughput --update-baseline`).
const B7_BASELINE: &str = "results/BENCH_7_baseline.json";

/// The B8 optimizer baseline carrying the cost-based-vs-improved gate
/// (written by `bench/bin/optimizer --update-baseline`).
const B8_BASELINE: &str = "results/BENCH_8_baseline.json";

/// The B9 updates baseline carrying the incremental-repair-vs-full-
/// renumber gate (written by `bench/bin/updates --update-baseline`).
const B9_BASELINE: &str = "results/BENCH_9_baseline.json";

/// Hard floor on the B9 speedup regardless of baseline drift: the
/// experiment plan requires incremental repair to beat the full
/// renumber by at least this much on the gate document.
const B9_FLOOR: f64 = 10.0;

/// The B10 disk-index baseline carrying the indexed-vs-plain DiskStore
/// gate (written by `bench/bin/diskindex --update-baseline`).
const B10_BASELINE: &str = "results/BENCH_10_baseline.json";

/// Hard floor on the B10 speedup regardless of baseline drift: the
/// experiment plan requires the persisted indexes to beat the plain
/// cursor path by at least this much on the gate document.
const B10_FLOOR: f64 = 1.2;

/// The B12 Fig. 10 baseline carrying the engine/interpreter gate
/// configuration (written by `bench/bin/fig10 --update-baseline`).
const B12_BASELINE: &str = "results/BENCH_12_baseline.json";

/// Ceiling on both B12 quantities: the engine must not trail the
/// context-list interpreter on the Fig. 10 predicate rows.
const B12_CEILING: f64 = 1.0;

/// The B15 Figs. 6–9 baseline carrying the engine/interpreter gate
/// configuration (written by `bench/bin/fig6_9 --update-baseline`).
const B15_BASELINE: &str = "results/BENCH_15_baseline.json";

/// Ceiling on the B15 quantities: the engine must not trail the
/// context-list interpreter on the Fig. 5 queries q1–q3, nor on the
/// q1–q4 geometric mean.
const B15_CEILING: f64 = 1.0;

/// Default headroom multiplier for the `--check` gate.
const TOLERANCE: f64 = 2.0;

/// Which of the standard documents a workload runs against.
#[derive(Clone, Copy)]
enum Doc {
    Tree2000,
    Tree4000,
    Dblp5000,
}

struct Workload {
    name: &'static str,
    doc: Doc,
    queries: Vec<&'static str>,
}

/// The standard workload set. `calibrate` must stay first and must stay
/// cheap and allocation-stable: it is the unit every other workload's
/// latency is normalised by.
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "calibrate",
            doc: Doc::Tree2000,
            queries: vec!["count(//*)"],
        },
        Workload {
            name: "tree_axes",
            doc: Doc::Tree4000,
            queries: vec![FIG5_QUERIES[0].1, FIG5_QUERIES[2].1, FIG5_QUERIES[3].1],
        },
        Workload {
            name: "dblp_paths",
            doc: Doc::Dblp5000,
            queries: vec![FIG10_QUERIES[0], FIG10_QUERIES[1], FIG10_QUERIES[6]],
        },
        Workload {
            name: "predicates",
            doc: Doc::Dblp5000,
            queries: vec![FIG10_QUERIES[3], FIG10_QUERIES[8], FIG10_QUERIES[12]],
        },
        Workload {
            name: "scalar",
            doc: Doc::Tree4000,
            queries: vec![
                "count(/xdoc/descendant::*) + count(//@id)",
                "string-length(string(/xdoc/*[1]))",
            ],
        },
    ]
}

struct Summary {
    name: &'static str,
    iterations: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    mean: f64,
}

fn measure(seed: u64, iterations: usize) -> Vec<Summary> {
    let tree2000 = tree_document(2000);
    let tree4000 = tree_document(4000);
    let dblp5000 = dblp_document_seeded(5000, seed);
    let store = |d: Doc| -> &ArenaStore {
        match d {
            Doc::Tree2000 => &tree2000,
            Doc::Tree4000 => &tree4000,
            Doc::Dblp5000 => &dblp5000,
        }
    };
    workloads()
        .iter()
        .map(|w| {
            let h = Histogram::new();
            let doc = store(w.doc);
            // One warmup iteration outside the histogram.
            for q in &w.queries {
                std::hint::black_box(Evaluator::NatixImproved.run(doc, q));
            }
            for _ in 0..iterations {
                let t0 = Instant::now();
                for q in &w.queries {
                    std::hint::black_box(Evaluator::NatixImproved.run(doc, q));
                }
                h.record_nanos(t0.elapsed());
            }
            let s = h.summary();
            eprintln!(
                "{:<12} p50 {:>9}ns  p99 {:>9}ns  max {:>9}ns  ({} iterations)",
                w.name, s.p50, s.p99, s.max, s.count
            );
            Summary {
                name: w.name,
                iterations: s.count,
                p50: s.p50,
                p90: s.p90,
                p99: s.p99,
                max: s.max,
                mean: s.mean,
            }
        })
        .collect()
}

fn results_json(seed: u64, summaries: &[Summary]) -> Json {
    Json::obj(vec![
        ("bench", Json::Str("regress".to_owned())),
        ("host", host_json(seed)),
        (
            "results",
            Json::Arr(
                summaries
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("workload", Json::Str(s.name.to_owned())),
                            ("iterations", Json::Num(s.iterations as f64)),
                            ("p50_nanos", Json::Num(s.p50 as f64)),
                            ("p90_nanos", Json::Num(s.p90 as f64)),
                            ("p99_nanos", Json::Num(s.p99 as f64)),
                            ("max_nanos", Json::Num(s.max as f64)),
                            ("mean_nanos", Json::Num(s.mean)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Warm-cache per-query latency p50 (nanos): [`SERVICE_CORPUS`] through
/// a pre-warmed shared-engine session, matching the `bench/bin/
/// throughput` measurement the B7 baseline pins.
fn warm_cache_p50(seed: u64, records: usize, reps: usize) -> u64 {
    let engine = natix::Engine::with_config(natix::EngineConfig::default(), None);
    let doc = engine
        .register_document("dblp", natix::Document::Arena(dblp_document_seeded(records, seed)));
    let session = engine.session();
    for q in SERVICE_CORPUS {
        std::hint::black_box(session.evaluate(doc.store(), q).expect("corpus query"));
    }
    let h = Histogram::new();
    for _ in 0..reps.max(1) {
        for q in SERVICE_CORPUS {
            let t0 = Instant::now();
            std::hint::black_box(session.evaluate(doc.store(), q).expect("corpus query"));
            h.record_nanos(t0.elapsed());
        }
    }
    h.summary().p50
}

/// `workload → p50_nanos` from a results document.
fn baseline_p50s(doc: &Json) -> Vec<(String, f64)> {
    doc.get("results")
        .and_then(Json::as_arr)
        .map(|rs| {
            rs.iter()
                .filter_map(|r| {
                    Some((r.get("workload")?.as_str()?.to_owned(), r.get("p50_nanos")?.as_num()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Read and parse a committed baseline; exit 2 (with `hint` on how to
/// create it) when it is missing or malformed.
fn read_baseline(path: &str, what: &str, hint: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: no {what} at {path}: {e}");
            eprintln!("hint: {hint}");
            std::process::exit(2);
        }
    };
    match Json::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_seed(&args);
    let check = args.iter().any(|a| a == "--check");
    let update = args.iter().any(|a| a == "--update-baseline");
    let quick = args.iter().any(|a| a == "--quick");
    let iterations = arg_value(&args, "--iterations")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 5 } else { 21 });
    let tolerance = arg_value(&args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(TOLERANCE);
    let baseline_path = arg_value(&args, "--baseline").unwrap_or_else(|| BASELINE.to_owned());

    eprintln!("replaying {} workloads × {iterations} iterations…", workloads().len());
    let summaries = measure(seed, iterations);
    let doc = results_json(seed, &summaries);

    if let Some(path) = arg_value(&args, "--json") {
        match std::fs::write(&path, doc.pretty()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if update {
        match std::fs::write(&baseline_path, doc.pretty()) {
            Ok(()) => eprintln!("baseline updated: {baseline_path}"),
            Err(e) => {
                eprintln!("error: {baseline_path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if !check {
        return;
    }

    let base =
        read_baseline(&baseline_path, "baseline", "run with --update-baseline to create one");
    let base_p50s = baseline_p50s(&base);
    let base_cal = base_p50s.iter().find(|(n, _)| n == "calibrate").map(|(_, v)| *v).unwrap_or(0.0);
    let cur_cal = summaries.iter().find(|s| s.name == "calibrate").map(|s| s.p50).unwrap_or(0);
    if base_cal <= 0.0 || cur_cal == 0 {
        eprintln!("error: calibrate workload missing from baseline or current run");
        std::process::exit(2);
    }

    println!(
        "# regress --check vs {baseline_path} (tolerance {tolerance:.2}×, \
         calibration-normalised)"
    );
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>8}",
        "workload", "base_norm_p50", "cur_norm_p50", "ratio", "verdict"
    );
    let mut failed = false;
    for s in summaries.iter().filter(|s| s.name != "calibrate") {
        let Some((_, base_p50)) = base_p50s.iter().find(|(n, _)| n == s.name) else {
            println!("{:<12} {:>14} {:>14} {:>8} {:>8}", s.name, "-", "-", "-", "NEW");
            continue;
        };
        let base_norm = base_p50 / base_cal;
        let cur_norm = s.p50 as f64 / cur_cal as f64;
        let ratio = cur_norm / base_norm;
        let ok = ratio <= tolerance;
        if !ok {
            failed = true;
        }
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>7.2}× {:>8}",
            s.name,
            base_norm,
            cur_norm,
            ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
    }
    // B7 warm-cache gate: the compiled-plan cache's warm per-query p50,
    // calibration-normalised against the committed throughput baseline.
    let b7_path = arg_value(&args, "--bench7-baseline").unwrap_or_else(|| B7_BASELINE.to_owned());
    let b7 =
        read_baseline(&b7_path, "B7 baseline", "run `throughput --update-baseline` to create one");
    let (Some(b7_warm), Some(b7_cal)) = (
        b7.get("warm_p50_nanos").and_then(Json::as_num),
        b7.get("calibrate_p50_nanos").and_then(Json::as_num),
    ) else {
        eprintln!("error: {b7_path} lacks warm_p50_nanos/calibrate_p50_nanos");
        std::process::exit(2);
    };
    if b7_cal <= 0.0 {
        eprintln!("error: {b7_path} has a zero calibrate p50");
        std::process::exit(2);
    }
    let records = b7.get("records").and_then(Json::as_num).unwrap_or(12.0) as usize;
    let cur_warm = warm_cache_p50(seed, records, iterations);
    let base_norm = b7_warm / b7_cal;
    let cur_norm = cur_warm as f64 / cur_cal as f64;
    let ratio = cur_norm / base_norm;
    let ok = ratio <= tolerance;
    if !ok {
        failed = true;
    }
    println!(
        "{:<12} {:>14.3} {:>14.3} {:>7.2}× {:>8}",
        "warm_cache",
        base_norm,
        cur_norm,
        ratio,
        if ok { "ok" } else { "REGRESSED" }
    );

    // B8 optimizer gate: the cost-based optimizer's warm-plan speedup
    // over the always-on improvements on the misprediction rows
    // (`OPTIMIZER_GATE_QUERIES`). Both sides of the speedup run in this
    // process, so the ratio is machine-normalised by construction; a
    // regression means the optimizer stopped (or mis-)re-planning.
    let b8_path = arg_value(&args, "--bench8-baseline").unwrap_or_else(|| B8_BASELINE.to_owned());
    let b8 =
        read_baseline(&b8_path, "B8 baseline", "run `optimizer --update-baseline` to create one");
    let (Some(b8_speedup), Some(b8_records)) = (
        b8.get("gate_speedup").and_then(Json::as_num),
        b8.get("gate_records").and_then(Json::as_num),
    ) else {
        eprintln!("error: {b8_path} lacks gate_speedup/gate_records");
        std::process::exit(2);
    };
    if b8_speedup <= 0.0 {
        eprintln!("error: {b8_path} has a non-positive gate speedup");
        std::process::exit(2);
    }
    let cur_speedup = bench::optimizer_gate_speedup(b8_records as usize, seed, iterations);
    let ratio = b8_speedup / cur_speedup;
    let ok = ratio <= tolerance;
    if !ok {
        failed = true;
    }
    println!(
        "{:<12} {:>13.3}× {:>13.3}× {:>7.2}× {:>8}",
        "optimizer",
        b8_speedup,
        cur_speedup,
        ratio,
        if ok { "ok" } else { "REGRESSED" }
    );

    // B9 updates gate: incremental index repair vs full renumber on a
    // small update batch. The baseline's headline number runs on 50k
    // records (seconds per renumber batch), so the gate replays the
    // committed `check_records` configuration instead; both sides of
    // the speedup run in this process, so the ratio is machine-
    // normalised by construction. A hard floor applies on top of the
    // drift tolerance: incremental repair must stay ≥ 10× faster.
    let b9_path = arg_value(&args, "--bench9-baseline").unwrap_or_else(|| B9_BASELINE.to_owned());
    let b9 =
        read_baseline(&b9_path, "B9 baseline", "run `updates --update-baseline` to create one");
    let (Some(b9_speedup), Some(b9_records), Some(b9_ops)) = (
        b9.get("check_speedup").and_then(Json::as_num),
        b9.get("check_records").and_then(Json::as_num),
        b9.get("gate_ops").and_then(Json::as_num),
    ) else {
        eprintln!("error: {b9_path} lacks check_speedup/check_records/gate_ops");
        std::process::exit(2);
    };
    if b9_speedup <= 0.0 {
        eprintln!("error: {b9_path} has a non-positive check speedup");
        std::process::exit(2);
    }
    let cur_speedup =
        bench::update_gate_speedup(b9_records as usize, seed, b9_ops as usize, iterations.min(7));
    let ratio = b9_speedup / cur_speedup;
    let ok = ratio <= tolerance && cur_speedup >= B9_FLOOR;
    if !ok {
        failed = true;
    }
    println!(
        "{:<12} {:>13.3}× {:>13.3}× {:>7.2}× {:>8}",
        "updates",
        b9_speedup,
        cur_speedup,
        ratio,
        if ok { "ok" } else { "REGRESSED" }
    );

    // B10 disk-index gate: the persisted structural + content indexes'
    // warm-plan speedup over the index-blind `open_plain` cursor path,
    // on the same page file. Both sides run in this process, so the
    // ratio is machine-normalised by construction; a hard floor applies
    // on top of the drift tolerance (the indexes must stay ≥ 1.2×).
    let b10_path =
        arg_value(&args, "--bench10-baseline").unwrap_or_else(|| B10_BASELINE.to_owned());
    let b10 =
        read_baseline(&b10_path, "B10 baseline", "run `diskindex --update-baseline` to create one");
    let (Some(b10_speedup), Some(b10_records), Some(b10_pages)) = (
        b10.get("gate_speedup").and_then(Json::as_num),
        b10.get("gate_records").and_then(Json::as_num),
        b10.get("buffer_pages").and_then(Json::as_num),
    ) else {
        eprintln!("error: {b10_path} lacks gate_speedup/gate_records/buffer_pages");
        std::process::exit(2);
    };
    if b10_speedup <= 0.0 {
        eprintln!("error: {b10_path} has a non-positive gate speedup");
        std::process::exit(2);
    }
    let cur_speedup = bench::disk_index_gate_speedup(
        b10_records as usize,
        seed,
        iterations.min(7),
        b10_pages as usize,
    );
    let ratio = b10_speedup / cur_speedup;
    let ok = ratio <= tolerance && cur_speedup >= B10_FLOOR;
    if !ok {
        failed = true;
    }
    println!(
        "{:<12} {:>13.3}× {:>13.3}× {:>7.2}× {:>8}",
        "disk_index",
        b10_speedup,
        cur_speedup,
        ratio,
        if ok { "ok" } else { "REGRESSED" }
    );

    // B12 Fig. 10 gate: the engine/interpreter time ratio on the
    // predicate rows r08–r13 (geometric mean) and on r11 alone. Both
    // evaluators run in this process, so the ratios are machine-
    // normalised by construction; the ceiling is absolute, not relative
    // to the baseline (which pins only the document size and runs).
    let b12_path =
        arg_value(&args, "--bench12-baseline").unwrap_or_else(|| B12_BASELINE.to_owned());
    let b12 =
        read_baseline(&b12_path, "B12 baseline", "run `fig10 --update-baseline` to create one");
    let (Some(b12_records), Some(b12_runs), Some(b12_geomean), Some(b12_r11)) = (
        b12.get("gate_records").and_then(Json::as_num),
        b12.get("gate_runs").and_then(Json::as_num),
        b12.get("gate_geomean_ratio").and_then(Json::as_num),
        b12.get("gate_r11_ratio").and_then(Json::as_num),
    ) else {
        eprintln!(
            "error: {b12_path} lacks gate_records/gate_runs/gate_geomean_ratio/gate_r11_ratio"
        );
        std::process::exit(2);
    };
    let doc = dblp_document_seeded(b12_records as usize, seed);
    let ratios: Vec<f64> = bench::fig10_times(&doc, b12_runs as usize)
        .iter()
        .map(|(interp, engine)| engine.as_secs_f64() / interp.as_secs_f64())
        .collect();
    let (cur_geomean, cur_r11) = bench::fig10_gate(&ratios);
    for (name, base, cur) in [
        ("fig10_pred", b12_geomean, cur_geomean),
        ("fig10_r11", b12_r11, cur_r11),
    ] {
        let ok = cur <= B12_CEILING;
        if !ok {
            failed = true;
        }
        println!(
            "{:<12} {:>13.3}× {:>13.3}× {:>8} {:>8}",
            name,
            base,
            cur,
            format!("≤{B12_CEILING:.2}"),
            if ok { "ok" } else { "REGRESSED" }
        );
    }

    // B15 Figs. 6–9 gate, written like B12: the engine/interpreter time
    // ratio of the Fig. 5 queries, both evaluators alternating in this
    // process. q1–q3 and the q1–q4 geomean are held at ≤ 1.0; q4 is
    // reported only.
    let b15_path =
        arg_value(&args, "--bench15-baseline").unwrap_or_else(|| B15_BASELINE.to_owned());
    let b15 =
        read_baseline(&b15_path, "B15 baseline", "run `fig6_9 --update-baseline` to create one");
    let (Some(b15_elements), Some(b15_q2_elements), Some(b15_runs), Some(b15_ratios)) = (
        b15.get("gate_elements").and_then(Json::as_num),
        b15.get("gate_q2_elements").and_then(Json::as_num),
        b15.get("gate_runs").and_then(Json::as_num),
        b15.get("gate_ratios").and_then(Json::as_arr),
    ) else {
        eprintln!("error: {b15_path} lacks gate_elements/gate_q2_elements/gate_runs/gate_ratios");
        std::process::exit(2);
    };
    let base_ratios: Vec<f64> = b15_ratios.iter().filter_map(Json::as_num).collect();
    if base_ratios.len() != FIG5_QUERIES.len() {
        eprintln!("error: {b15_path} gate_ratios must hold one ratio per Fig. 5 query");
        std::process::exit(2);
    }
    let ratios: Vec<f64> = bench::fig5_times(
        &tree_document(b15_elements as usize),
        &tree_document(b15_q2_elements as usize),
        b15_runs as usize,
    )
    .iter()
    .map(|(interp, engine)| engine.as_secs_f64() / interp.as_secs_f64())
    .collect();
    let rows = FIG5_QUERIES
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (format!("fig5_{name}"), base_ratios[i], ratios[i], *name != "q4"));
    let geomean = |r: &[f64]| bench::fig5_gate(r).0;
    let geo = ("fig5_geo".to_owned(), geomean(&base_ratios), geomean(&ratios), true);
    for (name, base, cur, gated) in rows.chain([geo]) {
        let ok = !gated || cur <= B15_CEILING;
        if !ok {
            failed = true;
        }
        println!(
            "{:<12} {:>13.3}× {:>13.3}× {:>8} {:>8}",
            name,
            base,
            cur,
            if gated {
                format!("≤{B15_CEILING:.2}")
            } else {
                "-".to_owned()
            },
            if !gated {
                "info"
            } else if ok {
                "ok"
            } else {
                "REGRESSED"
            }
        );
    }

    if failed {
        eprintln!("perf regression detected (normalised p50 over {tolerance:.2}× baseline)");
        std::process::exit(1);
    }
    println!("no regression");
}
