//! The repository benchmark. One command runs one workload for a fixed
//! time and prints, as its last line, one JSON object with the metrics:
//!
//! ```text
//! perfbench --workload <fig10|fig5-axes|fig10-disk|service-mix> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that records spans around calls into each module and
//! reports the per-layer metrics. Every answer is checked against the
//! context-list interpreter; any mismatch makes the exit code non-zero.
//! Page files and span dumps go under `.bench_build/perfbench`. See
//! `README.md` next to this crate for the metric definitions.

mod batch;
mod gen;
mod queries;
mod report;
mod service;

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use report::Report;

/// Slow-query threshold of the served configuration (`--slow-ms`).
pub const SLOW_MS: u64 = 100;

pub const WORKLOADS: [&str; 4] = ["fig10", "fig5-axes", "fig10-disk", "service-mix"];

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("query_geomean_ms", "ms"),
    ("worst_query_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("store_bytes_ratio", "ratio"),
];

/// Per-layer metrics that do not depend on the workload's rows.
const PER_LAYER: [(&str, &str); 44] = [
    ("xmlstore.parse_s", "s"),
    ("xmlstore.persist_s", "s"),
    ("xmlstore.open_s", "s"),
    ("xmlstore.buffer_hit_ratio", "ratio"),
    ("xmlstore.pages_read", "count"),
    ("xmlstore.evictions", "count"),
    ("xmlstore.pages_verified", "count"),
    ("xpath-syntax.frontend_us", "us"),
    ("compiler.translate_us", "us"),
    ("compiler.plan_ops", "count"),
    ("nqe.codegen_us", "us"),
    ("nqe.execute_geomean_ms", "ms"),
    ("nqe.tuples", "count"),
    ("nqe.memo_hit_ratio", "ratio"),
    ("nqe.reopens", "count"),
    ("nqe.dup_dropped", "count"),
    ("nqe.sort_input", "count"),
    ("nqe.mem_peak_bytes", "B"),
    ("nqe.range_scans", "count"),
    ("nqe.index_probes", "count"),
    ("nqe.profiled_over_plain", "ratio"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.plan_cache_lookup_us", "us"),
    ("engine.admit_wait_us", "us"),
    ("engine.write_batch_open_ms", "ms"),
    ("engine.commit_ms", "ms"),
    ("service.handle_us", "us"),
    ("service.transport_ms", "ms"),
    ("service.render_us", "us"),
    ("service.rejected", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("interp.engine_over_interp_geomean", "ratio"),
    ("trace.self_ms.engine", "ms"),
    ("trace.self_ms.nqe", "ms"),
    ("trace.self_ms.xpath-syntax", "ms"),
    ("trace.self_ms.compiler", "ms"),
    ("trace.self_ms.service", "ms"),
    ("trace.self_ms.transport", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.gap_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.requests", "count"),
];

/// Every per-layer metric name with its unit: the fixed list plus the
/// per-row execute and interpreter metrics of the Fig. 10 and Fig. 5
/// rows. A workload reports 0 for a layer or row it does not touch.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    let rows = queries::FIG10.iter().chain(queries::FIG5.iter()).map(|r| r.0);
    for row in rows {
        out.push((format!("nqe.execute_ms.{row}"), "ms"));
        out.push((format!("interp.query_ms.{row}"), "ms"));
        out.push((format!("interp.engine_over_interp.{row}"), "ratio"));
    }
    out
}

/// Where runs leave span dumps: `.bench_build/perfbench` under the
/// working directory.
fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// This process's directory for page files, removed when the run ends.
pub fn scratch_dir() -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    })
    .clone()
}

/// The telemetry the served configuration runs with: in-memory query
/// log with the slow-query threshold armed.
pub fn served_telemetry() -> Arc<natix::Telemetry> {
    natix::Telemetry::with_logger(natix::QueryLogger::in_memory(Some(Duration::from_millis(
        SLOW_MS,
    ))))
    .shared()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let dir = scratch_dir();
    let trace_path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let batch = match args.workload.as_str() {
        "fig10" => Some(batch::Workload::fig10(args.seed)),
        "fig5-axes" => Some(batch::Workload::fig5_axes(args.seed)),
        "fig10-disk" => Some(batch::Workload::fig10_disk(args.seed)),
        _ => None,
    };
    match (&batch, args.trace) {
        (Some(w), false) => batch::run(w, args.seconds, &dir, &mut report),
        (Some(w), true) => batch::run_traced(w, args.seconds, &dir, &trace_path, &mut report),
        (None, false) => service::run(args.seed, args.seconds, &mut report),
        (None, true) => service::run_traced(args.seed, args.seconds, &trace_path, &mut report),
    }
    drop(batch);
    let _ = std::fs::remove_dir_all(&dir);
    report.set("peak_rss_mb", report::peak_rss_mb(), "MiB");

    // Keep exactly the metric set of the run's kind, in a fixed order;
    // a metric the workload does not measure is a bug for end-to-end
    // metrics and a 0 for per-layer ones.
    let mut missing = Vec::new();
    let wanted: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut out = Report {
        attempted: report.attempted,
        failed: report.failed,
        ..Report::default()
    };
    for (name, unit) in wanted {
        match report.metrics.get(&name) {
            Some(&(v, _)) if v.is_finite() => out.set(name, v, unit),
            _ if args.trace => out.set(name, 0.0, unit),
            _ => missing.push(name),
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} of {} requests failed)",
        report.failed, report.attempted
    );
    for m in &report.mismatches {
        println!("mismatch: {m}");
    }
    if !args.trace {
        for (name, unit) in END_TO_END {
            if let Some((v, _)) = out.metrics.get(name) {
                println!("{name:<18} {v:>14.4} {unit}");
            }
        }
    }
    if !missing.is_empty() {
        eprintln!("error: metrics not measured: {}", missing.join(", "));
        std::process::exit(1);
    }
    println!("{}", out.json_line());
    if !out.correct() {
        std::process::exit(1);
    }
}
