//! The batch workloads: `fig10`, `fig5-axes` and `fig10-disk`. One
//! caller replays the workload's queries in a closed loop through one
//! `Session` with a warm plan cache.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix::{Document, Engine, EngineConfig, QueryOutput, Session, TranslateOptions};
use xmlstore::buffer::BufferStats;
use xmlstore::XmlStore;

use crate::gen::{dblp_xml, tree_xml};
use crate::queries::{FIG10, FIG5};
use crate::report::{geomean, median, ms, percentile, us, Report, Tracer};

/// Buffer-pool frames of the paged store (256 × 8 KiB = 2 MiB).
const DISK_PAGES: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Interpreter timings per row in the untraced run.
const INTERP_REPS: usize = 3;

pub struct Workload {
    /// XML text of each document.
    docs: Vec<String>,
    /// `(metric label, query, document index)`.
    rows: Vec<(&'static str, &'static str, usize)>,
    options: TranslateOptions,
    disk: bool,
}

impl Workload {
    pub fn fig10(seed: u64) -> Workload {
        Workload {
            docs: vec![dblp_xml(50_000, seed)],
            rows: FIG10.iter().map(|&(l, q)| (l, q, 0)).collect(),
            options: TranslateOptions::improved(),
            disk: false,
        }
    }

    /// Fig. 5 q1/q3/q4 on the 80 000-element tree (fanout 10, depth 5);
    /// the quadratic q2 on the 2 000-element tree (fanout 6, depth 5).
    pub fn fig5_axes(seed: u64) -> Workload {
        Workload {
            docs: vec![
                tree_xml(80_000, 10, 5, seed),
                tree_xml(2_000, 6, 5, seed ^ 1),
            ],
            rows: FIG5.iter().map(|&(l, q)| (l, q, usize::from(l == "fig5_q2"))).collect(),
            options: TranslateOptions::improved(),
            disk: false,
        }
    }

    pub fn fig10_disk(seed: u64) -> Workload {
        Workload {
            docs: vec![dblp_xml(20_000, seed)],
            rows: FIG10.iter().map(|&(l, q)| (l, q, 0)).collect(),
            options: TranslateOptions::cost_based(),
            disk: true,
        }
    }

    fn page_file(&self, dir: &Path, doc: usize) -> PathBuf {
        dir.join(format!("doc{doc}.natix"))
    }
}

/// A warm engine over the workload's documents, registered as `doc0`,
/// `doc1`, ….
struct Loaded {
    engine: Arc<Engine>,
    session: Session,
    names: Vec<String>,
    parse: Duration,
    persist: Duration,
    open: Duration,
    total: Duration,
}

impl Loaded {
    /// The current snapshot of document `doc`. Each read re-pins it, as
    /// a service session does, so it sees the latest committed write and
    /// older snapshots are freed.
    fn doc(&self, doc: usize) -> Arc<Document> {
        self.engine.document(&self.names[doc]).expect("registered document")
    }
}

/// Hand the XML text to the program and bring it to a warm state:
/// parse (and for the disk workload persist + open), register, and run
/// one warm-up pass that fills the plan cache.
fn load(w: &Workload, dir: &Path) -> Loaded {
    let t0 = Instant::now();
    let engine = Engine::with_config(EngineConfig::default(), None);
    let session = engine.session().with_options(w.options);
    let (mut parse, mut persist, mut open) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut names = Vec::new();
    for (i, xml) in w.docs.iter().enumerate() {
        let t = Instant::now();
        let mut doc = Document::parse(xml).expect("generated XML parses");
        parse += t.elapsed();
        if w.disk {
            let path = w.page_file(dir, i);
            let t = Instant::now();
            let Document::Arena(arena) = doc else {
                unreachable!("parse yields an arena")
            };
            xmlstore::diskstore::create_store_file(&arena, &path).expect("persist page file");
            persist += t.elapsed();
            drop(arena);
            let t = Instant::now();
            doc = Document::open(&path, DISK_PAGES).expect("open page file");
            open += t.elapsed();
        }
        names.push(format!("doc{i}"));
        engine.register_document(&names[i], doc);
    }
    let loaded = Loaded {
        engine,
        session,
        names,
        parse,
        persist,
        open,
        total: Duration::ZERO,
    };
    for &(_, q, d) in &w.rows {
        let doc = loaded.doc(d);
        std::hint::black_box(loaded.session.evaluate(doc.store(), q).expect("warm-up query"));
    }
    Loaded { parse, persist, total: t0.elapsed(), ..loaded }
}

/// Load `SETUP_REPS` times (keeping the last engine) and return it with
/// the median set-up time.
fn setup(w: &Workload, dir: &Path) -> (Loaded, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let l = load(w, dir);
        times.push(l.total.as_secs_f64());
        last = Some(l);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Reference answers from the context-list interpreter on arena copies
/// of the documents, plus interpreter timings. On the disk workload the
/// engine's arena answers must equal the interpreter's as well.
struct Refs {
    answers: Vec<QueryOutput>,
    interp_ms: Vec<Vec<f64>>,
    /// Disk workload: an engine holding the arena sources of the page
    /// files, for the interpreter and for writes.
    sources: Option<Arc<Engine>>,
}

fn references(w: &Workload, loaded: &Loaded, report: &mut Report, interp_reps: usize) -> Refs {
    let sources = w.disk.then(|| {
        let engine = Engine::with_config(EngineConfig::default(), None);
        for (name, xml) in loaded.names.iter().zip(&w.docs) {
            engine.register_document(name, Document::parse(xml).expect("parse"));
        }
        engine
    });
    let arena_of = |d: usize| match &sources {
        Some(engine) => engine.document(&loaded.names[d]).expect("registered source"),
        None => loaded.doc(d),
    };
    let session = sources.as_ref().map(|e| e.session().with_options(w.options));
    let mut answers = Vec::new();
    let mut interp_ms = Vec::new();
    for &(label, q, d) in &w.rows {
        let doc = arena_of(d);
        let store = doc.store();
        let mut times = Vec::new();
        let mut want = None;
        for _ in 0..interp_reps.max(1) {
            let t = Instant::now();
            let out = interp::evaluate(store, q).expect("interpreter answers");
            times.push(ms(t.elapsed()));
            want = Some(out);
        }
        let want = want.expect("one interpreter run");
        if let Some(session) = &session {
            let got = session.evaluate(store, q);
            report.outcome(got.as_ref().ok() == Some(&want), || {
                format!("{label}: arena engine answer differs from the interpreter")
            });
        }
        answers.push(want);
        interp_ms.push(times);
    }
    Refs { answers, interp_ms, sources }
}

/// One write transaction on the workload's first document: insert an
/// element no query selects, remove it, commit. On the disk workload the
/// page file is an immutable snapshot, so the transaction commits on the
/// arena source and then rebuilds and reopens the page file, the only
/// path by which an update reaches a paged document. Returns (total,
/// batch open, commit).
fn write_once(w: &Workload, dir: &Path, loaded: &Loaded, refs: &Refs, n: usize) -> [Duration; 3] {
    let engine = refs.sources.as_ref().unwrap_or(&loaded.engine);
    let t0 = Instant::now();
    let mut batch = engine.write_batch("doc0").expect("open write batch");
    let opened = t0.elapsed();
    let root = batch.select_one("/*").expect("document element");
    let probe = batch.append_element(root, "perfbench-probe").expect("append");
    batch.remove_subtree(probe).expect("remove");
    let t = Instant::now();
    batch.commit().expect("commit");
    let commit = t.elapsed();
    if w.disk {
        let doc = engine.document("doc0").expect("registered source");
        let Document::Arena(arena) = &*doc else {
            unreachable!("arena source")
        };
        let path = dir.join(format!("rebuild{}.natix", n % 2));
        xmlstore::diskstore::create_store_file(arena, &path).expect("rebuild page file");
        let reopened = Document::open(&path, DISK_PAGES).expect("reopen page file");
        loaded.engine.register_document("doc0", reopened);
    }
    [t0.elapsed(), opened, commit]
}

fn store_bytes_ratio(w: &Workload, dir: &Path, loaded: &Loaded) -> f64 {
    let path = w.page_file(dir, 0);
    if !w.disk {
        let Document::Arena(a) = &*loaded.doc(0) else {
            unreachable!("arena workload")
        };
        xmlstore::diskstore::create_store_file(a, &path).expect("persist for size");
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    if !w.disk {
        let _ = std::fs::remove_file(&path);
    }
    bytes as f64 / w.docs[0].len() as f64
}

fn print_rows(w: &Workload, engine_ms: &[Vec<f64>], interp_ms: &[Vec<f64>]) {
    println!("{:<10} {:>12} {:>12} {:>9}  query", "row", "engine_ms", "interp_ms", "ratio");
    for (i, &(label, q, _)) in w.rows.iter().enumerate() {
        let (e, n) = (median(&engine_ms[i]), median(&interp_ms[i]));
        let ratio = if n > 0.0 {
            format!("{:.2}", e / n)
        } else {
            "-".to_owned()
        };
        println!("{label:<10} {e:>12.3} {n:>12.3} {ratio:>9}  {q}");
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &Workload, seconds: f64, dir: &Path, report: &mut Report) {
    let (loaded, setup_s) = setup(w, dir);
    let refs = references(w, &loaded, report, INTERP_REPS);

    // Reads in passes over the rows, each pass followed by a write
    // transaction, so both sample the whole window.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); w.rows.len()];
    let mut writes = Vec::new();
    let mut read_time = 0.0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for (i, &(label, q, d)) in w.rows.iter().enumerate() {
            let doc = loaded.doc(d);
            let t = Instant::now();
            let out = loaded.session.evaluate(doc.store(), q);
            let dt = t.elapsed();
            let ok = out.as_ref().ok() == Some(&refs.answers[i]);
            report.outcome(ok, || format!("{label}: answer differs from the reference"));
            samples[i].push(ms(dt));
            read_time += dt.as_secs_f64();
        }
        // One write transaction after every pass: the same sequence of
        // allocations on every run, whatever the host's speed.
        writes.push(ms(write_once(w, dir, &loaded, &refs, writes.len())[0]));
        report.outcome(true, String::new);
    }
    let done: usize = samples.iter().map(Vec::len).sum();

    print_rows(w, &samples, &refs.interp_ms);
    let medians: Vec<f64> = samples.iter().filter(|s| !s.is_empty()).map(|s| median(s)).collect();
    let p99s: Vec<f64> =
        samples.iter().filter(|s| !s.is_empty()).map(|s| percentile(s, 0.99)).collect();
    let counts: Vec<usize> = samples.iter().map(Vec::len).collect();
    println!("samples per row: {counts:?}; write transactions: {}", writes.len());
    report.set("setup_s", setup_s, "s");
    report.set("throughput_qps", done as f64 / read_time, "1/s");
    report.set("query_geomean_ms", geomean(&medians), "ms");
    report.set("worst_query_ms", medians.iter().copied().fold(0.0, f64::max), "ms");
    report.set("latency_p50_ms", geomean(&medians), "ms");
    report.set("latency_p99_ms", geomean(&p99s), "ms");
    report.set("write_p50_ms", percentile(&writes, 0.5), "ms");
    report.set("write_p90_ms", percentile(&writes, 0.9), "ms");
    report.set("store_bytes_ratio", store_bytes_ratio(w, dir, &loaded), "ratio");
}

fn buffer_delta(before: Option<BufferStats>, after: Option<BufferStats>) -> BufferStats {
    match (before, after) {
        (Some(b), Some(a)) => BufferStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            pages_verified: a.pages_verified - b.pages_verified,
            checksum_failures: a.checksum_failures - b.checksum_failures,
        },
        _ => BufferStats::default(),
    }
}

/// Operator counters of one profiled execution (`Session::analyze`) per
/// query, summed; the memory peak is the largest.
pub fn analyze_counters(session: &Session, queries: &[(&dyn XmlStore, &str)], report: &mut Report) {
    const GAUGES: [&str; 5] = [
        "reopens",
        "dup_dropped",
        "sort_input",
        "range_scans",
        "index_probes",
    ];
    let (mut tuples, mut hits, mut misses, mut peak, mut sums) =
        (0u64, 0u64, 0u64, 0u64, [0u64; 5]);
    for &(store, q) in queries {
        let (_, a) = session.analyze(store, q).expect("analyze");
        tuples += a.profile.total_tuples();
        peak = peak.max(a.resources.high_water_bytes);
        for e in &a.profile.entries {
            for &(name, v) in &e.stats.lock().gauges {
                match name {
                    "memo_hits" => hits += v,
                    "memo_misses" => misses += v,
                    _ => {
                        if let Some(i) = GAUGES.iter().position(|g| *g == name) {
                            sums[i] += v;
                        }
                    }
                }
            }
        }
    }
    report.set("nqe.tuples", tuples as f64, "count");
    report.set("nqe.memo_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    for (g, v) in GAUGES.iter().zip(sums) {
        report.set(format!("nqe.{g}"), v as f64, "count");
    }
    report.set("nqe.mem_peak_bytes", peak as f64, "B");
}

/// The traced run: per-layer metrics from spans around calls into each
/// module, reconciled against untraced `Session::evaluate` calls of the
/// same queries interleaved with them.
pub fn run_traced(w: &Workload, seconds: f64, dir: &Path, trace_path: &Path, report: &mut Report) {
    let loaded = load(w, dir);
    report.set("xmlstore.parse_s", loaded.parse.as_secs_f64(), "s");
    report.set("xmlstore.persist_s", loaded.persist.as_secs_f64(), "s");
    report.set("xmlstore.open_s", loaded.open.as_secs_f64(), "s");
    let refs = references(w, &loaded, report, 1);
    let docs: Vec<Arc<Document>> = (0..w.docs.len()).map(|d| loaded.doc(d)).collect();
    let queries: Vec<(&dyn XmlStore, &str)> =
        w.rows.iter().map(|&(_, q, d)| (docs[d].store(), q)).collect();
    analyze_counters(&loaded.session, &queries, report);

    let observed = Engine::with_config(EngineConfig::default(), Some(crate::served_telemetry()))
        .session()
        .with_options(w.options);
    let interp_on = !w.disk;

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let n = w.rows.len();
    let (mut untraced, mut execute, mut interp_ms) =
        (vec![Vec::new(); n], vec![Vec::new(); n], vec![Vec::new(); n]);
    let (mut plain, mut with_telemetry, mut profiled) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut frontend, mut translate, mut codegen, mut lookup, mut admit) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut plan_ops = vec![0.0; n];
    let mut buffers = BufferStats::default();
    let mut passes = 0u64;
    let cache_before = loaded.engine.cache_stats();
    let mut request = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        passes += 1;
        for (i, &(label, q, d)) in w.rows.iter().enumerate() {
            let doc = loaded.doc(d);
            let store = doc.store();
            let vars = std::collections::HashMap::new();

            // Untraced end-to-end call.
            let before = store.buffer_stats();
            let t = Instant::now();
            let out = loaded.session.evaluate(store, q);
            let dt = t.elapsed();
            let delta = buffer_delta(before, store.buffer_stats());
            buffers.hits += delta.hits;
            buffers.misses += delta.misses;
            buffers.evictions += delta.evictions;
            buffers.pages_verified += delta.pages_verified;
            untraced[i].push(ms(dt));
            plain[i] += ms(dt);
            report.outcome(out.as_ref().ok() == Some(&refs.answers[i]), || {
                format!("{label}: untraced answer differs")
            });

            // The same request, decomposed into the calls Session makes.
            request += 1;
            let root = tracer.begin("request", request);
            let (permit, wait) = tracer.span("engine.admit", request, || loaded.engine.admit());
            let ((plan, _, _), dl) = tracer.span("engine.plan_cache_lookup", request, || {
                loaded.session.compile_cached_for(store, q).expect("cached plan")
            });
            let (mut phys, dc) = tracer.span("nqe.codegen", request, || nqe::build_physical(&plan));
            let (out, de) =
                tracer.span("nqe.execute", request, || phys.execute(store, &vars, store.root()));
            drop(permit);
            tracer.end(root);
            admit.push(us(wait));
            lookup.push(us(dl));
            codegen.push(us(dc));
            execute[i].push(ms(de));
            report.outcome(out.as_ref().ok() == Some(&refs.answers[i]), || {
                format!("{label}: traced answer differs")
            });

            // The cold compile path a plan-cache miss would add.
            request += 1;
            let root = tracer.begin("compile", request);
            let (ast, df) = tracer.span("xpath-syntax.frontend", request, || {
                xpath_syntax::frontend(q).expect("front end")
            });
            let stats = store.structural_index().map(|idx| idx.stats());
            let ((compiled, _), dt) = tracer.span("compiler.translate", request, || {
                compiler::compile_ast_with_stats(&ast, &w.options, stats).expect("translate")
            });
            tracer.end(root);
            frontend.push(us(df));
            translate.push(us(dt));
            let mut qt = compiler::QueryTrace::default();
            qt.record_plan(&compiled);
            plan_ops[i] = qt.plan_ops as f64;

            // Telemetry on (slow-query capture armed) vs off, and the
            // profiled path, interleaved with the plain call above.
            let t = Instant::now();
            std::hint::black_box(observed.evaluate(store, q).expect("telemetry-on query"));
            with_telemetry[i] += ms(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(loaded.session.analyze(store, q).expect("analyze"));
            profiled[i] += ms(t.elapsed());

            if interp_on {
                let t = Instant::now();
                let out = interp::evaluate(store, q);
                interp_ms[i].push(ms(t.elapsed()));
                report.outcome(out.as_ref().ok() == Some(&refs.answers[i]), || {
                    format!("{label}: interpreter answer differs")
                });
            }
        }
    }
    let cache_after = loaded.engine.cache_stats();

    // Write transactions, decomposed into batch open and commit.
    let (mut opens, mut commits) = (Vec::new(), Vec::new());
    for k in 0..3 {
        let [_, o, c] = write_once(w, dir, &loaded, &refs, k);
        opens.push(ms(o));
        commits.push(ms(c));
        report.outcome(true, String::new);
    }
    report.set("engine.write_batch_open_ms", median(&opens), "ms");
    report.set("engine.commit_ms", median(&commits), "ms");

    let passes_f = passes as f64;
    let accesses = (buffers.hits + buffers.misses).max(1);
    report.set("xmlstore.buffer_hit_ratio", buffers.hits as f64 / accesses as f64, "ratio");
    report.set("xmlstore.pages_read", buffers.misses as f64 / passes_f, "count");
    report.set("xmlstore.evictions", buffers.evictions as f64 / passes_f, "count");
    report.set("xmlstore.pages_verified", buffers.pages_verified as f64 / passes_f, "count");
    report.set("xpath-syntax.frontend_us", median(&frontend), "us");
    report.set("compiler.translate_us", median(&translate), "us");
    report.set("compiler.plan_ops", plan_ops.iter().sum::<f64>() / n as f64, "count");
    report.set("nqe.codegen_us", median(&codegen), "us");
    report.set("engine.plan_cache_lookup_us", median(&lookup), "us");
    report.set("engine.admit_wait_us", median(&admit), "us");
    let (hits, misses) =
        (cache_after.hits - cache_before.hits, cache_after.misses - cache_before.misses);
    report.set(
        "engine.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );

    let exec_medians: Vec<f64> = execute.iter().map(|s| median(s)).collect();
    let mut ratios = Vec::new();
    for (i, &(label, _, _)) in w.rows.iter().enumerate() {
        report.set(format!("nqe.execute_ms.{label}"), exec_medians[i], "ms");
        if interp_on {
            let e2e = median(&untraced[i]);
            let n_ms = median(&interp_ms[i]);
            report.set(format!("interp.query_ms.{label}"), n_ms, "ms");
            report.set(format!("interp.engine_over_interp.{label}"), e2e / n_ms, "ratio");
            ratios.push(e2e / n_ms);
        }
    }
    report.set("nqe.execute_geomean_ms", geomean(&exec_medians), "ms");
    if interp_on {
        report.set("interp.engine_over_interp_geomean", geomean(&ratios), "ratio");
        print_rows(w, &untraced, &interp_ms);
    } else {
        print_rows(w, &untraced, &refs.interp_ms);
    }
    let ratio_of =
        |a: &[f64], b: &[f64]| geomean(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>());
    report.set("nqe.profiled_over_plain", ratio_of(&profiled, &plain), "ratio");
    report.set("telemetry.overhead_ratio", ratio_of(&with_telemetry, &plain) - 1.0, "ratio");

    crate::report::reconcile(&tracer, crate::report::mean(&untraced.concat()), report);
    if let Err(e) = tracer.write(trace_path) {
        eprintln!("warning: could not write spans to {}: {e}", trace_path.display());
    }
}
