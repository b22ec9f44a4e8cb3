//! The `service-mix` workload: the line-protocol service over TCP
//! loopback, configured as `natix-cli --serve` is (telemetry on, an
//! in-memory query log with a slow-query threshold, two workers), driven
//! by two closed-loop client connections.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix::service::{render_output, serve_tcp, ClientSession, ServerHandle};
use natix::{
    Document, Engine, EngineConfig, QueryService, ServiceConfig, Session, TranslateOptions,
};
use xmlstore::XmlStore;

use crate::gen::{dblp_xml, Rng};
use crate::queries::{literals, SERVICE_CORPUS, TEMPLATES};
use crate::report::{geomean, mean, median, ms, percentile, us, Report, Tracer};

const RECORDS: usize = 200;
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 3;
/// One read in `TEMPLATE_EVERY` uses a fresh Fig. 10 template literal.
const TEMPLATE_EVERY: u64 = 5;
/// The first client sends a write transaction every `WRITE_EVERY` requests.
const WRITE_EVERY: u64 = 20;
const WRITE_LINES: [&str; 3] = [
    "update append-element /dblp perfbench-probe",
    "update remove /dblp/perfbench-probe",
    "commit",
];

/// One read request: its group (corpus index, or 12 + template index),
/// the line sent, and the reference reply.
#[derive(Clone)]
struct Read {
    group: usize,
    query: String,
    want: String,
}

/// The inputs of one run, all drawn from the seed.
struct Mix {
    xml: String,
    corpus: Vec<Read>,
    /// Template reads with fresh literals, in seeded order.
    fresh: Vec<Read>,
}

fn group_name(g: usize) -> String {
    if g < SERVICE_CORPUS.len() {
        format!("corpus{:02}", g + 1)
    } else {
        format!("template{}", g - SERVICE_CORPUS.len() + 1)
    }
}

/// Reference replies come from the context-list interpreter, rendered
/// as protocol lines.
fn mix(seed: u64) -> Mix {
    let xml = dblp_xml(RECORDS, seed);
    let doc = Document::parse(&xml).expect("generated XML parses");
    let want = |q: &str| render_output(&interp::evaluate(doc.store(), q).expect("interpreter"));
    let corpus = SERVICE_CORPUS
        .iter()
        .enumerate()
        .map(|(g, q)| Read { group: g, query: (*q).to_owned(), want: want(q) })
        .collect();
    let mut fresh = Vec::new();
    for (t, (template, kind)) in TEMPLATES.iter().enumerate() {
        for lit in literals(&xml, *kind) {
            let query = template.replace("{}", &lit);
            fresh.push(Read { group: SERVICE_CORPUS.len() + t, want: want(&query), query });
        }
    }
    Rng::new(seed).shuffle(&mut fresh);
    Mix { xml, corpus, fresh }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(server: &ServerHandle) -> Conn {
        let writer = TcpStream::connect(server.addr).expect("connect to the service");
        Conn {
            reader: BufReader::new(writer.try_clone().expect("clone socket")),
            writer,
        }
    }

    /// Send one line and wait for its reply (closed loop).
    fn call(&mut self, line: &str) -> String {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer.write_all(msg.as_bytes()).expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.truncate(reply.trim_end().len());
        reply
    }
}

struct Served {
    engine: Arc<Engine>,
    service: Arc<QueryService>,
    server: ServerHandle,
    conns: Vec<Conn>,
    parse: Duration,
    total: Duration,
}

fn start(m: &Mix) -> Served {
    let t0 = Instant::now();
    let engine = Engine::with_config(EngineConfig::default(), Some(crate::served_telemetry()));
    let t = Instant::now();
    let doc = Document::parse(&m.xml).expect("generated XML parses");
    let parse = t.elapsed();
    engine.register_document("dblp", doc);
    let service = QueryService::new(engine.clone(), ServiceConfig { workers: 2, queue_depth: 64 });
    let server = serve_tcp(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::connect(&server)).collect();
    for r in &m.corpus {
        std::hint::black_box(conns[0].call(&format!("query {}", r.query)));
    }
    Served { engine, service, server, conns, parse, total: t0.elapsed() }
}

fn stop(s: Served) {
    for mut c in s.conns {
        c.call("quit");
    }
    s.server.stop();
    drop(s.service);
}

/// What one client thread observed.
#[derive(Default)]
struct ClientLog {
    reads: Vec<(usize, f64)>,
    writes: Vec<f64>,
    attempted: u64,
    /// Requests with at least one failed check.
    failed_requests: u64,
    /// What failed, one line per failed check.
    failed: Vec<String>,
    rejected: u64,
    tracer: Option<Tracer>,
    layers: Layers,
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Layers {
    handle: Vec<f64>,
    transport: Vec<f64>,
    render: Vec<f64>,
    admit: Vec<f64>,
    lookup: Vec<f64>,
    frontend: Vec<f64>,
    translate: Vec<f64>,
    codegen: Vec<f64>,
    execute: Vec<f64>,
    plan_ops: Vec<f64>,
    write_open: Vec<f64>,
    commit: Vec<f64>,
    plain: Vec<f64>,
    observed: Vec<f64>,
    decomposed_lookups: u64,
}

impl Layers {
    fn absorb(&mut self, o: Layers) {
        for (a, b) in [
            (&mut self.handle, o.handle),
            (&mut self.transport, o.transport),
            (&mut self.render, o.render),
            (&mut self.admit, o.admit),
            (&mut self.lookup, o.lookup),
            (&mut self.frontend, o.frontend),
            (&mut self.translate, o.translate),
            (&mut self.codegen, o.codegen),
            (&mut self.execute, o.execute),
            (&mut self.plan_ops, o.plan_ops),
            (&mut self.write_open, o.write_open),
            (&mut self.commit, o.commit),
            (&mut self.plain, o.plain),
            (&mut self.observed, o.observed),
        ] {
            a.extend(b);
        }
        self.decomposed_lookups += o.decomposed_lookups;
    }
}

/// In-process handles the traced run replays each request through.
struct Replay {
    client: ClientSession,
    engine: Arc<Engine>,
    session: Session,
    doc: Arc<Document>,
    /// Telemetry-off and telemetry-on sessions on engines of their own.
    plain: Session,
    observed: Session,
    origin: Instant,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    id: usize,
    seed: u64,
    mut conn: Conn,
    m: &Mix,
    next_fresh: &AtomicUsize,
    deadline: Instant,
    mut replay: Option<Replay>,
) -> (Conn, ClientLog) {
    let mut rng = Rng::new(seed ^ (0xA5A5 + id as u64));
    let mut log = ClientLog {
        tracer: replay.as_ref().map(|r| Tracer::new(r.origin)),
        ..ClientLog::default()
    };
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let failures_before = log.failed.len();
        if id == 0 && n.is_multiple_of(WRITE_EVERY) {
            let t = Instant::now();
            let replies: Vec<String> = WRITE_LINES.iter().map(|l| conn.call(l)).collect();
            log.writes.push(ms(t.elapsed()));
            log.attempted += 1;
            let ok = replies[0].starts_with("OK update")
                && replies[1].starts_with("OK update")
                && replies[2].starts_with("OK committed");
            if !ok {
                log.failed.push(format!("write transaction: {replies:?}"));
            }
            if let Some(r) = replay.as_mut() {
                trace_write(r, &mut log);
            }
            log.failed_requests += u64::from(log.failed.len() > failures_before);
            continue;
        }
        let read = if rng.ratio(1, TEMPLATE_EVERY) {
            let i = next_fresh.fetch_add(1, Ordering::Relaxed);
            &m.fresh[i % m.fresh.len()]
        } else {
            rng.pick(&m.corpus)
        };
        let line = format!("query {}", read.query);
        let t = Instant::now();
        let reply = conn.call(&line);
        let rtt = t.elapsed();
        log.reads.push((read.group, ms(rtt)));
        log.attempted += 1;
        if reply.starts_with("ERR admission") {
            log.rejected += 1;
        }
        if reply != read.want {
            log.failed.push(format!(
                "{}: `{}` != `{}`",
                group_name(read.group),
                short(&reply),
                short(&read.want)
            ));
        }
        if let Some(r) = replay.as_mut() {
            trace_read(r, read, &line, rtt, n, &mut log);
        }
        log.failed_requests += u64::from(log.failed.len() > failures_before);
    }
    (conn, log)
}

fn short(s: &str) -> &str {
    &s[..s.len().min(60)]
}

/// Replay one read in-process: `ClientSession::handle` on the same line,
/// then the calls it makes, each as a span of request `n`.
fn trace_read(r: &mut Replay, read: &Read, line: &str, rtt: Duration, n: u64, log: &mut ClientLog) {
    let tracer = log.tracer.as_mut().expect("traced run");
    let (reply, handle) = tracer.span("handle", n, || r.client.handle(line));
    if reply.text() != read.want {
        log.failed.push(format!("{}: in-process reply differs", group_name(read.group)));
    }
    let l = &mut log.layers;
    l.handle.push(us(handle));
    l.transport.push(ms(rtt.saturating_sub(handle)));

    let store = r.doc.store();
    let q = read.query.as_str();
    let fresh = read.group >= SERVICE_CORPUS.len();
    let root = tracer.begin("request", n);
    let (permit, wait) = tracer.span("engine.admit", n, || r.engine.admit());
    let plan = if fresh {
        // A template read missed the plan cache on the server: replay
        // the full compile.
        let (ast, df) = tracer
            .span("xpath-syntax.frontend", n, || xpath_syntax::frontend(q).expect("front end"));
        let stats = store.structural_index().map(|idx| idx.stats());
        let ((compiled, _), dt) = tracer.span("compiler.translate", n, || {
            compiler::compile_ast_with_stats(&ast, &r.session.options, stats).expect("translate")
        });
        l.frontend.push(us(df));
        l.translate.push(us(dt));
        let mut qt = compiler::QueryTrace::default();
        qt.record_plan(&compiled);
        l.plan_ops.push(qt.plan_ops as f64);
        Arc::new(compiled)
    } else {
        let ((plan, _, _), dl) = tracer.span("engine.plan_cache_lookup", n, || {
            r.session.compile_cached_for(store, q).expect("cached plan")
        });
        l.lookup.push(us(dl));
        l.decomposed_lookups += 1;
        plan
    };
    // The service's engine arms slow-query capture, which profiles
    // every execution: replay the profiled lowering it uses.
    let ((mut phys, _profile), dc) =
        tracer.span("nqe.codegen", n, || nqe::build_physical_profiled(&plan));
    let (out, de) =
        tracer.span("nqe.execute", n, || phys.execute(store, &HashMap::new(), store.root()));
    let (line_out, dr) = tracer.span("service.render", n, || render_output(&out.expect("execute")));
    drop(permit);
    tracer.end(root);
    if line_out != read.want {
        log.failed
            .push(format!("{}: decomposed answer differs", group_name(read.group)));
    }
    l.admit.push(us(wait));
    l.codegen.push(us(dc));
    l.execute.push(ms(de));
    l.render.push(us(dr));

    // Telemetry on vs off, interleaved, on engines of their own.
    let t = Instant::now();
    std::hint::black_box(r.plain.evaluate(store, q).expect("telemetry-off query"));
    l.plain.push(ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(r.observed.evaluate(store, q).expect("telemetry-on query"));
    l.observed.push(ms(t.elapsed()));
}

/// Replay one write transaction in-process through the engine's write
/// path, timing batch open and commit.
fn trace_write(r: &mut Replay, log: &mut ClientLog) {
    let tracer = log.tracer.as_mut().expect("traced run");
    let n = u64::MAX - log.layers.commit.len() as u64;
    let root = tracer.begin("write", n);
    let (batch, open) = tracer.span("engine.write_batch_open", n, || r.engine.write_batch("dblp"));
    let mut batch = batch.expect("open write batch");
    let root_elem = batch.select_one("/dblp").expect("dblp element");
    let probe = batch.append_element(root_elem, "perfbench-probe").expect("append");
    batch.remove_subtree(probe).expect("remove");
    let (receipt, commit) = tracer.span("engine.commit", n, || batch.commit());
    tracer.end(root);
    if receipt.is_err() {
        log.failed.push("in-process write transaction failed".to_owned());
    }
    log.layers.write_open.push(ms(open));
    log.layers.commit.push(ms(commit));
}

/// Run both clients until `seconds` have passed.
fn drive(s: &mut Served, m: &Mix, seed: u64, seconds: f64, traced: bool) -> (ClientLog, f64) {
    let next_fresh = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let conns = std::mem::take(&mut s.conns);
    let results: Vec<(Conn, ClientLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(id, conn)| {
                let replay = traced.then(|| Replay {
                    client: s.service.client(Some("dblp")),
                    engine: s.engine.clone(),
                    session: s.engine.session(),
                    doc: s.engine.document("dblp").expect("registered"),
                    plain: Engine::with_config(EngineConfig::default(), None).session(),
                    observed: Engine::with_config(
                        EngineConfig::default(),
                        Some(crate::served_telemetry()),
                    )
                    .session(),
                    origin: t0,
                });
                let next_fresh = &next_fresh;
                scope.spawn(move || client_loop(id, seed, conn, m, next_fresh, deadline, replay))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let window = t0.elapsed().as_secs_f64();
    let mut all = ClientLog {
        tracer: traced.then(|| Tracer::new(t0)),
        ..ClientLog::default()
    };
    for (conn, log) in results {
        s.conns.push(conn);
        all.reads.extend(log.reads);
        all.writes.extend(log.writes);
        all.attempted += log.attempted;
        all.failed_requests += log.failed_requests;
        all.failed.extend(log.failed);
        all.rejected += log.rejected;
        all.layers.absorb(log.layers);
        if let (Some(t), Some(o)) = (all.tracer.as_mut(), log.tracer) {
            t.absorb(o);
        }
    }
    (all, window)
}

fn account(log: &ClientLog, report: &mut Report) {
    report.attempted += log.attempted;
    report.failed += log.failed_requests;
    report.mismatches.extend(log.failed.iter().take(10).cloned());
}

fn group_medians(reads: &[(usize, f64)]) -> Vec<(usize, f64, usize)> {
    let groups = SERVICE_CORPUS.len() + TEMPLATES.len();
    (0..groups)
        .filter_map(|g| {
            let v: Vec<f64> = reads.iter().filter(|r| r.0 == g).map(|r| r.1).collect();
            (!v.is_empty()).then(|| (g, median(&v), v.len()))
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let m = mix(seed);
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = served.take() {
            stop(s);
        }
        let s = start(&m);
        setups.push(s.total.as_secs_f64());
        served = Some(s);
    }
    let mut s = served.expect("one set-up");
    let (log, window) = drive(&mut s, &m, seed, seconds, false);
    stop(s);
    account(&log, report);

    let groups = group_medians(&log.reads);
    println!("{:<12} {:>10} {:>8}", "group", "median_ms", "reads");
    for (g, med, count) in &groups {
        println!("{:<12} {med:>10.3} {count:>8}", group_name(*g));
    }
    let lat: Vec<f64> = log.reads.iter().map(|r| r.1).collect();
    let medians: Vec<f64> = groups.iter().map(|g| g.1).collect();
    println!(
        "reads: {}, write transactions: {}, rejected: {}",
        lat.len(),
        log.writes.len(),
        log.rejected
    );
    report.set("setup_s", median(&setups), "s");
    report.set("throughput_qps", lat.len() as f64 / window, "1/s");
    report.set("query_geomean_ms", geomean(&medians), "ms");
    report.set("worst_query_ms", medians.iter().copied().fold(0.0, f64::max), "ms");
    report.set("latency_p50_ms", percentile(&lat, 0.5), "ms");
    report.set("latency_p99_ms", percentile(&lat, 0.99), "ms");
    report.set("write_p50_ms", percentile(&log.writes, 0.5), "ms");
    report.set("write_p90_ms", percentile(&log.writes, 0.9), "ms");
    report.set("store_bytes_ratio", store_bytes_ratio(&m.xml), "ratio");
}

/// Page-file bytes over XML bytes of the served document.
fn store_bytes_ratio(xml: &str) -> f64 {
    let Document::Arena(a) = Document::parse(xml).expect("parse") else {
        unreachable!("arena")
    };
    let path = crate::scratch_dir().join("service.natix");
    xmlstore::diskstore::create_store_file(&a, &path).expect("persist for size");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    bytes as f64 / xml.len() as f64
}

pub fn run_traced(seed: u64, seconds: f64, trace_path: &Path, report: &mut Report) {
    let m = mix(seed);
    let mut s = start(&m);
    report.set("xmlstore.parse_s", s.parse.as_secs_f64(), "s");

    // Operator counters and the profiler's cost over the corpus.
    let session = s.engine.session().with_options(TranslateOptions::improved());
    let doc = s.engine.document("dblp").expect("registered");
    let queries: Vec<(&dyn XmlStore, &str)> =
        m.corpus.iter().map(|r| (doc.store(), r.query.as_str())).collect();
    crate::batch::analyze_counters(&session, &queries, report);
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    for r in &m.corpus {
        let t = Instant::now();
        std::hint::black_box(session.analyze(doc.store(), &r.query).expect("analyze"));
        profiled.push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(session.evaluate(doc.store(), &r.query).expect("evaluate"));
        plain.push(ms(t.elapsed()));
    }
    report.set(
        "nqe.profiled_over_plain",
        geomean(&profiled.iter().zip(&plain).map(|(a, b)| a / b).collect::<Vec<_>>()),
        "ratio",
    );

    let before = s.engine.cache_stats();
    let (log, _) = drive(&mut s, &m, seed, seconds, true);
    let after = s.engine.cache_stats();
    stop(s);
    account(&log, report);
    let l = &log.layers;
    let reads = log.reads.len() as u64;
    // Lookups by served requests only: every read made one on the
    // server; the in-process replay and the decomposition added theirs.
    let served_hits = (after.hits - before.hits).saturating_sub(reads + l.decomposed_lookups);
    report.set("engine.plan_cache_hit_ratio", served_hits as f64 / reads.max(1) as f64, "ratio");
    report.set("engine.plan_cache_lookup_us", median(&l.lookup), "us");
    report.set("engine.admit_wait_us", median(&l.admit), "us");
    report.set("engine.write_batch_open_ms", median(&l.write_open), "ms");
    report.set("engine.commit_ms", median(&l.commit), "ms");
    report.set("xpath-syntax.frontend_us", median(&l.frontend), "us");
    report.set("compiler.translate_us", median(&l.translate), "us");
    report.set("compiler.plan_ops", mean(&l.plan_ops), "count");
    report.set("nqe.codegen_us", median(&l.codegen), "us");
    report.set("nqe.execute_geomean_ms", geomean(&l.execute), "ms");
    report.set("service.handle_us", median(&l.handle), "us");
    report.set("service.transport_ms", median(&l.transport), "ms");
    report.set("service.render_us", median(&l.render), "us");
    report.set("service.rejected", log.rejected as f64, "count");
    report.set(
        "telemetry.overhead_ratio",
        geomean(&l.observed.iter().zip(&l.plain).map(|(a, b)| a / b).collect::<Vec<_>>()) - 1.0,
        "ratio",
    );

    // Reconcile the decomposed layers against the untraced in-process
    // `handle` of the same lines; what remains is the protocol, the
    // worker-pool hop and the telemetry fold.
    let tracer = log.tracer.expect("traced run");
    report.set("trace.self_ms.transport", mean(&l.transport), "ms");
    crate::report::reconcile(&tracer, mean(&l.handle) / 1e3, report);
    println!(
        "reads: {reads}, writes: {}, handle {:.1} us, transport {:.3} ms",
        log.writes.len(),
        median(&l.handle),
        median(&l.transport),
    );
    if let Err(e) = tracer.write(trace_path) {
        eprintln!("warning: could not write spans to {}: {e}", trace_path.display());
    }
}
