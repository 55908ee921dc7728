//! One benchmark run: set-up, the closed-loop operation stream, the
//! answer checks and the durability check after reopen.

use crate::measure::{fnv1a, median, peak_rss_mb, reset_peak_rss, Metric, Samples, FNV_INIT};
use crate::trace::{traced_read, Recorder, DECOMPOSED};
use crate::workload::{recent_name, Data, Kind, Op, Spec, Stream, ENGINE_THREADS, MAX_HITS};
use gql_algebra::compile_pattern;
use gql_algebra::PatternRegistry;
use gql_core::storage::{encode_collection, encode_graph};
use gql_core::{GraphCollection, Obs, ObsReport};
use gql_engine::{Database, ExecOutcome, MetricsRegistry};
use gql_match::{match_pattern, GraphIndex, MatchOptions};
use gql_parser::ast::{PatternRef, Statement};
use gql_parser::parse_program;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the operation stream runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Wall-clock seconds (the timed benchmark).
    Seconds(f64),
    /// A fixed number of operations (the determinism test).
    Ops(u64),
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub spec: &'static Spec,
    /// Workload seed: the same seed gives the same data and stream.
    pub seed: u64,
    /// Length of the operation stream.
    pub limit: Limit,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Working directory for data directories and span files.
    pub work_dir: PathBuf,
}

/// Set-up is timed in two batches, one before the stream and one after
/// it, so that a slow spell of the host falls in one batch at most. Each
/// batch runs at least this many set-ups and for at least
/// [`SETUP_BATCH`]; `setup_s` is the median over both batches.
const SETUP_BATCH_REPS: usize = 11;
/// Least duration of one set-up batch.
const SETUP_BATCH: Duration = Duration::from_secs(1);

/// Result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reads, writes, checkpoints, scrapes).
    pub attempted: u64,
    /// Operations that failed or answered wrongly, plus acknowledged
    /// writes missing after reopen.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report (printed before the result line).
    pub report: String,
    /// Deterministic work counters (totals over the stream).
    pub counters: BTreeMap<String, u64>,
    /// Digest over every answer of the stream, in order.
    pub answer_digest: u64,
    /// Digest over the generated inputs.
    pub input_digest: u64,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Scrape period of the `/metrics` scraper (20 Hz).
const SCRAPE_PERIOD: Duration = Duration::from_millis(50);

fn digest(c: &GraphCollection) -> u64 {
    fnv1a(FNV_INIT, &encode_collection(c.iter()))
}

/// The reference answer: the result count of `program` over `coll`
/// through the unoptimised Alg. 4.1 path (`MatchOptions::baseline()`
/// via `match_pattern`), one graph at a time. `indexes` may hold
/// prebuilt baseline indexes for `coll`.
fn oracle_count(
    program: &str,
    coll: &GraphCollection,
    indexes: Option<&[GraphIndex]>,
) -> Result<usize, String> {
    let program = parse_program(program).map_err(|e| e.to_string())?;
    let [Statement::Flwr(f)] = program.statements.as_slice() else {
        return Err("oracle checks single FLWR statements".into());
    };
    let PatternRef::Inline(ast) = &f.pattern else {
        return Err("oracle checks inline patterns".into());
    };
    if f.where_clause.is_some() {
        return Err("oracle does not fold where clauses".into());
    }
    let compiled = compile_pattern(ast, &PatternRegistry::default()).map_err(|e| e.to_string())?;
    let opts = MatchOptions {
        exhaustive: f.exhaustive,
        max_matches: MAX_HITS,
        ..MatchOptions::baseline()
    };
    let mut n = 0;
    for (i, g) in coll.iter().enumerate() {
        let owned;
        let ix = match indexes {
            Some(ix) => &ix[i],
            None => {
                owned = GraphIndex::build(g);
                &owned
            }
        };
        n += match_pattern(&compiled.pattern, g, ix, &opts)
            .mappings
            .len();
    }
    Ok(n)
}

/// `/metrics` scraper on a fixed 20 Hz schedule, driven from the client
/// loop: a scrape that is due runs between two operations, so the only
/// thread running while it is timed is the engine's HTTP server. A
/// scraper thread of its own would race the client thread for the cores
/// and time the scheduler rather than the endpoint.
struct Scraper {
    addr: SocketAddr,
    render: Option<Arc<MetricsRegistry>>,
    due: Instant,
    stats: ScrapeStats,
}

#[derive(Default)]
struct ScrapeStats {
    latency: Samples,
    render_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    s.set_read_timeout(Some(Duration::from_secs(2)))?;
    s.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut body = String::new();
    s.read_to_string(&mut body)?;
    Ok(body)
}

impl Scraper {
    /// Scrapes `addr`, first after one period. With `render`, each scrape
    /// also times one direct `MetricsRegistry::render_metrics` call
    /// (traced run).
    fn new(addr: SocketAddr, render: Option<Arc<MetricsRegistry>>) -> Scraper {
        Scraper {
            addr,
            render,
            due: Instant::now() + SCRAPE_PERIOD,
            stats: ScrapeStats::default(),
        }
    }

    /// Scrapes once if a scrape is due. An operation longer than the
    /// period delays the next scrape; missed ticks are dropped, not
    /// made up in a burst.
    fn tick(&mut self) {
        let now = Instant::now();
        if now < self.due {
            return;
        }
        self.due = (self.due + SCRAPE_PERIOD).max(now);
        let st = &mut self.stats;
        st.attempted += 1;
        let t = Instant::now();
        match http_get(self.addr, "/metrics") {
            Ok(r) if r.starts_with("HTTP/1.1 200") => st.latency.push(t.elapsed()),
            _ => st.failed += 1,
        }
        if let Some(reg) = &self.render {
            let t = Instant::now();
            std::hint::black_box(reg.render_metrics());
            st.render_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// What the durability check expects after reopen, besides the main
/// collection (compared against the generated data): the encoded bytes
/// of every acknowledged recent collection and variable value.
#[derive(Default)]
struct Expected {
    collections: BTreeMap<String, Vec<u8>>,
    vars: BTreeMap<String, Vec<u8>>,
}

/// Storage-side byte accounting for `write_amp`, over whole checkpoint
/// cycles (writes after the last checkpoint are left out, so the ratio
/// does not depend on where the run happened to stop).
#[derive(Default)]
struct Bytes {
    /// Encoded user payload of the writes since the last checkpoint.
    pending_payload: u64,
    /// Payload of the writes in completed cycles.
    payload: u64,
    /// WAL bytes, checkpoint segments and manifests of completed cycles.
    written: u64,
    checkpoint_sizes: Vec<f64>,
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.counter(name).get()
}

/// Set-up timings and first answers, over both batches.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    /// `Database::open` times of the molecules set-ups.
    open_ms: Vec<f64>,
    /// Answer count of each set-up's first statement.
    first_counts: Vec<usize>,
    /// WAL frames the molecules set-up replays.
    replay_frames: u64,
}

/// The answer count of a set-up's first statement (`None` when it
/// failed, which is recorded).
fn first_count(r: gql_engine::Result<ExecOutcome>, out: &mut Outcome) -> Option<usize> {
    out.attempted += 1;
    match r {
        Ok(o) if o.returned.len() == 1 => Some(o.returned[0].len()),
        Ok(_) => {
            out.fail("first statement returned no collection".into());
            None
        }
        Err(e) => {
            out.fail(format!("first statement: {e}"));
            None
        }
    }
}

fn fresh_dir(p: &Path) -> Result<(), String> {
    if p.exists() {
        std::fs::remove_dir_all(p).map_err(|e| format!("clear {}: {e}", p.display()))?;
    }
    std::fs::create_dir_all(p).map_err(|e| format!("create {}: {e}", p.display()))
}

fn configure(db: Database) -> Database {
    let mut db = db.with_threads(ENGINE_THREADS);
    db.options.max_matches = MAX_HITS;
    db
}

fn open(dir: &Path) -> Result<Database, String> {
    Database::open(dir)
        .map(configure)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// One batch of timed set-ups, each dropped untimed. PPI and ER:
/// `Database::new` + `add_graph` + the first statement (index build
/// included). Molecules (`prepared` set): `Database::open` of the
/// prepared checkpoint + WAL-tail directory (replay, lazy adoption) +
/// the first statement.
fn setup_batch(
    data: &Data,
    prepared: Option<&Path>,
    times: &mut SetupTimes,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let mut reps = 0;
    while reps < SETUP_BATCH_REPS || started.elapsed() < SETUP_BATCH {
        reps += 1;
        let graph = prepared
            .is_none()
            .then(|| data.main.get(0).expect("main graph").clone());
        let t0 = Instant::now();
        let mut db = match prepared {
            Some(dir) => open(dir)?,
            None => configure(Database::new()),
        };
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(g) = graph {
            db.add_graph(data.main_name, g);
        }
        let r = db.execute(&data.first);
        times.setup_s.push(t0.elapsed().as_secs_f64());
        if prepared.is_some() {
            times.open_ms.push(open_ms);
            times.replay_frames = counter(db.metrics().obs(), "storage.wal.replay_frames");
        }
        times.first_counts.extend(first_count(r, out));
    }
    Ok(())
}

/// Molecules (untimed): a directory holding the compounds and the recent
/// collections in a checkpoint, then a WAL tail of recent-collection
/// rewrites and assignments. Set-ups reopen it; the stream runs on a copy.
fn prepare(data: &Data, root: &Path, expected: &mut Expected) -> Result<PathBuf, String> {
    let dir = root.join("prepared");
    fresh_dir(&dir)?;
    let mut db = open(&dir)?;
    db.add_collection(data.main_name, data.main.clone());
    for (i, c) in data.recent.iter().enumerate() {
        db.add_collection(recent_name(i), c.clone());
    }
    db.execute(&data.first)
        .map_err(|e| format!("prepare: {e}"))?;
    db.checkpoint()
        .map_err(|e| format!("prepare checkpoint: {e}"))?;
    for (i, c) in data.recent.iter().enumerate().rev() {
        db.add_collection(recent_name(i), c.clone());
        expected
            .collections
            .insert(recent_name(i), encode_collection(c.iter()));
    }
    for v in 0..4 {
        let prog = format!("v{v} := graph {{ node a <k={v}>; }};");
        db.execute(&prog).map_err(|e| format!("prepare: {e}"))?;
        let g = db.var(&format!("v{v}")).expect("assigned");
        expected.vars.insert(format!("v{v}"), encode_graph(g));
    }
    if let Some(e) = db.storage_error() {
        return Err(format!("prepare: {e}"));
    }
    Ok(dir)
}

/// The database the stream runs on, built untimed, and its directory.
/// PPI and ER open an empty directory (its `Database::open` time is
/// returned) and load the graph and the recent collections; molecules
/// open a copy of the prepared directory. The first statement warms the
/// snapshot the stream's reads hit.
fn stream_db(
    data: &Data,
    root: &Path,
    prepared: Option<&Path>,
    expected: &mut Expected,
    times: &mut SetupTimes,
    out: &mut Outcome,
) -> Result<(Database, PathBuf, f64), String> {
    let dir = root.join("db");
    fresh_dir(&dir)?;
    if let Some(src) = prepared {
        let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", src.display()))?;
            std::fs::copy(entry.path(), dir.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    let t0 = Instant::now();
    let mut db = open(&dir)?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    if prepared.is_none() {
        db.add_graph(
            data.main_name,
            data.main.get(0).expect("main graph").clone(),
        );
        for (i, c) in data.recent.iter().enumerate() {
            db.add_collection(recent_name(i), c.clone());
            expected
                .collections
                .insert(recent_name(i), encode_collection(c.iter()));
        }
    }
    times
        .first_counts
        .extend(first_count(db.execute(&data.first), out));
    Ok((db, dir, open_ms))
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    /// Self time per layer span name, summed over steady (snapshot-hit)
    /// traced reads.
    self_ns: BTreeMap<&'static str, u64>,
    /// `Database::execute` time of the same reads, summed.
    exec_ns: u64,
    /// `exec_ns` minus the layer self times: the engine's own work.
    unattributed_ns: i64,
    steady: u64,
    counters: BTreeMap<&'static str, u64>,
    compose_graphs: u64,
    index_build_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    /// Decomposed and `Database::execute` time of each steady read.
    traced_ms: Samples,
    exec_ms: Samples,
}

/// Answer bookkeeping shared by both runs. Reads of the main collection
/// are checked against the baseline matcher after the timed loop, from
/// the counts and digests kept here, so the oracle's indexes over it
/// never share memory or time with the stream.
struct Checker<'a> {
    data: &'a Data,
    main_indexes: Option<Vec<GraphIndex>>,
    /// First-pass digest and count of each pool read.
    pool: BTreeMap<usize, (u64, usize)>,
    /// Reads kept for the after-loop oracle and second pass:
    /// (program, count, digest).
    sample: Vec<(String, usize, u64)>,
    answer_digest: u64,
}

impl Checker<'_> {
    fn oracle_main(&mut self, program: &str) -> Result<usize, String> {
        let data = self.data;
        let ix = self
            .main_indexes
            .get_or_insert_with(|| data.main.iter().map(GraphIndex::build).collect());
        oracle_count(program, &data.main, Some(ix))
    }

    /// Records a read of the main collection; a repeated pool read must
    /// equal its first answer. Returns a failure text.
    fn check_read(
        &mut self,
        spec: &Spec,
        program: &str,
        key: Option<usize>,
        c: &GraphCollection,
    ) -> Option<String> {
        let d = digest(c);
        self.answer_digest = fnv1a(self.answer_digest, &d.to_le_bytes());
        if let Some(k) = key {
            if let Some(&(d0, _)) = self.pool.get(&k) {
                return (d0 != d).then(|| format!("pool read {k}: answer differs from first pass"));
            }
            self.pool.insert(k, (d, c.len()));
        }
        if self.sample.len() < spec.oracle_sample {
            self.sample.push((program.to_string(), c.len(), d));
        }
        None
    }

    /// Checks the first read of a just-written collection against the
    /// baseline over the written contents (a few small graphs).
    fn check_fresh(
        &mut self,
        program: &str,
        contents: &GraphCollection,
        c: &GraphCollection,
    ) -> Option<String> {
        self.answer_digest = fnv1a(self.answer_digest, &digest(c).to_le_bytes());
        match oracle_count(program, contents, None) {
            Ok(n) if n == c.len() => None,
            Ok(n) => Some(format!("fresh read: {} results, baseline {n}", c.len())),
            Err(e) => Some(format!("fresh read: oracle: {e}")),
        }
    }
}

/// Runs one workload and returns its metrics. The run's data
/// directories live under `<work_dir>/<workload>-<pid>` and are removed
/// afterwards, on success or failure.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let root = cfg
        .work_dir
        .join(format!("{}-{}", cfg.spec.name, std::process::id()));
    let result = run_in(cfg, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(cfg: &Config, root: &Path) -> Result<Outcome, String> {
    let spec = cfg.spec;
    let mut out = Outcome::default();
    let data = Data::generate(spec, cfg.seed);
    let mut stream = Stream::new(spec, &data, cfg.seed);
    let first = data.first.clone();
    out.input_digest = {
        let mut h = fnv1a(FNV_INIT, &encode_collection(data.main.iter()));
        for p in data.pool.iter().chain([&first]) {
            h = fnv1a(h, p.as_bytes());
        }
        h
    };

    let mut expected = Expected::default();
    let prepared = match spec.kind {
        Kind::Molecules => Some(prepare(&data, root, &mut expected)?),
        Kind::Ppi | Kind::Er => None,
    };
    let mut times = SetupTimes::default();
    setup_batch(&data, prepared.as_deref(), &mut times, &mut out)?;
    let (mut engine, dir, stream_open_ms) = stream_db(
        &data,
        root,
        prepared.as_deref(),
        &mut expected,
        &mut times,
        &mut out,
    )?;
    let db = &mut engine;
    let registry = Arc::clone(db.metrics());
    let obs = Arc::clone(registry.obs());
    let addr = db
        .serve_metrics("127.0.0.1:0")
        .map_err(|e| format!("serve_metrics: {e}"))?;
    // `serve_metrics` attaches the registry to the query pipeline; keep it
    // only where the workload asks for query telemetry.
    let query_obs = db.options.obs.clone().filter(|_| spec.query_telemetry);
    db.options.obs = query_obs.clone();
    let mut scraper = Scraper::new(addr, cfg.trace.then(|| Arc::clone(&registry)));

    let mut checker = Checker {
        data: &data,
        main_indexes: None,
        pool: BTreeMap::new(),
        sample: Vec::new(),
        answer_digest: FNV_INIT,
    };
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let mut generation = 1u64 << 48;

    let mut reads = Samples::default();
    let mut writes = Samples::default();
    let mut fresh = Samples::default();
    let mut checkpoints = Samples::default();
    let mut bytes = Bytes::default();
    let mut busy = Duration::ZERO;
    let mut ops = 0u64;
    let mut writes_since_checkpoint = 0u32;
    let mut read_no = 0u64;
    let wal_bytes0 = counter(&obs, "storage.wal.append_bytes");
    let mut cycle_wal0 = wal_bytes0;
    let wal_appends0 = counter(&obs, "storage.wal.appends");
    let phases0 = obs.report();

    // One read, timed from program text to returned collection. In the
    // traced run every other read is both decomposed layer by layer and
    // run through `Database::execute` on the same snapshot: the latter is
    // the statement time the layers are split against, and its answer
    // must equal the decomposed one. A statement's second execution finds
    // warm caches (and, on a distinct read, its plan cached), so the two
    // take turns going first.
    let mut read = |db: &mut Database,
                    program: &str,
                    out: &mut Outcome,
                    rec: &mut Recorder,
                    layers: &mut Layers|
     -> Option<(GraphCollection, Duration)> {
        read_no += 1;
        out.attempted += 1;
        if cfg.trace && read_no.is_multiple_of(2) {
            db.options.obs = Some(Arc::clone(&obs));
            let delta = |w: &(ObsReport, ObsReport), name: &str| {
                w.1.counter(name).unwrap_or(0) - w.0.counter(name).unwrap_or(0)
            };
            let execute = |db: &mut Database, rec: &mut Recorder| {
                let before = obs.report();
                let sp = rec.begin(read_no, "engine.execute");
                let r = db.execute(program);
                rec.end(sp);
                (r, sp, (before, obs.report()))
            };
            let decompose = |db: &Database,
                             rec: &mut Recorder,
                             generation: &mut u64,
                             first: Option<&(ObsReport, ObsReport)>| {
                // A snapshot the execution just built is not the
                // decomposition's to reuse: it builds its own.
                let build = first.is_some_and(|w| delta(w, "engine.index_cache.misses") > 0);
                traced_read(db, program, read_no, rec, &obs, generation, build, first)
            };
            let (traced, (reference, replay, window)) = if read_no.is_multiple_of(4) {
                let e = execute(db, rec);
                (decompose(db, rec, &mut generation, Some(&e.2)), e)
            } else {
                let t = decompose(db, rec, &mut generation, None);
                (t, execute(db, rec))
            };
            layers.cache_hits += delta(&window, "engine.index_cache.hits");
            layers.cache_misses += delta(&window, "engine.index_cache.misses");
            db.options.obs = query_obs.clone();
            let traced = match traced {
                Ok(t) => t,
                Err(e) => {
                    out.fail(format!("traced read: {e}"));
                    return None;
                }
            };
            match reference {
                Ok(r) if r.returned.len() == 1 && digest(&r.returned[0]) == digest(&traced.out) => {
                }
                Ok(_) => out.fail("traced read differs from Database::execute".into()),
                Err(e) => out.fail(format!("reference read: {e}")),
            }
            for (k, v) in &traced.counters {
                *layers.counters.entry(k).or_insert(0) += v;
            }
            let exec_ns = rec.dur_ns(replay);
            let mut self_ns = rec.self_times(traced.root);
            if traced.hit {
                // The benchmark's glue between layer calls and the
                // engine execution itself are not layers.
                self_ns.remove(DECOMPOSED);
                self_ns.remove("engine.execute");
                let layer_ns: u64 = self_ns.values().sum();
                layers.steady += 1;
                layers.exec_ns += exec_ns;
                layers.unattributed_ns += exec_ns as i64 - layer_ns as i64;
                layers
                    .traced_ms
                    .push(Duration::from_nanos(rec.dur_ns(traced.root)));
                layers.exec_ms.push(Duration::from_nanos(exec_ns));
                layers.compose_graphs += traced.out.len() as u64;
                for (k, v) in self_ns {
                    *layers.self_ns.entry(k).or_insert(0) += v;
                }
            } else {
                layers
                    .index_build_ms
                    .push(self_ns["match.index_build"] as f64 / 1e6);
            }
            return Some((traced.out, Duration::from_nanos(exec_ns)));
        }
        let t = Instant::now();
        let r = db.execute(program);
        let dt = t.elapsed();
        match r {
            Ok(mut o) if o.returned.len() == 1 => {
                Some((o.returned.pop().expect("one collection"), dt))
            }
            Ok(_) => {
                out.fail("read returned no collection".into());
                None
            }
            Err(e) => {
                out.fail(format!("read: {e}"));
                None
            }
        }
    };

    // Data generation and set-up are the benchmark's, not the stream's:
    // `peak_rss_mb` starts from the resident set the stream begins with.
    let setup_peak_rss = peak_rss_mb();
    let rss_reset = reset_peak_rss();
    let started = Instant::now();
    loop {
        let more = match cfg.limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Limit::Ops(n) => ops < n,
        };
        if !more {
            break;
        }
        scraper.tick();
        ops += 1;
        let op = stream.next_op();
        let wrote = op.is_write();
        match op {
            Op::Read { program, key } => {
                if let Some((c, dt)) = read(db, &program, &mut out, &mut rec, &mut layers) {
                    busy += dt;
                    reads.push(dt);
                    if let Some(e) = checker.check_read(spec, &program, key, &c) {
                        out.fail(e);
                    }
                }
            }
            Op::Replace {
                name,
                contents,
                read: program,
            } => {
                let payload = encode_collection(contents.iter());
                let copy = contents.clone();
                out.attempted += 1;
                let t = Instant::now();
                db.add_collection(name.clone(), copy);
                let dt = t.elapsed();
                busy += dt;
                writes.push(dt);
                bytes.pending_payload += payload.len() as u64;
                match db.storage_error() {
                    Some(e) => out.fail(format!("write {name}: {e}")),
                    None => {
                        expected.collections.insert(name, payload);
                    }
                }
                if let Some((c, dt)) = read(db, &program, &mut out, &mut rec, &mut layers) {
                    busy += dt;
                    fresh.push(dt);
                    if let Some(e) = checker.check_fresh(&program, &contents, &c) {
                        out.fail(e);
                    }
                }
            }
            Op::Assign { var, program } | Op::Let { var, program } => {
                out.attempted += 1;
                let t = Instant::now();
                let r = db.execute(&program);
                let dt = t.elapsed();
                busy += dt;
                writes.push(dt);
                match (r, db.var(&var), db.storage_error()) {
                    (Err(e), _, _) => out.fail(format!("write {var}: {e}")),
                    (_, _, Some(e)) => out.fail(format!("write {var}: {e}")),
                    (Ok(_), None, _) => out.fail(format!("write {var}: variable unset")),
                    (Ok(_), Some(g), None) => {
                        let enc = encode_graph(g);
                        bytes.pending_payload += enc.len() as u64;
                        checker.answer_digest = fnv1a(checker.answer_digest, &enc);
                        expected.vars.insert(var, enc);
                    }
                }
            }
        }
        if wrote {
            writes_since_checkpoint += 1;
            if writes_since_checkpoint == spec.checkpoint_every {
                writes_since_checkpoint = 0;
                out.attempted += 1;
                let t = Instant::now();
                let r = db.checkpoint();
                let dt = t.elapsed();
                busy += dt;
                checkpoints.push(dt);
                match r {
                    Ok(()) => {
                        let seg = obs.gauge("storage.live_segment_bytes").get();
                        let manifest =
                            std::fs::metadata(dir.join("MANIFEST")).map_or(0, |m| m.len());
                        let wal = counter(&obs, "storage.wal.append_bytes");
                        bytes.written += wal - cycle_wal0 + seg + manifest;
                        cycle_wal0 = wal;
                        bytes.payload += std::mem::take(&mut bytes.pending_payload);
                        bytes.checkpoint_sizes.push(seg as f64);
                    }
                    Err(e) => out.fail(format!("checkpoint: {e}")),
                }
            }
        }
    }
    let elapsed = started.elapsed();
    let scrapes = scraper.stats;
    out.attempted += scrapes.attempted;
    out.failed += scrapes.failed;
    // Read before the after-loop checks and the reopen, whose memory is
    // the benchmark's, not the stream's.
    let peak_rss = peak_rss_mb();
    let wal_bytes = counter(&obs, "storage.wal.append_bytes") - wal_bytes0;
    let wal_appends = counter(&obs, "storage.wal.appends") - wal_appends0;
    let phases1 = obs.report();

    // After the loop (untimed): baseline answers for the set-up statement
    // and the read sample, and a second pass whose digests must equal
    // the first.
    let first_baseline = checker.oracle_main(&first);
    for (program, count, d) in std::mem::take(&mut checker.sample) {
        match checker.oracle_main(&program) {
            Ok(n) if n == count => {}
            Ok(n) => out.fail(format!("read: {count} results, baseline {n}")),
            Err(e) => out.fail(format!("read: oracle: {e}")),
        }
        match db.execute(&program) {
            Ok(o) if o.returned.len() == 1 && digest(&o.returned[0]) == d => {}
            _ => out.fail("read: second pass differs from first".into()),
        }
    }
    checker.main_indexes = None;

    // Durability: every acknowledged write must be present after reopen.
    drop(engine);
    match Database::open(&dir) {
        Ok(db) => {
            if db
                .collection(data.main_name)
                .is_none_or(|c| encode_collection(c.iter()) != encode_collection(data.main.iter()))
            {
                out.fail(format!(
                    "after reopen: collection {} missing or stale",
                    data.main_name
                ));
            }
            for (name, bytes) in &expected.collections {
                if db
                    .collection(name)
                    .map(|c| encode_collection(c.iter()))
                    .as_ref()
                    != Some(bytes)
                {
                    out.fail(format!("after reopen: collection {name} missing or stale"));
                }
            }
            for (name, bytes) in &expected.vars {
                if db.var(name).map(encode_graph).as_ref() != Some(bytes) {
                    out.fail(format!("after reopen: variable {name} missing or stale"));
                }
            }
        }
        Err(e) => out.fail(format!("reopen: {e}")),
    }

    setup_batch(&data, prepared.as_deref(), &mut times, &mut out)?;
    match first_baseline {
        Ok(n) => {
            for &c in times.first_counts.iter().filter(|&&c| c != n) {
                out.fail(format!("first statement: {c} results, baseline {n}"));
            }
        }
        Err(e) => out.fail(format!("first statement: oracle: {e}")),
    }
    let SetupTimes {
        setup_s,
        open_ms,
        replay_frames,
        ..
    } = times;
    let open_ms = if prepared.is_some() {
        open_ms
    } else {
        vec![stream_open_ms]
    };

    // Deterministic counters.
    out.answer_digest = checker.answer_digest;
    out.counters
        .insert("reads".into(), reads.len() as u64 + fresh.len() as u64);
    out.counters.insert("writes".into(), writes.len() as u64);
    out.counters
        .insert("checkpoints".into(), checkpoints.len() as u64);
    out.counters
        .insert("storage.wal.appends".into(), wal_appends);
    out.counters
        .insert("storage.wal.append_bytes".into(), wal_bytes);
    out.counters.insert(
        "storage.checkpoint_bytes".into(),
        bytes.checkpoint_sizes.iter().sum::<f64>() as u64,
    );
    for (k, v) in &layers.counters {
        out.counters.insert((*k).to_string(), *v);
    }

    let r = &mut out.report;
    let _ = writeln!(
        r,
        "workload {} seed {} trace {}: {} ops in {:.2} s ({:.2} s busy), engine threads {}, nproc {}",
        spec.name,
        cfg.seed,
        u8::from(cfg.trace),
        ops,
        elapsed.as_secs_f64(),
        busy.as_secs_f64(),
        ENGINE_THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(
        r,
        "samples: reads {} fresh reads {} writes {} checkpoints {} scrapes {} set-ups {}",
        reads.len(),
        fresh.len(),
        writes.len(),
        checkpoints.len(),
        scrapes.latency.len(),
        setup_s.len()
    );
    let attempted = out.attempted.max(1);
    let _ = writeln!(
        r,
        "peak RSS {setup_peak_rss:.1} MiB before the stream, {peak_rss:.1} MiB over it{}",
        if rss_reset {
            ""
        } else {
            " (VmHWM not resettable: since process start)"
        }
    );
    let _ = writeln!(
        r,
        "failed_frac {} ({} of {} operations)",
        out.failed as f64 / attempted as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        let _ = writeln!(r, "  failure: {f}");
    }
    let _ = writeln!(
        r,
        "counters: {}",
        out.counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        r,
        "answer digest {:016x}, input digest {:016x}",
        out.answer_digest, out.input_digest
    );
    if !checker.pool.is_empty() {
        let answered = checker.pool.values().filter(|(_, n)| *n > 0).count();
        let _ = writeln!(
            r,
            "pool: {} of {} entries read, {answered} with answers",
            checker.pool.len(),
            data.pool.len()
        );
    }

    let ms = |s: &Samples| s.median();
    // Tail percentiles are printed with their sample counts but kept out
    // of the result line (`reported_only` in `workloads.json` says why).
    let tail = |s: &Samples, name: &str, r: &mut String| {
        if let Some((p, v)) = s.tail() {
            let _ = writeln!(
                r,
                "{name} {v} ms: p{p} of {} samples, reported only (p90 {} p95 {} p99.5 {})",
                s.len(),
                s.percentile(90.0),
                s.percentile(95.0),
                s.percentile(99.5)
            );
        }
    };
    if cfg.trace {
        let storage = Storage {
            p0: &phases0,
            p1: &phases1,
            bytes: &bytes,
            open_ms: &open_ms,
            replay_frames,
            wal_appends,
            wal_bytes,
        };
        out.metrics = layer_metrics(&layers, &storage, &scrapes, r);
    } else {
        tail(&reads, "stmt_p99_ms", r);
        tail(&writes, "write_p99_ms", r);
        let statements = reads.len() + fresh.len() + writes.len();
        out.metrics = vec![
            Metric::new("stmt_p50_ms", ms(&reads)),
            Metric::new("stmts_per_s", statements as f64 / busy.as_secs_f64()),
            Metric::new("write_p50_ms", ms(&writes)),
            Metric::new("fresh_read_p50_ms", ms(&fresh)),
            Metric::new("checkpoint_p50_ms", ms(&checkpoints)),
            Metric::new("setup_s", median(&setup_s)),
            Metric::new("peak_rss_mb", peak_rss),
            Metric::new(
                "write_amp",
                if bytes.payload > 0 {
                    bytes.written as f64 / bytes.payload as f64
                } else {
                    f64::NAN
                },
            ),
            Metric::new("scrape_p50_ms", ms(&scrapes.latency)),
        ];
    }
    if cfg.trace {
        // A layer the stream did not reach (say, no checkpoint fell in
        // the run) reports zero work.
        for m in &mut out.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    let missing: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in missing {
        out.fail(format!("metric {name} has no value (too few samples)"));
    }
    if cfg.trace {
        let path = cfg.work_dir.join(format!("spans-{}.jsonl", spec.name));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let _ = writeln!(
            out.report,
            "spans: {} written to {}",
            rec.len(),
            path.display()
        );
    }
    Ok(out)
}

/// Storage-layer figures of the traced run.
struct Storage<'a> {
    p0: &'a gql_core::ObsReport,
    p1: &'a gql_core::ObsReport,
    bytes: &'a Bytes,
    open_ms: &'a [f64],
    replay_frames: u64,
    wal_appends: u64,
    wal_bytes: u64,
}

fn phase_mean(r0: &gql_core::ObsReport, r1: &gql_core::ObsReport, name: &str) -> f64 {
    let get = |r: &gql_core::ObsReport| {
        r.phase(name)
            .map_or((0, 0.0), |p| (p.count, p.total.as_secs_f64()))
    };
    let (c0, t0) = get(r0);
    let (c1, t1) = get(r1);
    if c1 > c0 {
        (t1 - t0) / (c1 - c0) as f64
    } else {
        0.0
    }
}

fn layer_metrics(l: &Layers, s: &Storage, scrapes: &ScrapeStats, r: &mut String) -> Vec<Metric> {
    let (p0, p1) = (s.p0, s.p1);
    let n = l.steady.max(1) as f64;
    let us = |name: &str| l.self_ns.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
    let c = |name: &str| l.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced_us = l.exec_ns as f64 / n / 1e3;
    let unattributed_us = l.unattributed_ns as f64 / n / 1e3;
    let _ = writeln!(
        r,
        "traced steady statements: {}; mean self time per statement:",
        l.steady
    );
    for name in l.self_ns.keys() {
        let _ = writeln!(r, "  {name:<22} {:>12.3} us", us(name));
    }
    let _ = writeln!(r, "  engine.unattributed    {unattributed_us:>12.3} us");
    let _ = writeln!(
        r,
        "  sum                    {traced_us:>12.3} us = mean Database::execute time"
    );
    let overhead = (l.traced_ms.median() / l.exec_ms.median() - 1.0) * 100.0;
    let _ = writeln!(
        r,
        "tracing overhead: decomposed p50 {} ms vs Database::execute p50 {} ms ({overhead:.1}%)",
        l.traced_ms.median(),
        l.exec_ms.median()
    );
    let misses = c("planner.cache.misses");
    let hits = c("planner.cache.hits");
    vec![
        Metric::new("parser.parse_us", us("parser.parse")),
        Metric::new("algebra.compile_us", us("algebra.compile")),
        Metric::new(
            "algebra.select_self_us",
            us("algebra.select") + us("algebra.release"),
        ),
        Metric::new("algebra.compose_us", us("algebra.compose")),
        Metric::new("algebra.compose_graphs", l.compose_graphs as f64 / n),
        Metric::new("engine.snapshot_us", us("engine.snapshot")),
        Metric::new(
            "engine.index_cache_hit_ratio",
            ratio(l.cache_hits as f64, (l.cache_hits + l.cache_misses) as f64),
        ),
        Metric::new("engine.metrics_render_us", median(&scrapes.render_us)),
        Metric::new("engine.unattributed_us", unattributed_us),
        Metric::new("match.index_build_ms", median(&l.index_build_ms)),
        Metric::new("match.retrieve_us", us("match.retrieve")),
        Metric::new("match.refine_us", us("match.refine")),
        Metric::new("match.order_us", us("match.order")),
        Metric::new("match.search_us", us("match.search")),
        Metric::new("match.retrieve_candidates", c("retrieve.candidates") / n),
        Metric::new(
            "match.retrieve_kept_ratio",
            ratio(c("retrieve.kept"), c("retrieve.candidates")),
        ),
        Metric::new(
            "match.refine_bipartite_checks",
            c("refine.bipartite_checks") / n,
        ),
        Metric::new(
            "match.refine_removed_ratio",
            ratio(c("refine.removed"), c("retrieve.kept")),
        ),
        Metric::new("match.search_steps", c("search.steps") / n),
        Metric::new("match.search_backtracks", c("search.backtracks") / n),
        Metric::new("match.plan_cache_hit_ratio", ratio(hits, hits + misses)),
        Metric::new(
            "storage.wal_append_us",
            phase_mean(p0, p1, "storage.wal.append") * 1e6,
        ),
        Metric::new(
            "storage.wal_fsync_us",
            phase_mean(p0, p1, "storage.wal.fsync") * 1e6,
        ),
        Metric::new(
            "storage.wal_bytes_per_write",
            ratio(s.wal_bytes as f64, s.wal_appends as f64),
        ),
        Metric::new(
            "storage.checkpoint_ms",
            phase_mean(p0, p1, "storage.checkpoint") * 1e3,
        ),
        Metric::new(
            "storage.checkpoint_bytes",
            median(&s.bytes.checkpoint_sizes),
        ),
        Metric::new("storage.open_ms", median(s.open_ms)),
        Metric::new("storage.wal_replay_frames", s.replay_frames as f64),
        Metric::new("bench.traced_stmt_us", traced_us),
        Metric::new("bench.trace_overhead_pct", overhead),
    ]
}
