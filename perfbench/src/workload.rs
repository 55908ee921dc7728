//! The three workloads: their fixed parameters, their data, and the
//! deterministic operation stream each one feeds the engine.
//!
//! Everything here is a pure function of the workload seed. The engine
//! only ever sees the generated graphs and GraphQL program text.

use gql_core::{Graph, GraphCollection, GraphStats, Tuple, Value};
use gql_datagen::queries::clique_query;
use gql_datagen::{
    connected_subgraph_query, erdos_renyi, molecule_collection, ppi_network, ErConfig,
    MoleculeConfig, PpiConfig,
};
use gql_match::{match_pattern, GraphIndex, MatchOptions, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Which data and statement mix a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Clique FLWR statements over the §5.1 PPI-shaped graph.
    Ppi,
    /// Distinct connected-subgraph statements over a §5.2 ER graph.
    Er,
    /// Substructure reads and collection writes over a compound library.
    Molecules,
}

/// The fixed parameters of one workload. `workloads.json` describes the
/// same values for readers.
#[derive(Debug)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Data and statement mix.
    pub kind: Kind,
    /// Why the workload exists, in one sentence.
    pub why: &'static str,
    /// On average one operation in this many is a write.
    pub write_one_in: u32,
    /// A checkpoint follows every this many acknowledged writes.
    pub checkpoint_every: u32,
    /// Whether the query pipeline records into the metrics registry
    /// (`serve_metrics` leaves it attached). Where this is false the
    /// scraper still reads the registry, which then holds storage
    /// metrics only, and statements run the uninstrumented kernels.
    pub query_telemetry: bool,
    /// Distinct read programs drawn from (0 = every read is new).
    pub pool: usize,
    /// Whether pool reads are drawn with skewed popularity (else uniform):
    /// entry `r` with weight `1 / (r + POPULARITY_OFFSET)`.
    pub skewed_pool: bool,
    /// Reads checked against the baseline matcher: the first this many
    /// distinct pool entries read (checked when first read), or the first
    /// this many reads (checked after the timed loop) without a pool.
    pub oracle_sample: usize,
}

/// Engine worker threads (`Database::with_threads`) on every workload,
/// fixed rather than derived from the core count. One thread: on a
/// 2-vCPU machine a second σ worker leaves no core for the metrics
/// server and kernel I/O, and molecules_rw's sub-millisecond
/// operations then spread by 0.2-0.4 (quartile distance over median)
/// across runs, wider than any usable bound.
pub const ENGINE_THREADS: usize = 1;
/// Size of the "recent" collections every workload rewrites.
pub const RECENT_COLLECTIONS: usize = 16;
/// Graph variables the `:=` and `let` writes cycle through.
pub const VARS: usize = 8;
/// Nodes in the ER data graph.
pub const ER_NODES: usize = 10_000;
/// Molecules in the compound collection.
pub const MOLECULES: usize = 2000;
/// Answers per matched graph at which a statement stops, applied to the
/// engine and the oracle alike: the paper's §5.1 low-hit threshold, so
/// that tail latency follows statement cost rather than how many
/// thousand-answer statements a seed happens to draw.
pub const MAX_HITS: usize = 100;
/// Zipf–Mandelbrot offset of the skewed pool popularity: the most
/// popular of 256 entries gets about 3% of reads, so the median read is
/// set by many entries rather than by whichever query ranks first.
pub const POPULARITY_OFFSET: f64 = 10.0;

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "ppi_flwr",
        kind: Kind::Ppi,
        why: "small clique FLWR reads on the PPI graph from a skewed 256-entry pool: parse, compile, snapshot, the select loop, compose and telemetry dominate; the plan cache fits",
        write_one_in: 16,
        checkpoint_every: 128,
        query_telemetry: true,
        pool: 256,
        skewed_pool: true,
        oracle_sample: 64,
    },
    Spec {
        name: "er_subgraph",
        kind: Kind::Er,
        why: "distinct 8- and 20-node subgraph reads on a 10k-node ER graph: retrieval, refinement, search and the per-read graph clone dominate; the plan cache is bypassed",
        write_one_in: 4,
        checkpoint_every: 64,
        query_telemetry: false,
        pool: 0,
        skewed_pool: false,
        oracle_sample: 8,
    },
    Spec {
        name: "molecules_rw",
        kind: Kind::Molecules,
        why: "substructure reads over 2000 small graphs, a quarter writes, set-up by reopening a checkpoint plus WAL tail: fsync, checkpoints, recovery and index rebuilds on the hot path",
        write_one_in: 4,
        checkpoint_every: 16,
        query_telemetry: false,
        pool: 64,
        skewed_pool: false,
        oracle_sample: 64,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Per-purpose seeds derived from the workload seed, so that adding a
/// draw to one generator never shifts another.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    // SplitMix64 finalizer over (seed, purpose).
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(purpose.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated inputs of one workload.
pub struct Data {
    /// Name of the large collection every steady read targets.
    pub main_name: &'static str,
    /// Its contents (one graph for PPI and ER).
    pub main: GraphCollection,
    /// Initial contents of `recent00` … `recent15`.
    pub recent: Vec<GraphCollection>,
    /// Read programs the pool workloads draw from.
    pub pool: Vec<String>,
    /// The first statement of every set-up.
    pub first: String,
}

/// Name of recent collection `i`.
pub fn recent_name(i: usize) -> String {
    format!("recent{i:02}")
}

impl Data {
    /// Generates the data for `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Data {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        let (main_name, main) = match spec.kind {
            Kind::Ppi => (
                "ppi",
                GraphCollection::from_graph(ppi_network(&PpiConfig {
                    seed: sub_seed(seed, 2),
                    ..PpiConfig::default()
                })),
            ),
            Kind::Er => (
                "er",
                GraphCollection::from_graph(erdos_renyi(&ErConfig::paper_default(
                    ER_NODES,
                    sub_seed(seed, 2),
                ))),
            ),
            Kind::Molecules => (
                "compounds",
                molecule_collection(&MoleculeConfig {
                    count: MOLECULES,
                    heterocyclic_fraction: 0.3,
                    seed: sub_seed(seed, 2),
                }),
            ),
        };
        let mut data = Data {
            main_name,
            main,
            recent: Vec::new(),
            pool: Vec::new(),
            first: String::new(),
        };
        data.recent = (0..RECENT_COLLECTIONS)
            .map(|_| data.recent_contents(spec.kind, &mut rng))
            .collect();
        data.pool = data.make_pool(spec, seed);
        // The first statement reads the most frequent label, so its cost
        // (index build aside) is alike for every seed.
        let (label, exhaustive) = match spec.kind {
            Kind::Ppi => (gql_datagen::ppi::go_label(0), true),
            Kind::Er => (gql_datagen::er::label_name(0), true),
            Kind::Molecules => ("C".to_string(), false),
        };
        data.first = format!(
            "for graph Q {{ node n0 <label=\"{label}\">; }}{} in doc(\"{main_name}\") return {};",
            if exhaustive { " exhaustive" } else { "" },
            TEMPLATES[0]
        );
        data
    }

    fn main_graph(&self) -> &Graph {
        self.main.get(0).expect("main collection is never empty")
    }

    fn make_pool(&self, spec: &Spec, seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
        match spec.kind {
            Kind::Ppi => {
                // Clique sizes 3–5 over the top-40 labels (§5.1), stratified:
                // the same share of entries has answers for every seed, and
                // answered entries take every third of eight popularity
                // ranks, so the share of reads that pay for matches (and
                // the data-graph clone) does not move with the seed.
                let g = self.main_graph();
                let stats = GraphStats::collect(g);
                let top = stats.top_labels(40);
                let cum: Vec<f64> = top
                    .iter()
                    .scan(0.0, |acc, l| {
                        *acc += stats.node_label_freq(l) as f64;
                        Some(*acc)
                    })
                    .collect();
                let index = GraphIndex::build_with_profiles(g, 1);
                let probe = MatchOptions {
                    max_matches: 1,
                    report_baseline_space: false,
                    ..MatchOptions::default()
                };
                let want_answered = spec.pool * 3 / 8;
                let (mut answered, mut empty) = (Vec::new(), Vec::new());
                for i in 0.. {
                    if answered.len() == want_answered && empty.len() == spec.pool - want_answered {
                        break;
                    }
                    assert!(i < 1_000_000, "cannot fill the stratified clique pool");
                    let q = clique_query(3 + i % 3, &top, &cum, &mut rng);
                    let hit = !match_pattern(&Pattern::structural(q.clone()), g, &index, &probe)
                        .mappings
                        .is_empty();
                    let bucket = if hit { &mut answered } else { &mut empty };
                    let cap = if hit {
                        want_answered
                    } else {
                        spec.pool - want_answered
                    };
                    if bucket.len() < cap {
                        bucket.push(q);
                    }
                }
                (0..spec.pool)
                    .map(|r| {
                        let q = if matches!(r % 8, 1 | 4 | 6) {
                            answered.pop()
                        } else {
                            empty.pop()
                        }
                        .expect("strata sized to the rank pattern");
                        let t = rng.gen_range(0..TEMPLATES.len());
                        read_program(&q, self.main_name, true, t)
                    })
                    .collect()
            }
            Kind::Molecules => (0..spec.pool)
                .map(|r| {
                    // Stratified like the PPI pool: sizes 3-7 in rotation,
                    // and three in ten entries cut from the heterocyclic
                    // compounds (the collection's first 30%), so the pool's
                    // selectivity mix is the same for every seed.
                    let hetero = self.main.len() * 3 / 10;
                    let range = if r % 10 < 3 {
                        0..hetero
                    } else {
                        hetero..self.main.len()
                    };
                    let size = 3 + r % 5;
                    let q = loop {
                        let m = self
                            .main
                            .get(rng.gen_range(range.clone()))
                            .expect("index in range");
                        if let Some(q) = connected_subgraph_query(m, size, &mut rng) {
                            break q;
                        }
                    };
                    let t = rng.gen_range(0..TEMPLATES.len());
                    read_program(&q, self.main_name, false, t)
                })
                .collect(),
            Kind::Er => Vec::new(),
        }
    }

    /// Fresh contents for a recent collection: induced subgraphs of the
    /// main graph (PPI, ER) or newly generated molecules.
    fn recent_contents(&self, kind: Kind, rng: &mut StdRng) -> GraphCollection {
        let mut c = GraphCollection::new();
        match kind {
            Kind::Ppi | Kind::Er => {
                while c.len() < 4 {
                    if let Some(g) = connected_subgraph_query(self.main_graph(), 24, rng) {
                        c.push(g);
                    }
                }
            }
            Kind::Molecules => {
                for _ in 0..8 {
                    let hetero = rng.gen_bool(0.3);
                    c.push(gql_datagen::molecules::molecule(hetero, rng));
                }
            }
        }
        c
    }
}

/// `return` templates the read programs cycle through.
const TEMPLATES: [&str; 2] = [
    "graph { node r <who=Q.n0.label>; }",
    "graph { node a <x=Q.n0.label>; node b <y=Q.n1.label>; edge e (a, b); }",
];

/// Writes a tuple's attributes (tag dropped) as pattern literals.
fn write_attrs(s: &mut String, t: &Tuple) {
    let attrs: Vec<(&str, &Value)> = t.iter().collect();
    if attrs.is_empty() {
        return;
    }
    s.push_str(" <");
    for (i, (k, v)) in attrs.iter().enumerate() {
        let sep = if i == 0 { "" } else { " " };
        let _ = write!(s, "{sep}{k}={v}");
    }
    s.push('>');
}

/// Renders query graph `q` as a FLWR read over `doc(source)`.
pub fn read_program(q: &Graph, source: &str, exhaustive: bool, template: usize) -> String {
    let mut s = String::from("for graph Q { ");
    for v in q.node_ids() {
        let _ = write!(s, "node n{}", v.0);
        write_attrs(&mut s, &q.node(v).attrs);
        s.push_str("; ");
    }
    for (id, e) in q.edges() {
        let _ = write!(s, "edge e{} (n{}, n{})", id.0, e.src.0, e.dst.0);
        write_attrs(&mut s, &e.attrs);
        s.push_str("; ");
    }
    let ex = if exhaustive { " exhaustive" } else { "" };
    let _ = write!(
        s,
        "}}{ex} in doc(\"{source}\") return {};",
        TEMPLATES[template]
    );
    s
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A FLWR read; `key` names its pool entry when reads repeat.
    Read { program: String, key: Option<usize> },
    /// `add_collection` replacing a recent collection, then a first
    /// read of it (index rebuilt on the hot path).
    Replace {
        name: String,
        contents: GraphCollection,
        read: String,
    },
    /// A `:=` assignment of a graph variable.
    Assign { var: String, program: String },
    /// A FLWR `let` accumulating into a graph variable.
    Let { var: String, program: String },
}

impl Op {
    /// Whether the operation mutates (and so WAL-logs) the database.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Read { .. })
    }
}

/// The endless, deterministic operation stream of one run.
pub struct Stream<'a> {
    spec: &'a Spec,
    data: &'a Data,
    rng: StdRng,
    /// Cumulative popularity weights of the pool entries.
    popularity: Vec<f64>,
    /// Current contents of each recent collection, so `let` statements
    /// can name a label that is present.
    recent: Vec<GraphCollection>,
    /// Writes issued so far; the write kind cycles with it so every run
    /// has the same write mix.
    writes: u64,
}

impl<'a> Stream<'a> {
    /// The stream for `spec` over `data`, from `seed`.
    pub fn new(spec: &'a Spec, data: &'a Data, seed: u64) -> Stream<'a> {
        Stream {
            spec,
            data,
            rng: StdRng::seed_from_u64(sub_seed(seed, 4)),
            popularity: (0..spec.pool)
                .scan(0.0, |acc, r| {
                    *acc += 1.0 / (r as f64 + POPULARITY_OFFSET);
                    Some(*acc)
                })
                .collect(),
            recent: data.recent.clone(),
            writes: 0,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        if self.rng.gen_range(0..self.spec.write_one_in) == 0 {
            return self.write_op();
        }
        match self.spec.kind {
            Kind::Er => {
                let size = if self.rng.gen_bool(0.5) { 8 } else { 20 };
                let q = loop {
                    if let Some(q) =
                        connected_subgraph_query(self.data.main_graph(), size, &mut self.rng)
                    {
                        break q;
                    }
                };
                let t = self.rng.gen_range(0..TEMPLATES.len());
                Op::Read {
                    program: read_program(&q, self.data.main_name, true, t),
                    key: None,
                }
            }
            Kind::Ppi | Kind::Molecules => {
                let i = if self.spec.skewed_pool {
                    let total = self.popularity.last().copied().unwrap_or(0.0);
                    let u = self.rng.gen::<f64>() * total;
                    self.popularity
                        .partition_point(|&c| c <= u)
                        .min(self.data.pool.len() - 1)
                } else {
                    self.rng.gen_range(0..self.data.pool.len())
                };
                Op::Read {
                    program: self.data.pool[i].clone(),
                    key: Some(i),
                }
            }
        }
    }

    fn write_op(&mut self) -> Op {
        let kind = self.spec.kind;
        let var = format!("v{}", self.rng.gen_range(0..VARS));
        let r = self.rng.gen_range(0..RECENT_COLLECTIONS);
        self.writes += 1;
        match self.writes % 4 {
            0 | 2 => {
                let contents = self.data.recent_contents(kind, &mut self.rng);
                let read = match kind {
                    Kind::Molecules => {
                        // A pool substructure over the new compounds.
                        let i = self.rng.gen_range(0..self.data.pool.len());
                        self.data.pool[i].replace(
                            &format!("doc(\"{}\")", self.data.main_name),
                            &format!("doc(\"{}\")", recent_name(r)),
                        )
                    }
                    Kind::Ppi | Kind::Er => {
                        let g = contents.get(0).expect("recent collections are non-empty");
                        let q = loop {
                            if let Some(q) = connected_subgraph_query(g, 4, &mut self.rng) {
                                break q;
                            }
                        };
                        let t = self.rng.gen_range(0..TEMPLATES.len());
                        read_program(&q, &recent_name(r), true, t)
                    }
                };
                self.recent[r] = contents.clone();
                Op::Replace {
                    name: recent_name(r),
                    contents,
                    read,
                }
            }
            1 => {
                let a: i64 = self.rng.gen_range(0..1_000_000);
                let b: i64 = self.rng.gen_range(0..1_000_000);
                Op::Assign {
                    program: format!(
                        "{var} := graph {{ node a <k={a}>; node b <k={b}>; edge e (a, b); }};"
                    ),
                    var,
                }
            }
            _ => {
                // One node whose label occurs in the collection, so the
                // `let` body runs and the variable is logged.
                let g = self.recent[r]
                    .get(0)
                    .expect("recent collections are non-empty");
                let v = gql_core::NodeId(self.rng.gen_range(0..g.node_count()) as u32);
                let label = g.node_label(v).expect("generated nodes are labelled");
                Op::Let {
                    program: format!(
                        "for graph Q {{ node n0 <label={label}>; }} in doc(\"{}\") let {var} := graph {{ node a <x=Q.n0.label>; }};",
                        recent_name(r)
                    ),
                    var,
                }
            }
        }
    }
}
