//! The traced run's own spans and the decomposed read statement.
//!
//! A traced read does by hand what `Database::execute` does for a FLWR
//! `return` statement, calling each layer's public entry point inside a
//! span of this benchmark: `parse_program`, `compile_pattern` plus
//! where-folding, the snapshot lookup (or `ops::build_collection_snapshot`
//! on a miss), `ops::select_with_snapshot` and `instantiate` per match.
//! The matcher phases inside the select are not visible from here; their
//! times come from the registry phases `match_pattern` records
//! (`MatchReport::timings`) and are laid out as derived child spans of
//! the select span. The caller also runs the statement through
//! `Database::execute` under a root span `engine.execute` with the same
//! statement id, before or after the decomposition in turn; the layer
//! self times are split against that execution.
//! Spans stay in memory and are written out at the end.

use gql_algebra::compile::resolve_pattern_expr;
use gql_algebra::{
    compile_pattern, instantiate, ops, CompiledPattern, PatternRegistry, TemplateEnv,
};
use gql_core::{GraphCollection, Obs, ObsReport};
use gql_engine::Database;
use gql_match::{Pattern, Planner};
use gql_parser::ast::{FlwrBody, PatternRef, Statement};
use gql_parser::parse_program;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Enclosing span (`None` for a statement root).
    pub parent: Option<usize>,
    /// Statement id shared by every span of one statement.
    pub stmt: u64,
    /// Layer-qualified name, e.g. `parser.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// True when laid out from registry phase times rather than timed
    /// directly by this benchmark.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, stmt: u64, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            stmt,
            name,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Closes every span opened at or after `id` (error paths).
    fn unwind(&mut self, id: usize) {
        while let Some(&top) = self.open.last() {
            self.end(top);
            if top == id {
                break;
            }
        }
    }

    /// Adds a derived child of `parent` covering `[start_ns, start_ns + dur_ns)`.
    fn derived(&mut self, parent: usize, name: &'static str, start_ns: u64, dur_ns: u64) {
        let stmt = self.spans[parent].stmt;
        self.spans.push(Span {
            parent: Some(parent),
            stmt,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            derived: true,
        });
    }

    /// Duration of span `id` in nanoseconds.
    pub fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns()
    }

    /// Number of spans recorded so far (the first id of the next statement).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time per span name over spans `from..`: each span's duration
    /// minus its direct children's. Children never overlap, so the self
    /// times of one statement sum exactly to its root span.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() - from];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p - from] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans[from..].iter().enumerate() {
            *out.entry(s.name).or_insert(0) += s.dur_ns() - child_ns[i];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"stmt\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"derived\": {}}}",
                s.stmt, s.name, s.start_ns, s.end_ns, s.derived
            )?;
        }
        w.flush()
    }
}

/// Root span of a decomposed statement. Its self time is the
/// benchmark's glue between layer calls, not a layer.
pub const DECOMPOSED: &str = "bench.decomposed";

/// Registry counters a traced statement reports as deltas.
pub const COUNTERS: [&str; 9] = [
    "retrieve.candidates",
    "retrieve.kept",
    "refine.bipartite_checks",
    "refine.removed",
    "search.steps",
    "search.backtracks",
    "planner.cache.hits",
    "planner.cache.misses",
    "index.builds",
];

/// Matcher phases (`MatchReport::timings`) laid out under the select span.
const MATCH_PHASES: [&str; 4] = [
    "match.retrieve",
    "match.refine",
    "match.order",
    "match.search",
];

fn phase_ns(r: &ObsReport, name: &str) -> u64 {
    r.phase(name)
        .map_or(0, |p| u64::try_from(p.total.as_nanos()).unwrap_or(u64::MAX))
}

/// Outcome of one decomposed read.
pub struct Traced {
    /// The returned collection.
    pub out: GraphCollection,
    /// Whether the decomposition used the engine's published snapshot.
    pub hit: bool,
    /// First span id of this statement (its root).
    pub root: usize,
    /// Registry counter deltas over the statement, by [`COUNTERS`] name.
    pub counters: BTreeMap<&'static str, u64>,
}

fn fold_where(
    compiled: CompiledPattern,
    w: Option<&gql_parser::ast::ExprAst>,
) -> Result<CompiledPattern, String> {
    // The same folding `Database::execute` applies: the FLWR `where` joins
    // the pattern's predicates so it is pushed into matching.
    let Some(w) = w else { return Ok(compiled) };
    let extra = resolve_pattern_expr(&compiled, w).map_err(|e| e.to_string())?;
    let mut preds = compiled.pattern.global_preds.clone();
    for np in &compiled.pattern.node_preds {
        preds.extend(np.iter().cloned());
    }
    for ep in &compiled.pattern.edge_preds {
        preds.extend(ep.iter().cloned());
    }
    preds.push(extra);
    Ok(CompiledPattern {
        pattern: Pattern::new(compiled.pattern.graph.clone(), preds),
        ..compiled
    })
}

/// Runs one FLWR `return` statement layer by layer against `db`'s state,
/// recording spans under statement id `stmt`. The decomposition builds a
/// private snapshot (generation from `generation`) when the engine has
/// none for the source, or when `build` says the engine's was just built
/// by an execution of this statement. `first` holds the registry reports
/// around the statement's first execution when that was the engine's:
/// the matcher phases and counters are then taken from it, since a
/// second execution finds the statement's plan already cached.
#[allow(clippy::too_many_arguments)]
pub fn traced_read(
    db: &Database,
    src: &str,
    stmt: u64,
    rec: &mut Recorder,
    obs: &Arc<Obs>,
    generation: &mut u64,
    build: bool,
    first: Option<&(ObsReport, ObsReport)>,
) -> Result<Traced, String> {
    let before = obs.report();
    let root = rec.begin(stmt, DECOMPOSED);
    let result = decomposed(db, src, stmt, rec, obs, generation, build);
    rec.unwind(root);
    let (out, hit, select) = result?;
    let after = obs.report();
    let (before, after) = first.map_or((&before, &after), |(b, a)| (b, a));

    // Lay the matcher phases out under the select span (one σ worker, so
    // they do not overlap). Phases taken from the engine's execution may
    // exceed the decomposition's select span; the layout is scaled down
    // to it so self times stay non-negative.
    let phases: Vec<(&'static str, u64)> = MATCH_PHASES
        .iter()
        .map(|&name| {
            let d = phase_ns(after, name).saturating_sub(phase_ns(before, name));
            (name, d)
        })
        .collect();
    let total: u64 = phases.iter().map(|p| p.1).sum();
    let room = rec.spans[select].dur_ns();
    let mut at = rec.spans[select].start_ns;
    for (name, d) in phases {
        let d = if total > room {
            (u128::from(d) * u128::from(room) / u128::from(total)) as u64
        } else {
            d
        };
        rec.derived(select, name, at, d);
        at += d;
    }
    let counters = COUNTERS
        .iter()
        .map(|&c| {
            let d = after.counter(c).unwrap_or(0) - before.counter(c).unwrap_or(0);
            (c, d)
        })
        .collect();
    Ok(Traced {
        out,
        hit,
        root,
        counters,
    })
}

type Decomposed = (GraphCollection, bool, usize);

fn decomposed(
    db: &Database,
    src: &str,
    stmt: u64,
    rec: &mut Recorder,
    obs: &Arc<Obs>,
    generation: &mut u64,
    build: bool,
) -> Result<Decomposed, String> {
    let sp = rec.begin(stmt, "parser.parse");
    let program = parse_program(src).map_err(|e| e.to_string())?;
    rec.end(sp);
    let [Statement::Flwr(f)] = program.statements.as_slice() else {
        return Err("traced statements are single FLWR reads".into());
    };
    let FlwrBody::Return(template) = &f.body else {
        return Err("traced statements return a collection".into());
    };
    let PatternRef::Inline(ast) = &f.pattern else {
        return Err("traced statements use inline patterns".into());
    };

    let sp = rec.begin(stmt, "algebra.compile");
    let compiled = compile_pattern(ast, &PatternRegistry::default()).map_err(|e| e.to_string())?;
    let compiled = fold_where(compiled, f.where_clause.as_ref())?;
    let pname = ast.name.clone().unwrap_or_else(|| "P".to_string());
    rec.end(sp);

    let collection = db
        .collection(&f.source)
        .ok_or_else(|| format!("unknown collection {}", f.source))?;
    let mut opts = db.options.clone();
    opts.exhaustive = f.exhaustive;
    opts.obs = Some(Arc::clone(obs));
    let (snapshot, hit) = match db.snapshot(&f.source).filter(|_| !build) {
        Some(s) => {
            let sp = rec.begin(stmt, "engine.snapshot");
            let s = Arc::clone(s);
            rec.end(sp);
            (s, true)
        }
        None => {
            let sp = rec.begin(stmt, "match.index_build");
            *generation += 1;
            let s = ops::build_collection_snapshot(
                collection,
                *generation,
                Some(Arc::new(Planner::new())),
                &opts,
            );
            rec.end(sp);
            (s, false)
        }
    };

    let select = rec.begin(stmt, "algebra.select");
    let matches = ops::select_with_snapshot(&compiled, collection, &snapshot, &opts)
        .map_err(|e| e.to_string())?;
    rec.end(select);

    let sp = rec.begin(stmt, "algebra.compose");
    let mut out = GraphCollection::new();
    for m in &matches {
        let mut env = TemplateEnv::new();
        for (k, v) in db.vars() {
            env.vars.insert(k.to_string(), v);
        }
        env.params.insert(pname.clone(), m);
        out.push(instantiate(template, &env).map_err(|e| e.to_string())?);
    }
    rec.end(sp);
    // Freeing the matched graphs (and the data-graph copies they share)
    // is part of the select's cost; time it rather than leave it to
    // whichever span happens to drop them.
    let sp = rec.begin(stmt, "algebra.release");
    drop(matches);
    drop(snapshot);
    rec.end(sp);
    Ok((out, hit, select))
}
