//! # gql-match — access methods for the selection operator
//!
//! Implements §4 of *"Graphs-at-a-time"* (He & Singh, SIGMOD 2008):
//! graph pattern matching over large graphs, accelerated by
//!
//! 1. **local pruning** with neighborhood subgraphs and profiles
//!    ([`feasible`], §4.2),
//! 2. **joint reduction** of the whole search space by pseudo subgraph
//!    isomorphism ([`refine`], Algorithm 4.2, §4.3), and
//! 3. **search-order optimization** under a graph-specific cost model
//!    ([`order`], §4.4).
//!
//! The entry point is [`match_pattern`], which runs the full pipeline
//! with per-phase instrumentation; [`MatchOptions::baseline`] /
//! [`MatchOptions::optimized`] correspond to the configurations compared
//! in the paper's experiments. Each phase also has exactly one public
//! kernel — [`feasible_mates`], [`refine_search_space`],
//! [`optimize_order`] and [`search`] — all running on the index's
//! [`gql_core::CsrGraph`] snapshot; [`feasible_mates_reference`] and
//! [`refine_search_space_reference`] are the seed's oracles.
//!
//! ```
//! use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern};
//! use gql_match::{match_pattern, GraphIndex, MatchOptions, Pattern};
//!
//! let (g, _) = figure_4_16_graph();
//! let pattern = Pattern::structural(figure_4_16_pattern());
//! let index = GraphIndex::build_with_profiles(&g, 1);
//! let report = match_pattern(&pattern, &g, &index, &MatchOptions::optimized());
//! assert_eq!(report.mappings.len(), 1); // the single A-B-C triangle
//! ```

#![warn(missing_docs)]

pub mod bipartite;
pub mod expr;
pub mod feasible;
pub mod index;
pub mod matcher;
pub mod order;
pub mod pattern;
pub mod plan;
pub mod refine;
pub mod search;
pub mod snapshot;

pub use expr::{BinOp, EvalCtx, EvalResult, Expr};
pub use feasible::{
    estimated_access, estimated_mates, feasible_mates, feasible_mates_reference, reduction_ratio,
    search_space_ln, AccessPath, LocalPruning, RetrieveAccess, RetrieveStats,
};
pub use index::{GraphIndex, IndexOptions, IndexParts};
pub use matcher::{
    match_pattern, MatchOptions, MatchReport, PlanInfo, RefineLevel, SpaceReport, StepTimings,
};
pub use order::{cost_of_order, estimate_join_sizes, optimize_order, GammaMode, SearchOrder};
pub use pattern::Pattern;
pub use plan::{
    decide_refine_level, diverges, options_fingerprint, pattern_shape, plan_key, CompiledPlan,
    Planner, REFINE_SKIP_YIELD,
};
pub use refine::{
    estimated_refine_cost, refine_search_space, refine_search_space_reference, RefineStats,
};
pub use search::{search, EdgeChecks, SearchConfig, SearchOutcome};
pub use snapshot::GraphSnapshot;
