//! Behavioral tests of the matching pipeline on generated workloads.

use gql_core::{Graph, NodeId, Tuple};
use gql_datagen::{erdos_renyi, ErConfig};
use gql_match::{
    match_pattern, optimize_order, GammaMode, GraphIndex, LocalPruning, MatchOptions, Pattern,
    RefineLevel,
};
use std::time::Duration;

/// The cost model with real edge-probability statistics should start
/// the search from the rarest label.
#[test]
fn edge_probability_gamma_prefers_rare_labels() {
    // Graph: many X nodes, one Y hub connected to Xs and one rare Z.
    let mut g = Graph::new();
    let y = g.add_labeled_node("Y");
    let z = g.add_labeled_node("Z");
    g.add_edge(y, z, Tuple::new()).unwrap();
    for _ in 0..50 {
        let x = g.add_labeled_node("X");
        g.add_edge(y, x, Tuple::new()).unwrap();
    }
    let idx = GraphIndex::build(&g);

    // Pattern: X - Y - Z path.
    let mut pg = Graph::new();
    let px = pg.add_labeled_node("X");
    let py = pg.add_labeled_node("Y");
    let pz = pg.add_labeled_node("Z");
    pg.add_edge(px, py, Tuple::new()).unwrap();
    pg.add_edge(py, pz, Tuple::new()).unwrap();
    let p = Pattern::structural(pg);

    let mates = gql_match::feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes, 1, None).0;
    let so = optimize_order(
        &p,
        &mates,
        Some(idx.stats()),
        GammaMode::EdgeProbability { fallback: 0.5 },
    );
    // The X node (50 candidates) must come last.
    assert_eq!(so.order[2], 0, "order {:?}", so.order);
}

/// Directed data graphs must build neighborhood profiles from *all*
/// incident edges, not just out-edges (Definition 4.10 counts hops, not
/// orientations). Before the fix, `Profile::of_neighborhood` followed
/// only out-neighbors on directed graphs, so a sink node's profile
/// missed its predecessors' labels and local pruning dropped a correct
/// match. See `directed_profiles_include_predecessor_labels` in
/// `gql_core::neighborhood`.
#[test]
fn directed_profile_pruning_keeps_valid_candidates() {
    // Data: a(A) → b(B) ← c(C). Node b is a sink; with out-only BFS its
    // radius-1 profile was {B} instead of {A, B, C}.
    let mut g = Graph::new_directed();
    let a = g.add_labeled_node("A");
    let b = g.add_labeled_node("B");
    let c = g.add_labeled_node("C");
    g.add_edge(a, b, Tuple::new()).unwrap();
    g.add_edge(c, b, Tuple::new()).unwrap();

    // Pattern: undirected star A – B – C centered on B, declared with B
    // first so declaration-order search maps the sink before its
    // predecessors.
    let mut pg = Graph::new();
    let pb = pg.add_labeled_node("B");
    let pa = pg.add_labeled_node("A");
    let pc = pg.add_labeled_node("C");
    pg.add_edge(pa, pb, Tuple::new()).unwrap();
    pg.add_edge(pc, pb, Tuple::new()).unwrap();
    let p = Pattern::structural(pg);

    let idx = GraphIndex::build_with_profiles(&g, 1);
    let opts = MatchOptions {
        pruning: LocalPruning::Profiles { radius: 1 },
        refine: RefineLevel::Off,
        optimize_order: false,
        ..MatchOptions::default()
    };
    let rep = match_pattern(&p, &g, &idx, &opts);
    assert_eq!(
        rep.mappings,
        vec![vec![b, a, c]],
        "profile pruning dropped the only embedding"
    );
}

/// Time limits terminate pathological searches and report it.
#[test]
fn time_limit_bounds_pathological_search() {
    // Unlabeled 12-clique pattern in a 40-clique: astronomically many
    // embeddings.
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..40).map(|_| g.add_labeled_node("X")).collect();
    for i in 0..40 {
        for j in (i + 1)..40 {
            g.add_edge(ids[i], ids[j], Tuple::new()).unwrap();
        }
    }
    let mut pg = Graph::new();
    let pids: Vec<NodeId> = (0..12).map(|_| pg.add_labeled_node("X")).collect();
    for i in 0..12 {
        for j in (i + 1)..12 {
            pg.add_edge(pids[i], pids[j], Tuple::new()).unwrap();
        }
    }
    let idx = GraphIndex::build(&g);
    let opts = MatchOptions {
        time_limit: Some(Duration::from_millis(50)),
        refine: RefineLevel::Off,
        ..MatchOptions::default()
    };
    let t = std::time::Instant::now();
    let rep = match_pattern(&Pattern::structural(pg), &g, &idx, &opts);
    assert!(rep.timed_out);
    assert!(t.elapsed() < Duration::from_secs(5));
    assert!(!rep.mappings.is_empty(), "partial results are returned");
}

/// On ER graphs, refinement level: deeper never yields a larger space.
#[test]
fn refinement_is_monotone_in_level() {
    let g = erdos_renyi(&ErConfig {
        nodes: 500,
        edges: 1500,
        labels: 8,
        seed: 4,
    });
    let idx = GraphIndex::build_with_profiles(&g, 1);
    let q = gql_datagen::subgraph_queries(&g, 6, 1, 77).pop().unwrap();
    let p = Pattern::structural(q);
    let mut prev = f64::INFINITY;
    for level in [0usize, 1, 2, 4, 8] {
        let opts = MatchOptions {
            pruning: LocalPruning::Profiles { radius: 1 },
            refine: RefineLevel::Fixed(level),
            ..MatchOptions::default()
        };
        let rep = match_pattern(&p, &g, &idx, &opts);
        assert!(
            rep.spaces.refined_ln <= prev + 1e-9,
            "level {level} grew the space"
        );
        prev = rep.spaces.refined_ln;
    }
}

/// Radius-2 profiles prune at least as much as radius-1 (larger balls
/// carry more labels on both sides; containment is preserved).
#[test]
fn profile_radius_two_works() {
    let g = erdos_renyi(&ErConfig {
        nodes: 300,
        edges: 600,
        labels: 6,
        seed: 9,
    });
    let idx = GraphIndex::build_with_profiles(&g, 2);
    let q = gql_datagen::subgraph_queries(&g, 5, 1, 13).pop().unwrap();
    let p = Pattern::structural(q);
    let r1 =
        gql_match::feasible_mates(&p, &g, &idx, LocalPruning::Profiles { radius: 1 }, 1, None).0;
    let r2 =
        gql_match::feasible_mates(&p, &g, &idx, LocalPruning::Profiles { radius: 2 }, 1, None).0;
    // Both must retain the query's own embedding; sizes may differ.
    let opts = MatchOptions::optimized();
    let rep = match_pattern(&p, &g, &idx, &opts);
    assert!(!rep.mappings.is_empty());
    assert!(gql_match::search_space_ln(&r1).is_finite());
    assert!(gql_match::search_space_ln(&r2).is_finite());
}

/// The report's baseline/local/refined chain is ordered for every
/// configuration on real workloads.
#[test]
fn space_chain_is_ordered_on_er_graphs() {
    let g = erdos_renyi(&ErConfig::paper_default(2000, 21));
    let idx = GraphIndex::build_full(&g, 1);
    for (i, q) in gql_datagen::subgraph_queries(&g, 8, 5, 31)
        .iter()
        .enumerate()
    {
        let p = Pattern::structural(q.clone());
        let rep = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        assert!(
            rep.spaces.refined_ln <= rep.spaces.local_ln + 1e-9,
            "query {i}: refine grew the space"
        );
        assert!(
            rep.spaces.local_ln <= rep.spaces.baseline_ln + 1e-9,
            "query {i}: local pruning grew the space"
        );
        assert!(!rep.mappings.is_empty(), "extracted query must match");
    }
}
