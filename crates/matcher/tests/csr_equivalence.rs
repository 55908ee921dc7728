//! CSR snapshot ↔ seed-oracle equivalence suite.
//!
//! The CSR snapshot ([`gql_core::CsrGraph`]) is the adjacency layout
//! every pipeline phase runs on. These tests pin it against the mutable
//! graph and the seed oracles on a zoo of fixtures — Erdős–Rényi,
//! directed, clique-heavy, and mixed-label (some nodes unlabeled)
//! graphs: adjacency rows, edge probes and BFS layers against `Graph`;
//! index profiles against [`Profile::of_neighborhood`]; and the whole
//! pipeline at threads 1/2/8 against [`feasible_mates_reference`],
//! [`refine_search_space_reference`], the seed search recursion and
//! [`gql_core::iso`].

mod common;

use common::seed_search;
use gql_core::{iso, CsrGraph, Graph, LabelInterner, NodeId, Obs, Profile, Tuple, NO_LABEL};
use gql_datagen::{erdos_renyi, subgraph_queries, ErConfig};
use gql_match::{
    feasible_mates, feasible_mates_reference, match_pattern, refine_search_space,
    refine_search_space_reference, search_space_ln, GraphIndex, IndexOptions, LocalPruning,
    MatchOptions, Pattern,
};
use std::collections::VecDeque;

const THREADS: [usize; 3] = [1, 2, 8];

/// Interns every node label, mirroring what `GraphIndex` feeds into
/// `CsrGraph::build`.
fn label_table(g: &Graph) -> Vec<u32> {
    let mut interner = LabelInterner::new();
    g.node_ids()
        .map(|v| match g.node_label(v) {
            Some(l) => interner.intern(l),
            None => NO_LABEL,
        })
        .collect()
}

/// Deterministic LCG so fixtures need no rng dependency.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn er_fixture() -> Graph {
    erdos_renyi(&ErConfig {
        nodes: 300,
        edges: 900,
        labels: 7,
        seed: 0xC5A1,
    })
}

fn directed_fixture() -> Graph {
    let mut g = Graph::new_directed();
    let labels = ["A", "B", "C", "D"];
    let ids: Vec<NodeId> = (0..120)
        .map(|i| g.add_labeled_node(labels[i % labels.len()]))
        .collect();
    let mut s = 0xD15EA5E;
    for _ in 0..360 {
        let a = ids[(lcg(&mut s) as usize) % ids.len()];
        let b = ids[(lcg(&mut s) as usize) % ids.len()];
        if a != b {
            // Parallel a→b edges are rejected; that's fine.
            let _ = g.add_edge(a, b, Tuple::new());
        }
    }
    g
}

fn clique_fixture() -> Graph {
    let mut g = Graph::new();
    let labels = ["X", "Y", "Z"];
    for c in 0..6 {
        let ids: Vec<NodeId> = (0..6)
            .map(|i| g.add_labeled_node(labels[(c + i) % labels.len()]))
            .collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                g.add_edge(ids[i], ids[j], Tuple::new()).unwrap();
            }
        }
        // Bridge consecutive cliques so queries can span them.
        if c > 0 {
            let prev = NodeId((c as u32 - 1) * 6);
            g.add_edge(prev, ids[0], Tuple::new()).unwrap();
        }
    }
    g
}

fn mixed_label_fixture() -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for i in 0..80 {
        ids.push(match i % 3 {
            0 => g.add_labeled_node("L"),
            1 => g.add_labeled_node("M"),
            // Every third node is unlabeled (NO_LABEL in the CSR rows).
            _ => g.add_node(Tuple::new()),
        });
    }
    let mut s = 0xBEEF;
    for _ in 0..200 {
        let a = ids[(lcg(&mut s) as usize) % ids.len()];
        let b = ids[(lcg(&mut s) as usize) % ids.len()];
        if a != b {
            let _ = g.add_edge(a, b, Tuple::new());
        }
    }
    g
}

fn fixtures() -> Vec<(&'static str, Graph)> {
    vec![
        ("er", er_fixture()),
        ("directed", directed_fixture()),
        ("clique", clique_fixture()),
        ("mixed-label", mixed_label_fixture()),
    ]
}

/// CSR rows carry exactly the `Vec`-adjacency edges (as multisets; CSR
/// rows are (label, node, edge)-sorted), and the degree accessors
/// agree.
#[test]
fn adjacency_rows_match_vec_adjacency() {
    for (name, g) in fixtures() {
        let labels = label_table(&g);
        for threads in THREADS {
            let csr = CsrGraph::build(&g, &labels, threads);
            assert_eq!(csr.is_directed(), g.is_directed(), "{name}");
            assert_eq!(csr.node_count(), g.node_count(), "{name}");
            for v in g.node_ids() {
                let sorted = |row: &[(NodeId, gql_core::EdgeId)]| {
                    let mut t: Vec<(u32, u32, u32)> = row
                        .iter()
                        .map(|&(w, e)| (labels[w.index()], w.0, e.0))
                        .collect();
                    t.sort_unstable();
                    t
                };
                let as_triples = |row: &[gql_core::CsrEntry]| {
                    row.iter()
                        .map(|e| (e.label, e.node, e.edge))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    as_triples(csr.neighbors(v)),
                    sorted(g.neighbors(v)),
                    "{name}/{threads}: out-row of {v:?}"
                );
                assert_eq!(
                    as_triples(csr.in_neighbors(v)),
                    sorted(g.in_neighbors(v)),
                    "{name}/{threads}: in-row of {v:?}"
                );
                let mut incident = g
                    .incident(v)
                    .map(|(w, e)| (labels[w.index()], w.0, e.0))
                    .collect::<Vec<_>>();
                incident.sort_unstable();
                assert_eq!(
                    as_triples(csr.incident(v)),
                    incident,
                    "{name}/{threads}: incident row of {v:?}"
                );
                assert_eq!(csr.degree(v), g.degree(v), "{name}/{threads}");
                assert_eq!(
                    csr.incident_degree(v),
                    g.incident_degree(v),
                    "{name}/{threads}"
                );
            }
        }
    }
}

/// `CsrGraph::edge_between` (binary search) agrees with the hash probe
/// of `Graph::edge_between` on every ordered node pair, and the
/// label-range slices agree with a linear filter of the row.
#[test]
fn edge_probes_and_label_ranges_match() {
    for (name, g) in fixtures() {
        let labels = label_table(&g);
        let csr = CsrGraph::build(&g, &labels, 1);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(
                    csr.edge_between(a, b),
                    g.edge_between(a, b),
                    "{name}: probe {a:?}→{b:?}"
                );
            }
            let mut label_ids: Vec<u32> = csr.neighbors(a).iter().map(|e| e.label).collect();
            label_ids.push(NO_LABEL); // also probe a label absent from most rows
            label_ids.dedup();
            for l in label_ids {
                let want: Vec<_> = csr
                    .neighbors(a)
                    .iter()
                    .filter(|e| e.label == l)
                    .copied()
                    .collect();
                assert_eq!(
                    csr.neighbors_with_label(a, l),
                    &want[..],
                    "{name}: label range {l} of {a:?}"
                );
            }
        }
    }
}

/// BFS over the CSR incident rows visits nodes at the same hop distance
/// as BFS over the `Graph` adjacency (the traversal the profile builder
/// and `neighborhood_subgraph` both rely on).
#[test]
fn bfs_distances_match() {
    fn bfs(n: usize, start: NodeId, mut row: impl FnMut(u32) -> Vec<u32>) -> Vec<usize> {
        let mut dist = vec![usize::MAX; n];
        dist[start.index()] = 0;
        let mut q = VecDeque::from([start.0]);
        while let Some(u) = q.pop_front() {
            for w in row(u) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    q.push_back(w);
                }
            }
        }
        dist
    }
    for (name, g) in fixtures() {
        let labels = label_table(&g);
        let csr = CsrGraph::build(&g, &labels, 2);
        for start in g.node_ids().step_by(7) {
            let via_graph = bfs(g.node_count(), start, |u| {
                g.incident(NodeId(u)).map(|(w, _)| w.0).collect()
            });
            let via_csr = bfs(g.node_count(), start, |u| {
                csr.incident(NodeId(u)).iter().map(|e| e.node).collect()
            });
            assert_eq!(via_graph, via_csr, "{name}: BFS from {start:?}");
        }
    }
}

/// Index profiles built from the CSR snapshot are byte-identical to the
/// materializing `Profile::of_neighborhood` path over the `Vec`
/// adjacency, for both the interned and the `Value` form, at radius 1
/// and 2 and every thread count.
#[test]
fn index_profiles_match_vec_path() {
    for (name, g) in fixtures() {
        for radius in [1, 2] {
            for threads in THREADS {
                let index = GraphIndex::build_with(
                    &g,
                    &IndexOptions {
                        radius,
                        threads,
                        ..IndexOptions::default()
                    },
                );
                for v in g.node_ids() {
                    let want = Profile::of_neighborhood(&g, v, radius);
                    assert_eq!(
                        Some(index.id_profile(v)),
                        index.interner().encode_profile(&want).as_ref(),
                        "{name}/r{radius}/t{threads}: id profile of {v:?}"
                    );
                    assert_eq!(
                        index.profile(v),
                        &want,
                        "{name}/r{radius}/t{threads}: profile of {v:?}"
                    );
                }
            }
        }
    }
}

fn queries_for(name: &str, g: &Graph) -> Vec<Graph> {
    match name {
        // Extracted connected subgraphs always have at least one match.
        "er" => subgraph_queries(g, 6, 2, 0x51),
        "clique" => subgraph_queries(g, 4, 2, 0x52),
        "mixed-label" => subgraph_queries(g, 4, 2, 0x53),
        "directed" => {
            // A→B→C path; matched against the directed fixture.
            let mut q = Graph::new_directed();
            let a = q.add_labeled_node("A");
            let b = q.add_labeled_node("B");
            let c = q.add_labeled_node("C");
            q.add_edge(a, b, Tuple::new()).unwrap();
            q.add_edge(b, c, Tuple::new()).unwrap();
            vec![q]
        }
        other => unreachable!("unknown fixture {other}"),
    }
}

/// End-to-end identity against the seed oracles at threads 1, 2 and 8:
/// retrieved mates equal [`feasible_mates_reference`]; refined spaces
/// and `RefineStats` equal [`refine_search_space_reference`];
/// `match_pattern`'s spaces and refinement agree with both, its
/// mappings, edge bindings, steps and backtracks equal the seed search
/// over the oracle space in the pipeline's order, and its match count
/// equals an unpruned seed search (and, on undirected fixtures,
/// [`iso::subgraph_isomorphic`] agrees on whether any match exists).
/// The deterministic obs counters are identical at every thread count.
#[test]
fn end_to_end_match_results_identical() {
    let pruning = LocalPruning::Profiles { radius: 1 };
    for (name, g) in fixtures() {
        for (qi, q) in queries_for(name, &g).into_iter().enumerate() {
            let p = Pattern::structural(q);
            let level = p.node_count();
            let declared: Vec<usize> = (0..p.node_count()).collect();
            let mut want_obs = None;
            for threads in THREADS {
                let tag = format!("{name} q{qi} t={threads}");
                let index = GraphIndex::build_with(
                    &g,
                    &IndexOptions {
                        threads,
                        ..IndexOptions::default()
                    },
                );

                let local = feasible_mates_reference(&p, &g, &index, pruning);
                let (mut mates, _, _) = feasible_mates(&p, &g, &index, pruning, threads, None);
                assert_eq!(mates, local, "{tag}: mates");
                let mut refined = local.clone();
                let want_stats = refine_search_space_reference(&p, &g, &mut refined, level);
                let stats = refine_search_space(&p, &index, &mut mates, level, threads, None);
                assert_eq!(mates, refined, "{tag}: refined space");
                assert_eq!(stats, want_stats, "{tag}: refine stats");

                let obs = Obs::new();
                let opts = MatchOptions {
                    threads,
                    obs: Some(obs.clone()),
                    ..MatchOptions::optimized()
                };
                let rep = match_pattern(&p, &g, &index, &opts);
                assert_eq!(rep.refine_stats, want_stats, "{tag}: pipeline refine");
                assert_eq!(
                    rep.spaces.local_ln.to_bits(),
                    search_space_ln(&local).to_bits(),
                    "{tag}: local space"
                );
                assert_eq!(
                    rep.spaces.refined_ln.to_bits(),
                    search_space_ln(&refined).to_bits(),
                    "{tag}: refined space"
                );
                let seed = seed_search(&p, &g, &refined, &rep.order);
                assert_eq!(rep.mappings, seed.mappings, "{tag}: mappings");
                assert_eq!(rep.edge_bindings, seed.edge_bindings, "{tag}: edges");
                assert_eq!(rep.search_steps, seed.steps, "{tag}: steps");
                assert_eq!(rep.search_backtracks, seed.backtracks, "{tag}: backtracks");

                let all = feasible_mates_reference(&p, &g, &index, LocalPruning::NodeAttributes);
                let unpruned = seed_search(&p, &g, &all, &declared);
                assert_eq!(
                    rep.mappings.len(),
                    unpruned.mappings.len(),
                    "{tag}: match count"
                );
                if !g.is_directed() {
                    assert_eq!(
                        !rep.mappings.is_empty(),
                        iso::subgraph_isomorphic(&p.graph, &g),
                        "{tag}: iso existence"
                    );
                }
                assert!(
                    !rep.mappings.is_empty() || name == "directed",
                    "{tag}: matches"
                );

                let counters = obs.report().counters;
                match &want_obs {
                    None => want_obs = Some(counters),
                    Some(want) => assert_eq!(&counters, want, "{tag}: obs counters"),
                }
            }
        }
    }
}
