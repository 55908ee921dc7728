//! Property-based invariants of the core data structures and access
//! methods.

use gql_core::{unify_nodes_full, Graph, NodeId, Profile, Tuple, Value};
use gql_match::{feasible_mates, search_space_ln, GraphIndex, LocalPruning, Pattern};
use proptest::prelude::*;

fn labels_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, 1..16)
}

fn graph_from(labels: &[u8], edges: &[(u8, u8)]) -> Graph {
    let names = ["A", "B", "C", "D", "E"];
    let mut g = Graph::new();
    for &l in labels {
        g.add_labeled_node(names[l as usize % names.len()]);
    }
    let n = labels.len() as u32;
    for &(a, b) in edges {
        let (a, b) = (a as u32 % n, b as u32 % n);
        if a != b {
            let _ = g.add_edge(NodeId(a), NodeId(b), Tuple::new());
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Profile subsumption is a partial order: reflexive and
    /// transitive; and subsumption implies length ordering.
    #[test]
    fn profile_subsumption_partial_order(
        a in proptest::collection::vec(0u8..6, 0..12),
        b in proptest::collection::vec(0u8..6, 0..12),
        c in proptest::collection::vec(0u8..6, 0..12),
    ) {
        let mk = |v: &Vec<u8>| Profile::from_labels(v.iter().map(|x| Value::Int(*x as i64)));
        let (pa, pb, pc) = (mk(&a), mk(&b), mk(&c));
        prop_assert!(pa.subsumed_by(&pa));
        if pa.subsumed_by(&pb) && pb.subsumed_by(&pc) {
            prop_assert!(pa.subsumed_by(&pc));
        }
        if pa.subsumed_by(&pb) {
            prop_assert!(pa.len() <= pb.len());
        }
        if pa.subsumed_by(&pb) && pb.subsumed_by(&pa) {
            prop_assert_eq!(pa.labels(), pb.labels());
        }
    }

    /// Unification: the result never has more nodes/edges, never breaks
    /// the simple-graph invariants, and the node map is a surjection
    /// onto the new node set.
    #[test]
    fn unify_nodes_invariants(
        labels in labels_strategy(),
        edges in proptest::collection::vec((0u8..16, 0u8..16), 0..24),
        pairs in proptest::collection::vec((0u8..16, 0u8..16), 0..4),
    ) {
        let g = graph_from(&labels, &edges);
        let n = g.node_count() as u32;
        let pairs: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .map(|&(a, b)| (NodeId(a as u32 % n), NodeId(b as u32 % n)))
            .collect();
        let r = unify_nodes_full(&g, &pairs).unwrap();
        prop_assert!(r.graph.node_count() <= g.node_count());
        prop_assert!(r.graph.edge_count() <= g.edge_count());
        prop_assert_eq!(r.node_map.len(), g.node_count());
        prop_assert_eq!(r.edge_map.len(), g.edge_count());
        // Surjectivity + in-range.
        let mut hit = vec![false; r.graph.node_count()];
        for m in &r.node_map {
            prop_assert!(m.index() < r.graph.node_count());
            hit[m.index()] = true;
        }
        prop_assert!(hit.iter().all(|&h| h));
        // Pairs really merged.
        for (a, b) in pairs {
            prop_assert_eq!(r.node_map[a.index()], r.node_map[b.index()]);
        }
        // No self-loops, no duplicate edges (simple-graph model).
        for (_, e) in r.graph.edges() {
            prop_assert_ne!(e.src, e.dst);
        }
    }

    /// Local pruning strategies form a chain: the subgraph-pruned space
    /// ⊆ profile-pruned space ⊆ attribute space (per pattern node).
    #[test]
    fn local_pruning_chain(
        labels in labels_strategy(),
        edges in proptest::collection::vec((0u8..16, 0u8..16), 0..24),
        ql in proptest::collection::vec(0u8..5, 1..4),
    ) {
        let g = graph_from(&labels, &edges);
        let mut pg = graph_from(&ql, &[]);
        // Make the pattern a path so it is connected.
        for i in 1..pg.node_count() {
            let _ = pg.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), Tuple::new());
        }
        let p = Pattern::structural(pg);
        let idx = GraphIndex::build_full(&g, 1);
        let by_attr = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes, 1, None).0;
        let by_prof = feasible_mates(&p, &g, &idx, LocalPruning::Profiles { radius: 1 }, 1, None).0;
        let by_sub = feasible_mates(&p, &g, &idx, LocalPruning::Subgraphs { radius: 1 }, 1, None).0;
        for u in 0..p.node_count() {
            for v in &by_prof[u] {
                prop_assert!(by_attr[u].contains(v), "profiles ⊆ attrs");
            }
            for v in &by_sub[u] {
                prop_assert!(by_prof[u].contains(v), "subgraphs ⊆ profiles");
            }
        }
        // Log-space sizes follow the same chain.
        prop_assert!(search_space_ln(&by_sub) <= search_space_ln(&by_prof) + 1e-9);
        prop_assert!(search_space_ln(&by_prof) <= search_space_ln(&by_attr) + 1e-9);
    }

    /// Tuple subsumption: reflexive; preserved by adding attributes to
    /// the target.
    #[test]
    fn tuple_subsumption_monotone(
        base in proptest::collection::vec(("k[a-c]", 0i64..5), 0..4),
        extra_key in "x[a-c]",
        extra_val in 0i64..5,
    ) {
        let t: Tuple = base.iter().cloned().collect();
        prop_assert!(t.subsumes(&t));
        let mut bigger = t.clone();
        bigger.set(extra_key, extra_val);
        prop_assert!(t.subsumes(&bigger));
    }

    /// Value algebra: compare is antisymmetric and add/mul commute for
    /// numerics.
    #[test]
    fn value_algebra(a in -100i64..100, b in -100i64..100, x in -5.0f64..5.0) {
        let (va, vb) = (Value::Int(a), Value::Int(b));
        prop_assert_eq!(va.add(&vb), vb.add(&va));
        prop_assert_eq!(va.mul(&vb), vb.mul(&va));
        let vx = Value::Float(x);
        if let (Some(o1), Some(o2)) = (va.compare(&vx), vx.compare(&va)) {
            prop_assert_eq!(o1, o2.reverse());
        }
    }
}

/// The matcher's order optimizer always emits a permutation and its
/// estimated cost is non-negative.
#[test]
fn optimizer_outputs_permutations() {
    use gql_match::{optimize_order, GammaMode};
    for k in 1..8usize {
        let mut pg = Graph::new();
        for i in 0..k {
            pg.add_labeled_node(["A", "B"][i % 2]);
        }
        for i in 1..k {
            pg.add_edge(NodeId(0), NodeId(i as u32), Tuple::new())
                .unwrap();
        }
        let p = Pattern::structural(pg);
        let mates: Vec<Vec<NodeId>> = (0..k)
            .map(|i| (0..=i as u32).map(NodeId).collect())
            .collect();
        let so = optimize_order(&p, &mates, None, GammaMode::Constant(0.3));
        let mut sorted = so.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..k).collect::<Vec<_>>());
        assert!(so.estimated_cost >= 0.0);
    }
}
