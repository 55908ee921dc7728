//! Seed search oracle shared by the equivalence suites.

use gql_core::{EdgeId, Graph, NodeId};
use gql_match::Pattern;

/// Outcome of [`seed_search`].
pub struct SeedSearch {
    pub mappings: Vec<Vec<NodeId>>,
    pub edge_bindings: Vec<Vec<EdgeId>>,
    pub steps: u64,
    pub backtracks: u64,
}

/// The seed's exhaustive, sequential `Search`/`Check` recursion of
/// Algorithm 4.1 over the mutable graph's adjacency: data edges are found
/// by [`Graph::edge_between`] and checked by the `Value`-typed
/// [`Pattern::edge_feasible`], with no index involved. Steps and
/// backtracks are counted the way the production kernel counts them, so
/// an exhaustive pipeline run over the same mates and order must report
/// exactly this outcome.
pub fn seed_search(
    pattern: &Pattern,
    g: &Graph,
    mates: &[Vec<NodeId>],
    order: &[usize],
) -> SeedSearch {
    let mut out = SeedSearch {
        mappings: Vec::new(),
        edge_bindings: Vec::new(),
        steps: 0,
        backtracks: 0,
    };
    if pattern.node_count() == 0 {
        out.mappings.push(Vec::new());
        out.edge_bindings.push(Vec::new());
        return out;
    }
    if mates.iter().any(Vec::is_empty) {
        return out;
    }
    let mut assign = vec![None; pattern.node_count()];
    let mut edge_bind = vec![None; pattern.edge_count()];
    let mut used = vec![false; g.node_count()];
    recurse(
        pattern,
        g,
        mates,
        order,
        0,
        &mut assign,
        &mut edge_bind,
        &mut used,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    pattern: &Pattern,
    g: &Graph,
    mates: &[Vec<NodeId>],
    order: &[usize],
    depth: usize,
    assign: &mut [Option<NodeId>],
    edge_bind: &mut [Option<EdgeId>],
    used: &mut [bool],
    out: &mut SeedSearch,
) {
    if depth == order.len() {
        let mapping: Vec<NodeId> = assign.iter().map(|a| a.expect("complete")).collect();
        if pattern.global_holds(g, &mapping, edge_bind) {
            out.mappings.push(mapping);
            out.edge_bindings
                .push(edge_bind.iter().map(|e| e.expect("complete")).collect());
        }
        return;
    }
    let u = NodeId(order[depth] as u32);
    for &v in &mates[u.index()] {
        if used[v.index()] {
            continue;
        }
        out.steps += 1;
        let mut touched = Vec::new();
        let mut ok = true;
        for &(w, pe) in pattern.incident(u) {
            let Some(mapped) = assign[w.index()] else {
                continue;
            };
            let e = pattern.graph.edge(pe);
            let (from, to) = if pattern.graph.is_directed() && e.src != u {
                (mapped, v)
            } else {
                (v, mapped)
            };
            match g.edge_between(from, to) {
                Some(ge) if pattern.edge_feasible(pe, g, ge) => {
                    edge_bind[pe.index()] = Some(ge);
                    touched.push(pe);
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            assign[u.index()] = Some(v);
            used[v.index()] = true;
            recurse(
                pattern,
                g,
                mates,
                order,
                depth + 1,
                assign,
                edge_bind,
                used,
                out,
            );
            assign[u.index()] = None;
            used[v.index()] = false;
        } else {
            out.backtracks += 1;
        }
        for pe in touched {
            edge_bind[pe.index()] = None;
        }
    }
}
