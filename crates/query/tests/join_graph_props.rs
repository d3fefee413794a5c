//! Properties of the join graph and the spanning-forest enumeration over
//! generated queries: few relations, column names from a three-letter
//! alphabet so attribute classes merge, duplicate edges, and self-edges
//! forcing two columns of one relation equal.
//!
//! * [`JoinGraph`] is checked against a brute-force transitive closure
//!   written here: `vars` are exactly the classes spanning at least two
//!   relations, `attrs` and `vars` are sorted, `rel_vars` is consistent,
//!   and Berge-acyclicity matches the forest edge count.
//! * Building from an edge subset equals building from a query holding
//!   only those edges, so [`spanning_relaxations`] (which materializes
//!   such queries for the baselines) and the edge-subset path the
//!   estimator takes cannot drift.

use proptest::prelude::*;
use safebound_query::{
    for_each_spanning_forest, spanning_relaxations, BoundPlan, JoinEdge, JoinGraph, Query,
    RelationRef,
};

const COLUMNS: [&str; 3] = ["a", "b", "c"];

fn query() -> impl Strategy<Value = Query> {
    (1usize..9).prop_flat_map(|n| {
        collection::vec((0..n, 0usize..3, 0..n, 0usize..3), 0..13).prop_map(move |edges| {
            let mut q = Query::new();
            for i in 0..n {
                q.add_relation(RelationRef::new(&format!("t{i}")));
            }
            // Pushed directly: `add_join` refuses the self-edges we want.
            q.joins = edges
                .into_iter()
                .map(|(left, lc, right, rc)| JoinEdge {
                    left,
                    left_column: COLUMNS[lc].to_string(),
                    right,
                    right_column: COLUMNS[rc].to_string(),
                })
                .collect();
            q
        })
    })
}

type Attr = (usize, String);

/// The attribute classes of `edges` by brute force: the reflexive,
/// symmetric, transitive closure as a boolean matrix.
fn classes(edges: &[JoinEdge]) -> Vec<Vec<Attr>> {
    let mut attrs: Vec<Attr> = edges
        .iter()
        .flat_map(|j| {
            [
                (j.left, j.left_column.clone()),
                (j.right, j.right_column.clone()),
            ]
        })
        .collect();
    attrs.sort();
    attrs.dedup();
    let at = |a: &Attr| attrs.iter().position(|x| x == a).unwrap();
    let k = attrs.len();
    let mut same = vec![vec![false; k]; k];
    for (i, row) in same.iter_mut().enumerate() {
        row[i] = true;
    }
    for j in edges {
        let (a, b) = (
            at(&(j.left, j.left_column.clone())),
            at(&(j.right, j.right_column.clone())),
        );
        same[a][b] = true;
        same[b][a] = true;
    }
    for via in 0..k {
        for a in 0..k {
            for b in 0..k {
                same[a][b] |= same[a][via] && same[via][b];
            }
        }
    }
    // Classes in order of their smallest attribute, each sorted.
    let mut out: Vec<Vec<Attr>> = Vec::new();
    for (a, row) in same.iter().enumerate() {
        if row[..a].contains(&true) {
            continue; // belongs to an earlier class
        }
        out.push(
            (a..k)
                .filter(|&b| row[b])
                .map(|b| attrs[b].clone())
                .collect(),
        );
    }
    out
}

fn owned(graph: &JoinGraph<'_>) -> Vec<Vec<Attr>> {
    graph
        .vars
        .iter()
        .map(|v| v.attrs.iter().map(|&(r, c)| (r, c.to_string())).collect())
        .collect()
}

/// Is the relation↔variable incidence graph a forest? By the edge count:
/// a graph is a forest iff `edges = nodes − components`.
fn incidence_is_forest(n: usize, vars: &[Vec<Attr>]) -> bool {
    let mut incident: Vec<(usize, usize)> = vars
        .iter()
        .enumerate()
        .flat_map(|(v, attrs)| attrs.iter().map(move |(r, _)| (*r, n + v)))
        .collect();
    incident.sort();
    incident.dedup();
    let nodes = n + vars.len();
    let mut comp: Vec<usize> = (0..nodes).collect();
    for _ in 0..nodes {
        for &(a, b) in &incident {
            let low = comp[a].min(comp[b]);
            comp[a] = low;
            comp[b] = low;
        }
    }
    let components = (0..nodes).filter(|&i| comp[i] == i).count();
    incident.len() == nodes - components
}

proptest! {
    #[test]
    fn join_graph_is_the_transitive_closure(q in query()) {
        let n = q.num_relations();
        let graph = JoinGraph::new(&q);
        let expected: Vec<Vec<Attr>> = classes(&q.joins)
            .into_iter()
            .filter(|class| class.iter().any(|(r, _)| *r != class[0].0))
            .collect();
        let vars = owned(&graph);
        prop_assert_eq!(&vars, &expected);
        for attrs in &vars {
            prop_assert!(attrs.windows(2).all(|w| w[0] < w[1]), "attrs sorted: {:?}", attrs);
        }
        prop_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars sorted: {:?}", vars);

        // `rel_vars`, `relations` and `column_of` agree with `attrs`.
        prop_assert_eq!(graph.rel_vars.len(), n);
        for rel in 0..n {
            let incident: Vec<usize> = (0..vars.len())
                .filter(|&v| vars[v].iter().any(|(r, _)| *r == rel))
                .collect();
            prop_assert_eq!(&graph.rel_vars[rel], &incident);
        }
        for (v, var) in graph.vars.iter().enumerate() {
            let mut rels: Vec<usize> = vars[v].iter().map(|(r, _)| *r).collect();
            rels.dedup();
            prop_assert_eq!(var.relations().collect::<Vec<_>>(), rels.clone());
            for rel in rels {
                let first = vars[v].iter().find(|(r, _)| *r == rel).map(|(_, c)| c.as_str());
                prop_assert_eq!(var.column_of(rel), first);
            }
        }

        // Components partition the relations, each ascending, ordered by
        // their smallest member.
        let comps = graph.relation_components();
        let mut seen: Vec<usize> = comps.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        prop_assert!(comps.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
        prop_assert!(comps.windows(2).all(|w| w[0][0] < w[1][0]));

        // Acyclicity, and a plan exactly when acyclic.
        let forest = incidence_is_forest(n, &vars);
        prop_assert_eq!(graph.is_berge_acyclic(), forest);
        let plan = BoundPlan::build(&q, &graph);
        prop_assert_eq!(plan.is_ok(), forest);
        if let Ok(plan) = plan {
            prop_assert_eq!(plan.roots.len(), comps.len());
        }
    }

    #[test]
    fn edge_subsets_build_what_relaxed_queries_build(q in query(), picks in any::<u64>(), cap in 0usize..6) {
        let n = q.num_relations();
        let same_graph = |edges: &[usize], relaxed: &Query| {
            let by_subset = JoinGraph::from_edges(n, edges.iter().map(|&e| &q.joins[e]));
            let by_query = JoinGraph::new(relaxed);
            owned(&by_subset) == owned(&by_query) && by_subset.rel_vars == by_query.rel_vars
        };
        let holding = |edges: &[usize]| {
            let mut relaxed = q.clone();
            relaxed.joins = edges.iter().map(|&e| q.joins[e].clone()).collect();
            relaxed
        };

        // Any subset at all.
        let subset: Vec<usize> = (0..q.joins.len()).filter(|e| picks >> e & 1 == 1).collect();
        prop_assert!(same_graph(&subset, &holding(&subset)), "subset {:?}", subset);

        // The spanning forests: the wrapper's queries are the enumerated
        // subsets, in order, and each is a forest spanning every component
        // (so never more than `cap`, and at least one).
        let mut forests: Vec<Vec<usize>> = Vec::new();
        for_each_spanning_forest(&q, cap, &mut |edges| forests.push(edges.to_vec()));
        let relaxations = spanning_relaxations(&q, cap);
        prop_assert_eq!(relaxations.len(), forests.len());
        prop_assert!(!forests.is_empty() && (cap == 0 || forests.len() <= cap));
        let full_components = JoinGraph::new(&q).relation_components().len();
        for (edges, relaxed) in forests.iter().zip(&relaxations) {
            prop_assert_eq!(relaxed, &holding(edges));
            prop_assert!(same_graph(edges, relaxed), "forest {:?}", edges);
            if cap > 0 {
                prop_assert!(edges.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(edges.len(), n - full_components, "spanning: {:?}", edges);
                let relaxed_components = JoinGraph::new(relaxed).relation_components().len();
                prop_assert_eq!(relaxed_components, full_components, "connects: {:?}", edges);
            }
        }
        if cap > 0 {
            let mut distinct = forests.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), forests.len(), "no forest twice");
        }
    }
}
