//! Spanning-tree relaxation for cyclic queries (§3.6).
//!
//! For a cyclic query, SafeBound computes the minimum of the degree
//! sequence bounds over all spanning trees of the relation-level join
//! graph. Dropping join edges only relaxes the query (the relaxed output is
//! a superset under bag semantics), so each spanning tree yields a valid
//! upper bound; the minimum is the tightest available.
//!
//! Enumeration is exhaustive up to a configurable cap: benchmark queries
//! have few cycles, so the number of spanning trees stays small (a single
//! k-cycle has exactly k spanning trees).

use crate::ast::Query;

/// Enumerate spanning forests of the query's relation-level join multigraph
/// as queries: each result keeps exactly the join edges of one spanning
/// forest (covering every connected component) and all predicates. Returns
/// at most `cap` relaxations; if the query is already acyclic at the edge
/// level it is returned as the single entry.
pub fn spanning_relaxations(query: &Query, cap: usize) -> Vec<Query> {
    let mut out = Vec::new();
    for_each_spanning_forest(query, cap, &mut |edges| {
        let mut q = query.clone();
        q.joins = edges.iter().map(|&e| query.joins[e].clone()).collect();
        out.push(q);
    });
    out
}

/// The enumeration under [`spanning_relaxations`]: calls `visit` with the
/// ascending join-edge indices (into `query.joins`) of each spanning
/// forest, at most `cap` times. A query with no relations, or `cap == 0`,
/// is visited once with all of its edges — no relaxation at all.
pub fn for_each_spanning_forest(query: &Query, cap: usize, visit: &mut impl FnMut(&[usize])) {
    let n = query.num_relations();
    let m = query.joins.len();
    if n == 0 || cap == 0 {
        visit(&(0..m).collect::<Vec<_>>());
        return;
    }

    // A spanning forest is an acyclic edge subset whose rank equals the
    // full graph's (n − #components): the number of edges that join two
    // components when all are added in order.
    let mut parent: Vec<usize> = (0..n).collect();
    let mut target_rank = 0;
    for j in &query.joins {
        let (ra, rb) = (find(&parent, j.left), find(&parent, j.right));
        if ra != rb {
            parent[ra] = rb;
            target_rank += 1;
        }
    }
    for (i, p) in parent.iter_mut().enumerate() {
        *p = i;
    }

    let mut walk = Walk {
        query,
        target_rank,
        left: cap,
        parent,
        chosen: Vec::with_capacity(target_rank),
    };
    walk.recurse(0, visit);
}

/// Union-find root lookup *without* path compression: the enumeration
/// backtracks by undoing single links, which compression would scatter.
/// Trees stay as shallow as the query is small.
fn find(parent: &[usize], mut x: usize) -> usize {
    while parent[x] != x {
        x = parent[x];
    }
    x
}

/// State of the include/exclude recursion over the edges in order.
struct Walk<'q> {
    query: &'q Query,
    target_rank: usize,
    /// Forests still to report before the cap is reached.
    left: usize,
    parent: Vec<usize>,
    /// Edges included so far, ascending (its length is the current rank).
    chosen: Vec<usize>,
}

impl Walk<'_> {
    fn recurse(&mut self, edge: usize, visit: &mut impl FnMut(&[usize])) {
        if self.left == 0 {
            return;
        }
        let rank = self.chosen.len();
        if rank == self.target_rank {
            self.left -= 1;
            visit(&self.chosen);
            return;
        }
        let m = self.query.joins.len();
        if edge == m || rank + (m - edge) < self.target_rank {
            return; // cannot reach spanning rank with remaining edges
        }
        let j = &self.query.joins[edge];
        let (ra, rb) = (find(&self.parent, j.left), find(&self.parent, j.right));
        if ra != rb {
            // Include the edge, then undo the one link it made.
            self.parent[ra] = rb;
            self.chosen.push(edge);
            self.recurse(edge + 1, visit);
            self.chosen.pop();
            self.parent[ra] = ra;
        }
        // Exclude the edge (also the only option when it closes a cycle).
        self.recurse(edge + 1, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RelationRef;

    fn triangle() -> Query {
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("r"));
        let s = q.add_relation(RelationRef::new("s"));
        let t = q.add_relation(RelationRef::new("t"));
        q.add_join(r, "x", s, "x");
        q.add_join(s, "y", t, "y");
        q.add_join(t, "z", r, "z");
        q
    }

    #[test]
    fn triangle_has_three_spanning_trees() {
        let trees = spanning_relaxations(&triangle(), 100);
        assert_eq!(trees.len(), 3);
        for t in &trees {
            assert_eq!(t.joins.len(), 2);
            assert_eq!(t.num_relations(), 3);
        }
    }

    #[test]
    fn acyclic_query_returns_itself() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        q.add_join(a, "x", b, "x");
        let trees = spanning_relaxations(&q, 100);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0], q);
    }

    #[test]
    fn cap_limits_enumeration() {
        let trees = spanning_relaxations(&triangle(), 2);
        assert_eq!(trees.len(), 2);
    }

    #[test]
    fn disconnected_graph_spans_each_component() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        let c = q.add_relation(RelationRef::new("c"));
        let d = q.add_relation(RelationRef::new("d"));
        q.add_join(a, "x", b, "x");
        q.add_join(b, "y", a, "y"); // 2-cycle between a and b
        q.add_join(c, "z", d, "z");
        let trees = spanning_relaxations(&q, 100);
        // Two choices for the a-b component, one for c-d.
        assert_eq!(trees.len(), 2);
        for t in &trees {
            assert_eq!(t.joins.len(), 2);
        }
    }

    #[test]
    fn isolated_relation_ok() {
        let mut q = Query::new();
        q.add_relation(RelationRef::new("solo"));
        let trees = spanning_relaxations(&q, 10);
        assert_eq!(trees.len(), 1);
        assert!(trees[0].joins.is_empty());
    }
}
