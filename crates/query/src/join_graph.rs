//! Join variables, Berge-acyclicity, and the α/β bound plan.
//!
//! The paper expresses queries in datalog form where joins are shared
//! variables. SQL-style equi-join edges are converted to *join variables*
//! by taking connected components over `(relation, column)` attribute
//! nodes: `R.x = S.x ∧ S.x = T.y` yields one variable spanning three
//! attributes.
//!
//! A query is **Berge-acyclic** iff the bipartite incidence graph between
//! relations and join variables is a forest (§2.1, footnote 1). For
//! Berge-acyclic queries we build a [`BoundPlan`]: the bottom-up evaluation
//! order of §3.5 expressed as alternating α-steps (intersect unary
//! relations on one variable) and β-steps (star-join a relation with the
//! unary results of its child variables, projecting onto its parent
//! variable).

use crate::ast::{JoinEdge, Query};

/// Union-find root lookup with path halving (shared by every pass here).
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// A join variable: the equivalence class of attributes forced equal by the
/// query's join conditions. Column names are borrowed from the query's
/// join edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinVar<'q> {
    /// Attributes `(relation index, column name)` in this class, sorted.
    pub attrs: Vec<(usize, &'q str)>,
}

impl<'q> JoinVar<'q> {
    /// The column of `rel` participating in this variable (the first, if
    /// the query forces two columns of the same relation equal).
    pub fn column_of(&self, rel: usize) -> Option<&'q str> {
        self.attrs.iter().find(|(r, _)| *r == rel).map(|&(_, c)| c)
    }

    /// Relation indices incident to this variable, ascending and
    /// deduplicated.
    pub fn relations(&self) -> impl Iterator<Item = usize> + '_ {
        self.first_attrs().map(|(r, _)| r)
    }

    /// Each incident relation with its [`JoinVar::column_of`], ascending:
    /// `attrs` is sorted, so a relation's first attribute leads its run.
    fn first_attrs(&self) -> impl Iterator<Item = (usize, &'q str)> + '_ {
        let attrs = &self.attrs;
        attrs
            .iter()
            .enumerate()
            .filter(move |&(i, a)| i == 0 || attrs[i - 1].0 != a.0)
            .map(|(_, &a)| a)
    }
}

/// The join structure of a query.
#[derive(Debug, Clone)]
pub struct JoinGraph<'q> {
    /// All join variables that span at least two relations, sorted by
    /// their (sorted) attribute lists.
    pub vars: Vec<JoinVar<'q>>,
    /// Per relation, the variable ids it is incident to, ascending.
    pub rel_vars: Vec<Vec<usize>>,
}

impl<'q> JoinGraph<'q> {
    /// Build the join graph of a query.
    pub fn new(query: &'q Query) -> Self {
        Self::from_edges(query.num_relations(), &query.joins)
    }

    /// Build the join graph of `num_relations` relations under a subset of
    /// a query's join edges — what [`JoinGraph::new`] builds for a query
    /// holding exactly those edges, without materializing it (spanning
    /// relaxations pass `subset.iter().map(|&e| &query.joins[e])`).
    pub fn from_edges(num_relations: usize, edges: impl IntoIterator<Item = &'q JoinEdge>) -> Self {
        // Union-find over attribute nodes. A query has a handful of join
        // attributes, so a linear probe beats hashing their names.
        let mut nodes: Vec<(usize, &'q str)> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut node_id = |attr: (usize, &'q str), parent: &mut Vec<usize>| {
            nodes.iter().position(|n| *n == attr).unwrap_or_else(|| {
                nodes.push(attr);
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        for j in edges {
            let a = node_id((j.left, j.left_column.as_str()), &mut parent);
            let b = node_id((j.right, j.right_column.as_str()), &mut parent);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }

        // Walk the attributes in sorted order, opening a class at its
        // first (smallest) member: every class comes out sorted, and the
        // classes — disjoint, so ordered by their smallest member — come
        // out in the order of their attribute lists.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_unstable_by_key(|&i| nodes[i]);
        let mut class_of_root = vec![usize::MAX; nodes.len()];
        let mut vars: Vec<JoinVar<'q>> = Vec::new();
        for i in order {
            let root = find(&mut parent, i);
            if class_of_root[root] == usize::MAX {
                class_of_root[root] = vars.len();
                vars.push(JoinVar { attrs: Vec::new() });
            }
            vars[class_of_root[root]].attrs.push(nodes[i]);
        }
        // Sorted by relation first: a class spans two relations iff its
        // ends differ.
        vars.retain(|v| match (v.attrs.first(), v.attrs.last()) {
            (Some(a), Some(b)) => a.0 != b.0,
            _ => false,
        });

        let mut rel_vars = vec![Vec::new(); num_relations];
        for (vid, var) in vars.iter().enumerate() {
            for rel in var.relations() {
                rel_vars[rel].push(vid);
            }
        }
        JoinGraph { vars, rel_vars }
    }

    /// True iff the bipartite relation↔variable incidence graph is a
    /// forest, i.e. the query is Berge-acyclic.
    pub fn is_berge_acyclic(&self) -> bool {
        // Union-find over relation and variable nodes: the graph is a
        // forest iff no incidence edge joins two already-connected nodes.
        let num_rels = self.rel_vars.len();
        let mut parent: Vec<usize> = (0..num_rels + self.vars.len()).collect();
        for (vid, var) in self.vars.iter().enumerate() {
            for rel in var.relations() {
                let (a, b) = (find(&mut parent, rel), find(&mut parent, num_rels + vid));
                if a == b {
                    return false; // adding this edge closes a cycle
                }
                parent[a] = b;
            }
        }
        true
    }

    /// Connected components over relations (relations joined transitively),
    /// each ascending, ordered by their smallest relation. Relations with
    /// no join variables are singleton components.
    pub fn relation_components(&self) -> Vec<Vec<usize>> {
        let n = self.rel_vars.len();
        let mut parent: Vec<usize> = (0..n).collect();
        for var in &self.vars {
            let mut rels = var.relations();
            let Some(first) = rels.next() else { continue };
            for rel in rels {
                let (a, b) = (find(&mut parent, first), find(&mut parent, rel));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut comp_of_root = vec![usize::MAX; n];
        let mut out: Vec<Vec<usize>> = Vec::new();
        for r in 0..n {
            let root = find(&mut parent, r);
            if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = out.len();
                out.push(Vec::new());
            }
            out[comp_of_root[root]].push(r);
        }
        out
    }
}

/// A plan-local interned column id: an index into [`BoundPlan::columns`].
/// Steps carry these dense ids instead of `String`s so the bound
/// evaluator's hot loop never hashes or compares column-name strings —
/// statistics lookups become direct vector indexing.
pub type ColId = u32;

/// One step of the bound plan.
#[derive(Debug, Clone)]
pub enum Step {
    /// α-step: intersect the unary outputs of `inputs` (all on variable
    /// `var`); Algorithm 2 line 4.
    Alpha {
        /// The shared variable.
        var: usize,
        /// Node ids (indices into [`BoundPlan::steps`]) being intersected.
        inputs: Vec<usize>,
    },
    /// β-step: star-join relation `rel` with one unary input per child
    /// variable and project onto the parent variable; Algorithm 2 line 9.
    Beta {
        /// The relation index in the query.
        rel: usize,
        /// The column of `rel` carrying the parent variable, or `None` at a
        /// component root (the output is a plain cardinality).
        out_column: Option<ColId>,
        /// Child inputs: `(variable id, column of rel, node id)`.
        children: Vec<(usize, ColId, usize)>,
    },
}

/// The bottom-up α/β evaluation plan of a Berge-acyclic query. Node ids are
/// indices into `steps`; `roots` holds one node per connected component of
/// the join graph (component bounds multiply). Column names referenced by
/// steps are interned into `columns` ([`ColId`] is an index into it).
#[derive(Debug, Clone, Default)]
pub struct BoundPlan {
    /// Steps in dependency order (children precede parents).
    pub steps: Vec<Step>,
    /// Root node per connected component.
    pub roots: Vec<usize>,
    /// Interned column names; `steps` refer to columns by index.
    pub columns: Vec<String>,
}

/// Errors from plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query's join graph is cyclic (use spanning-tree relaxation).
    Cyclic,
    /// The query has no relations.
    Empty,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Cyclic => write!(f, "join graph is cyclic; take min over spanning trees"),
            PlanError::Empty => write!(f, "query has no relations"),
        }
    }
}

impl std::error::Error for PlanError {}

impl BoundPlan {
    /// Build the α/β plan for a Berge-acyclic query.
    pub fn build(query: &Query, graph: &JoinGraph<'_>) -> Result<BoundPlan, PlanError> {
        let mut plan = BoundPlan::default();
        plan.rebuild(query.num_relations(), graph)?;
        Ok(plan)
    }

    /// [`BoundPlan::build`] over `self`'s retained buffers (a recycled
    /// plan keeps its step list and column-name strings). On `Err` the
    /// plan is left empty.
    pub fn rebuild(
        &mut self,
        num_relations: usize,
        graph: &JoinGraph<'_>,
    ) -> Result<(), PlanError> {
        self.steps.clear();
        self.roots.clear();
        if num_relations == 0 {
            return Err(PlanError::Empty);
        }
        if !graph.is_berge_acyclic() {
            return Err(PlanError::Cyclic);
        }
        // One β-step per relation; α-steps are the exception.
        self.steps.reserve_exact(num_relations);
        let mut visited = vec![false; num_relations];
        let mut interner = Interner {
            names: &mut self.columns,
            used: 0,
        };
        // One DFS per connected component, rooted at its smallest
        // relation: a DFS covers its whole component, so the next
        // unvisited relation is always the next component's smallest.
        for root in 0..num_relations {
            if !visited[root] {
                let node = dfs_rel(
                    root,
                    None,
                    graph,
                    &mut visited,
                    &mut self.steps,
                    &mut interner,
                );
                self.roots.push(node);
            }
        }
        let used = interner.used;
        self.columns.truncate(used);
        Ok(())
    }

    /// The interned id of a column name, if any step references it.
    pub fn col_id(&self, name: &str) -> Option<ColId> {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| i as ColId)
    }

    /// The name behind an interned column id.
    pub fn column_name(&self, id: ColId) -> &str {
        &self.columns[id as usize]
    }
}

/// Build-time column-name interner over a plan's `columns` (plans
/// reference a handful of columns, so a linear probe beats a map). Names
/// beyond `used` are a recycled plan's leftovers, overwritten in place.
struct Interner<'p> {
    names: &'p mut Vec<String>,
    used: usize,
}

impl Interner<'_> {
    fn intern(&mut self, name: &str) -> ColId {
        if let Some(i) = self.names[..self.used].iter().position(|n| n == name) {
            return i as ColId;
        }
        match self.names.get_mut(self.used) {
            Some(slot) => {
                slot.clear();
                slot.push_str(name);
            }
            None => self.names.push(name.to_string()),
        }
        self.used += 1;
        (self.used - 1) as ColId
    }
}

/// Recursively emit steps for `rel`, entered via `parent` — the parent
/// variable and `rel`'s column in it (None at a component root). Returns
/// the node id of the β-step for `rel`.
fn dfs_rel(
    rel: usize,
    parent: Option<(usize, &str)>,
    graph: &JoinGraph<'_>,
    visited: &mut [bool],
    steps: &mut Vec<Step>,
    interner: &mut Interner<'_>,
) -> usize {
    visited[rel] = true;
    let mut children = Vec::new();
    for &v in &graph.rel_vars[rel] {
        if parent.is_some_and(|(pv, _)| pv == v) {
            continue;
        }
        let mut child_nodes = Vec::new();
        let mut own_col = None;
        for (crel, ccol) in graph.vars[v].first_attrs() {
            if crel == rel {
                own_col = Some(ccol);
            } else if !visited[crel] {
                child_nodes.push(dfs_rel(
                    crel,
                    Some((v, ccol)),
                    graph,
                    visited,
                    steps,
                    interner,
                ));
            }
        }
        // `rel_vars` lists only variables incident to `rel`.
        let Some(own_col) = own_col else { continue };
        let col = interner.intern(own_col);
        match child_nodes.len() {
            0 => {} // variable only touches visited relations (impossible in a forest)
            1 => children.push((v, col, child_nodes[0])),
            _ => {
                steps.push(Step::Alpha {
                    var: v,
                    inputs: child_nodes,
                });
                children.push((v, col, steps.len() - 1));
            }
        }
    }
    let out_column = parent.map(|(_, col)| interner.intern(col));
    steps.push(Step::Beta {
        rel,
        out_column,
        children,
    });
    steps.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RelationRef;

    /// R(X,Y,Z) ⋈ S(Y) ⋈ K(Z) ⋈ T(Z,V,W) ⋈ M(V) ⋈ N(V) ⋈ P(W) — the paper's
    /// Example 3.5.
    fn example_3_5() -> Query {
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("r"));
        let s = q.add_relation(RelationRef::new("s"));
        let k = q.add_relation(RelationRef::new("k"));
        let t = q.add_relation(RelationRef::new("t"));
        let m = q.add_relation(RelationRef::new("m"));
        let n = q.add_relation(RelationRef::new("n"));
        let p = q.add_relation(RelationRef::new("p"));
        q.add_join(r, "y", s, "y");
        q.add_join(r, "z", k, "z");
        q.add_join(r, "z", t, "z");
        q.add_join(t, "v", m, "v");
        q.add_join(t, "v", n, "v");
        q.add_join(t, "w", p, "w");
        q
    }

    #[test]
    fn variables_merge_across_edges() {
        let q = example_3_5();
        let g = JoinGraph::new(&q);
        // Variables: Y{r,s}, Z{r,k,t}, V{t,m,n}, W{t,p}.
        assert_eq!(g.vars.len(), 4);
        let z = g
            .vars
            .iter()
            .find(|v| v.relations().count() == 3 && v.column_of(0).is_some());
        assert!(z.is_some());
    }

    #[test]
    fn example_is_berge_acyclic() {
        let q = example_3_5();
        let g = JoinGraph::new(&q);
        assert!(g.is_berge_acyclic());
        assert_eq!(g.relation_components().len(), 1);
    }

    #[test]
    fn triangle_is_cyclic() {
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("r"));
        let s = q.add_relation(RelationRef::new("s"));
        let t = q.add_relation(RelationRef::new("t"));
        q.add_join(r, "x", s, "x");
        q.add_join(s, "y", t, "y");
        q.add_join(t, "z", r, "z");
        let g = JoinGraph::new(&q);
        assert!(!g.is_berge_acyclic());
        assert!(matches!(BoundPlan::build(&q, &g), Err(PlanError::Cyclic)));
    }

    #[test]
    fn two_relations_sharing_two_vars_is_cyclic() {
        let mut q = Query::new();
        let r = q.add_relation(RelationRef::new("r"));
        let s = q.add_relation(RelationRef::new("s"));
        q.add_join(r, "x", s, "x");
        q.add_join(r, "y", s, "y");
        let g = JoinGraph::new(&q);
        assert!(!g.is_berge_acyclic());
    }

    #[test]
    fn plan_structure_for_example() {
        let q = example_3_5();
        let g = JoinGraph::new(&q);
        let plan = BoundPlan::build(&q, &g).unwrap();
        // 7 β-steps (one per relation) + 2 α-steps (Z seen from R joins K
        // and T; V seen from T joins M and N).
        let alphas = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Alpha { .. }))
            .count();
        let betas = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Beta { .. }))
            .count();
        assert_eq!(betas, 7);
        assert_eq!(alphas, 2);
        assert_eq!(plan.roots.len(), 1);
        // Root β-step has no out column.
        match &plan.steps[plan.roots[0]] {
            Step::Beta { out_column, .. } => assert!(out_column.is_none()),
            _ => panic!("root must be a β-step"),
        }
        // Children precede parents.
        for (i, s) in plan.steps.iter().enumerate() {
            let deps: Vec<usize> = match s {
                Step::Alpha { inputs, .. } => inputs.clone(),
                Step::Beta { children, .. } => children.iter().map(|(_, _, n)| *n).collect(),
            };
            for d in deps {
                assert!(d < i, "step {i} depends on later step {d}");
            }
        }
    }

    #[test]
    fn disconnected_query_has_two_roots() {
        let mut q = Query::new();
        let a = q.add_relation(RelationRef::new("a"));
        let b = q.add_relation(RelationRef::new("b"));
        let c = q.add_relation(RelationRef::new("c"));
        q.add_join(a, "x", b, "x");
        let _ = c;
        let g = JoinGraph::new(&q);
        let plan = BoundPlan::build(&q, &g).unwrap();
        assert_eq!(plan.roots.len(), 2);
    }

    #[test]
    fn single_relation_plan() {
        let mut q = Query::new();
        q.add_relation(RelationRef::new("solo"));
        let g = JoinGraph::new(&q);
        let plan = BoundPlan::build(&q, &g).unwrap();
        assert_eq!(plan.steps.len(), 1);
        match &plan.steps[0] {
            Step::Beta {
                rel,
                out_column,
                children,
            } => {
                assert_eq!(*rel, 0);
                assert!(out_column.is_none());
                assert!(children.is_empty());
            }
            _ => panic!(),
        }
    }
}
