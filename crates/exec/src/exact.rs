//! Exact cardinality of conjunctive queries — the "true cardinality"
//! oracle used throughout the paper's evaluation (Metric 1, Fig. 5c).
//!
//! Acyclic queries are counted with Yannakakis-style message passing over
//! the same α/β plan SafeBound uses for bounds: each node carries a map
//! `join value → number of matching tuple combinations in its subtree`, so
//! no join output is ever materialized. Cyclic queries fall back to a
//! progressive count-join that keeps only the group-by counts of the live
//! join variables.

use crate::filter::filtered_rows;
use safebound_query::{BoundPlan, JoinGraph, Query, Step};
use safebound_storage::{Catalog, Table, Value};
use std::collections::HashMap;

/// Errors from exact counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The query references a table absent from the catalog.
    UnknownTable(String),
    /// A referenced column does not exist.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ExactError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Exact output cardinality of a full conjunctive query under bag
/// semantics.
pub fn exact_count(catalog: &Catalog, query: &Query) -> Result<u128, ExactError> {
    if query.num_relations() == 0 {
        return Ok(0);
    }
    let graph = JoinGraph::new(query);
    if graph.is_berge_acyclic() {
        if let Ok(plan) = BoundPlan::build(query, &graph) {
            return yannakakis_count(catalog, query, &graph, &plan);
        }
    }
    progressive_count(catalog, query)
}

fn table_of<'a>(catalog: &'a Catalog, query: &Query, rel: usize) -> Result<&'a Table, ExactError> {
    let name = &query.relations[rel].table;
    catalog
        .table(name)
        .ok_or_else(|| ExactError::UnknownTable(name.clone()))
}

fn column_values(table: &Table, column: &str, rows: &[usize]) -> Result<Vec<Value>, ExactError> {
    let col = table
        .column(column)
        .ok_or_else(|| ExactError::UnknownColumn {
            table: table.name.clone(),
            column: column.to_string(),
        })?;
    Ok(rows.iter().map(|&i| col.get(i)).collect())
}

/// Count an acyclic query by propagating `value → count` maps up the plan.
fn yannakakis_count(
    catalog: &Catalog,
    query: &Query,
    _graph: &JoinGraph,
    plan: &BoundPlan,
) -> Result<u128, ExactError> {
    enum Node {
        Unary(HashMap<Value, u128>),
        Scalar(u128),
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(plan.steps.len());
    // Pre-filter rows per relation once.
    let mut rows_cache: Vec<Option<Vec<usize>>> = vec![None; query.num_relations()];
    let mut rows_of = |rel: usize| -> Result<Vec<usize>, ExactError> {
        if rows_cache[rel].is_none() {
            let table = table_of(catalog, query, rel)?;
            rows_cache[rel] = Some(filtered_rows(table, query.predicate_of(rel)));
        }
        Ok(rows_cache[rel].clone().unwrap())
    };

    for step in &plan.steps {
        let node = match step {
            Step::Alpha { inputs, .. } => {
                let maps: Vec<&HashMap<Value, u128>> = inputs
                    .iter()
                    .map(|&i| match &nodes[i] {
                        Node::Unary(m) => m,
                        Node::Scalar(_) => unreachable!(),
                    })
                    .collect();
                // Intersect on the smallest map.
                let smallest = maps
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, m)| m.len())
                    .unwrap()
                    .0;
                let mut out = HashMap::new();
                'outer: for (v, &c0) in maps[smallest] {
                    let mut prod = c0;
                    for (i, m) in maps.iter().enumerate() {
                        if i == smallest {
                            continue;
                        }
                        match m.get(v) {
                            Some(&c) => prod = prod.saturating_mul(c),
                            None => continue 'outer,
                        }
                    }
                    out.insert(v.clone(), prod);
                }
                Node::Unary(out)
            }
            Step::Beta {
                rel,
                out_column,
                children,
            } => {
                let table = table_of(catalog, query, *rel)?;
                let rows = rows_of(*rel)?;
                let child_vals: Vec<(Vec<Value>, &HashMap<Value, u128>)> = children
                    .iter()
                    .map(|(_, col, node)| {
                        let vals = column_values(table, plan.column_name(*col), &rows)?;
                        let map = match &nodes[*node] {
                            Node::Unary(m) => m,
                            Node::Scalar(_) => unreachable!(),
                        };
                        Ok((vals, map))
                    })
                    .collect::<Result<_, ExactError>>()?;
                match out_column {
                    Some(col) => {
                        let out_vals = column_values(table, plan.column_name(*col), &rows)?;
                        let mut out: HashMap<Value, u128> = HashMap::new();
                        for (i, ov) in out_vals.into_iter().enumerate() {
                            if ov.is_null() {
                                continue; // NULL never joins
                            }
                            let mut w: u128 = 1;
                            let mut alive = true;
                            for (vals, map) in &child_vals {
                                match map.get(&vals[i]) {
                                    Some(&c) => w = w.saturating_mul(c),
                                    None => {
                                        alive = false;
                                        break;
                                    }
                                }
                            }
                            if alive {
                                *out.entry(ov).or_insert(0) += w;
                            }
                        }
                        Node::Unary(out)
                    }
                    None => {
                        let mut total: u128 = 0;
                        for i in 0..rows.len() {
                            let mut w: u128 = 1;
                            let mut alive = true;
                            for (vals, map) in &child_vals {
                                match map.get(&vals[i]) {
                                    Some(&c) => w = w.saturating_mul(c),
                                    None => {
                                        alive = false;
                                        break;
                                    }
                                }
                            }
                            if alive {
                                total = total.saturating_add(w);
                            }
                        }
                        Node::Scalar(total)
                    }
                }
            }
        };
        nodes.push(node);
    }

    let mut total: u128 = 1;
    for &root in &plan.roots {
        let c = match &nodes[root] {
            Node::Scalar(s) => *s,
            Node::Unary(m) => m.values().copied().sum(),
        };
        total = total.saturating_mul(c);
    }
    Ok(total)
}

/// Count a (possibly cyclic) query by folding relations into a running
/// `live-variable assignment → count` table, projecting away variables no
/// longer needed.
fn progressive_count(catalog: &Catalog, query: &Query) -> Result<u128, ExactError> {
    let n = query.num_relations();
    // Join variables: reuse the join graph's attribute classes.
    let graph = JoinGraph::new(query);

    // Greedy order: smallest filtered relation first, then relations
    // connected to the processed set.
    let mut sizes = Vec::with_capacity(n);
    let mut rows_per_rel: Vec<Vec<usize>> = Vec::with_capacity(n);
    for rel in 0..n {
        let table = table_of(catalog, query, rel)?;
        let rows = filtered_rows(table, query.predicate_of(rel));
        sizes.push(rows.len());
        rows_per_rel.push(rows);
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    while order.len() < n {
        // Prefer connected-to-processed, then smallest.
        let mut best: Option<usize> = None;
        for rel in 0..n {
            if used[rel] {
                continue;
            }
            let connected = order.is_empty()
                || graph.rel_vars[rel]
                    .iter()
                    .any(|&v| graph.vars[v].relations().any(|r| used[r]));
            let better = match best {
                None => true,
                Some(b) => {
                    let b_connected = order.is_empty()
                        || graph.rel_vars[b]
                            .iter()
                            .any(|&v| graph.vars[v].relations().any(|r| used[r]));
                    (connected && !b_connected)
                        || (connected == b_connected && sizes[rel] < sizes[b])
                }
            };
            if better {
                best = Some(rel);
            }
        }
        let rel = best.unwrap();
        used[rel] = true;
        order.push(rel);
    }

    // Live variables after processing a prefix: vars also used later.
    let mut state: HashMap<Vec<Value>, u128> = HashMap::new();
    state.insert(Vec::new(), 1);
    let mut state_vars: Vec<usize> = Vec::new(); // var ids, aligned with key tuples

    for (pos, &rel) in order.iter().enumerate() {
        let table = table_of(catalog, query, rel)?;
        let rows = &rows_per_rel[rel];
        // This relation's attrs per var.
        let rel_attrs: Vec<(usize, String)> = graph.rel_vars[rel]
            .iter()
            .map(|&v| (v, graph.vars[v].column_of(rel).unwrap().to_string()))
            .collect();
        // Vars shared with current state.
        let shared: Vec<usize> = rel_attrs
            .iter()
            .filter(|(v, _)| state_vars.contains(v))
            .map(|(v, _)| *v)
            .collect();
        // Vars live after this step: used by any later relation.
        let later_rels: Vec<usize> = order[pos + 1..].to_vec();
        let next_vars: Vec<usize> = state_vars
            .iter()
            .copied()
            .chain(rel_attrs.iter().map(|(v, _)| *v))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|v| graph.vars[*v].relations().any(|r| later_rels.contains(&r)))
            .collect();

        // Group the relation's rows by shared-var values, carrying the
        // projection onto next vars this relation provides.
        let col_vals: HashMap<usize, Vec<Value>> = rel_attrs
            .iter()
            .map(|(v, col)| Ok((*v, column_values(table, col, rows)?)))
            .collect::<Result<_, ExactError>>()?;
        // All attrs of the same var within this relation must agree.
        let mut rel_groups: HashMap<Vec<Value>, HashMap<Vec<Value>, u128>> = HashMap::new();
        for i in 0..rows.len() {
            let mut ok = true;
            let shared_key: Vec<Value> = shared
                .iter()
                .map(|v| {
                    let val = col_vals[v][i].clone();
                    if val.is_null() {
                        ok = false;
                    }
                    val
                })
                .collect();
            if !ok {
                continue;
            }
            let mut null_join = false;
            for (v, _) in &rel_attrs {
                if col_vals[v][i].is_null() {
                    null_join = true;
                }
            }
            if null_join {
                continue;
            }
            let provided: Vec<Value> = next_vars
                .iter()
                .map(|v| {
                    col_vals
                        .get(v)
                        .map(|vals| vals[i].clone())
                        .unwrap_or(Value::Null) // filled from state below
                })
                .collect();
            *rel_groups
                .entry(shared_key)
                .or_default()
                .entry(provided)
                .or_insert(0) += 1;
        }

        // Join state with relation groups.
        let mut next_state: HashMap<Vec<Value>, u128> = HashMap::new();
        let shared_idx_in_state: Vec<usize> = shared
            .iter()
            .map(|v| state_vars.iter().position(|s| s == v).unwrap())
            .collect();
        let state_provides: Vec<Option<usize>> = next_vars
            .iter()
            .map(|v| state_vars.iter().position(|s| s == v))
            .collect();
        let rel_has: Vec<bool> = next_vars.iter().map(|v| col_vals.contains_key(v)).collect();

        for (skey, scount) in &state {
            let shared_key: Vec<Value> = shared_idx_in_state
                .iter()
                .map(|&i| skey[i].clone())
                .collect();
            if let Some(groups) = rel_groups.get(&shared_key) {
                for (provided, rcount) in groups {
                    let mut key: Vec<Value> = Vec::with_capacity(next_vars.len());
                    for (j, _) in next_vars.iter().enumerate() {
                        if rel_has[j] {
                            key.push(provided[j].clone());
                        } else {
                            key.push(skey[state_provides[j].unwrap()].clone());
                        }
                    }
                    *next_state.entry(key).or_insert(0) += scount.saturating_mul(*rcount);
                }
            }
        }
        state = next_state;
        state_vars = next_vars;
        if state.is_empty() {
            return Ok(0);
        }
    }
    Ok(state.values().copied().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_query::parse_sql;
    use safebound_storage::{Column, DataType, Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let r = Table::new(
            "r",
            Schema::new(vec![
                Field::new("x", DataType::Int),
                Field::new("a", DataType::Int),
            ]),
            vec![
                Column::from_ints([1, 1, 2, 3].map(Some)),
                Column::from_ints([10, 20, 10, 30].map(Some)),
            ],
        );
        let s = Table::new(
            "s",
            Schema::new(vec![
                Field::new("x", DataType::Int),
                Field::new("y", DataType::Int),
            ]),
            vec![
                Column::from_ints([1, 1, 2, 9].map(Some)),
                Column::from_ints([7, 8, 7, 7].map(Some)),
            ],
        );
        let t = Table::new(
            "t",
            Schema::new(vec![Field::new("y", DataType::Int)]),
            vec![Column::from_ints([7, 7, 8].map(Some))],
        );
        c.add_table(r);
        c.add_table(s);
        c.add_table(t);
        c
    }

    #[test]
    fn two_way_join() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r, s WHERE r.x = s.x").unwrap();
        // x=1: 2·2=4, x=2: 1·1=1, x=3: 0 ⇒ 5.
        assert_eq!(exact_count(&c, &q).unwrap(), 5);
    }

    #[test]
    fn chain_join() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r, s, t WHERE r.x = s.x AND s.y = t.y").unwrap();
        // s rows: (1,7):r2·t2, (1,8):r2·t1, (2,7):r1·t2 ⇒ 4+2+2 = 8.
        assert_eq!(exact_count(&c, &q).unwrap(), 8);
    }

    #[test]
    fn join_with_predicate() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r, s WHERE r.x = s.x AND r.a = 10").unwrap();
        // r rows with a=10: (1,10),(2,10). x=1: 1·2, x=2: 1·1 ⇒ 3.
        assert_eq!(exact_count(&c, &q).unwrap(), 3);
    }

    #[test]
    fn single_relation_count() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r WHERE r.a > 10").unwrap();
        assert_eq!(exact_count(&c, &q).unwrap(), 2);
    }

    #[test]
    fn cartesian_product() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r, t").unwrap();
        assert_eq!(exact_count(&c, &q).unwrap(), 4 * 3);
    }

    #[test]
    fn cyclic_triangle_count() {
        // Triangle over one table: a.x=b.x, b.a=c.a, c.x=a.x — force the
        // progressive path and verify against brute force.
        let c = catalog();
        let q = parse_sql(
            "SELECT COUNT(*) FROM r a, r b, r c \
             WHERE a.x = b.x AND b.a = c.a AND c.x = a.x",
        )
        .unwrap();
        assert!(!JoinGraph::new(&q).is_berge_acyclic());
        let got = exact_count(&c, &q).unwrap();
        // Brute force.
        let r = catalog();
        let rt = r.table("r").unwrap();
        let rows: Vec<(i64, i64)> = (0..rt.num_rows())
            .map(|i| {
                (
                    rt.column("x").unwrap().get(i).as_i64().unwrap(),
                    rt.column("a").unwrap().get(i).as_i64().unwrap(),
                )
            })
            .collect();
        let mut expected = 0u128;
        for a in &rows {
            for b in &rows {
                for cc in &rows {
                    if a.0 == b.0 && b.1 == cc.1 && cc.0 == a.0 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn agreement_between_paths_on_acyclic() {
        // The progressive path must agree with Yannakakis on acyclic input.
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r, s, t WHERE r.x = s.x AND s.y = t.y").unwrap();
        let via_prog = progressive_count(&c, &q).unwrap();
        assert_eq!(via_prog, 8);
    }

    #[test]
    fn empty_result() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM r, s WHERE r.x = s.x AND r.a = 999").unwrap();
        assert_eq!(exact_count(&c, &q).unwrap(), 0);
    }

    #[test]
    fn unknown_table_error() {
        let c = catalog();
        let q = parse_sql("SELECT COUNT(*) FROM zzz").unwrap();
        assert!(matches!(
            exact_count(&c, &q),
            Err(ExactError::UnknownTable(_))
        ));
    }
}
