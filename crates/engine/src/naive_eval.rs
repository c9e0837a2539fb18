//! Brute-force query evaluation: materialise the full join — the
//! workspace's one test oracle.
//!
//! Exponential in the query size; used as ground truth in tests and by the
//! naive local-sensitivity baseline (Theorem 3.1) on small instances. It
//! works on plain `Value` rows through its own nested-loop join and calls
//! none of the encoded operators in [`crate::ops`], so a test comparing
//! the engine against it never compares the engine with itself.

use tsens_data::{sat_mul, Count, CountedRelation, Database};
use tsens_query::ConjunctiveQuery;

/// Counted natural join by nested loops: every pair of entries agreeing
/// on the shared attributes, counts multiplied. Result schema is
/// `left ∪ right` (left's columns first); with no shared attributes it is
/// the counted cross product.
pub(crate) fn nested_loop_join(left: &CountedRelation, right: &CountedRelation) -> CountedRelation {
    let shared = left.schema().intersect(right.schema());
    let l_key = left.schema().projection_indices(&shared);
    let r_key = right.schema().projection_indices(&shared);
    let r_extra = right
        .schema()
        .projection_indices(&right.schema().difference(left.schema()));
    let mut out = CountedRelation::new(left.schema().union(right.schema()));
    for (lrow, lc) in left.iter() {
        for (rrow, rc) in right.iter() {
            if l_key.iter().zip(&r_key).all(|(&i, &j)| lrow[i] == rrow[j]) {
                let mut row = lrow.clone();
                row.extend(r_extra.iter().map(|&j| rrow[j].clone()));
                out.push(row, sat_mul(*lc, *rc));
            }
        }
    }
    out
}

/// Materialise the join of the given atoms of `cq` (selection predicates
/// applied) as a counted relation over their attributes. Each step joins
/// the first remaining atom that shares an attribute with the result so
/// far, so cross products are taken only between disconnected parts. No
/// atoms give the unit relation.
pub fn join_atoms(db: &Database, cq: &ConjunctiveQuery, atoms: &[usize]) -> CountedRelation {
    let mut rest: Vec<CountedRelation> = atoms
        .iter()
        .map(|&ai| {
            let atom = &cq.atoms()[ai];
            let rel = db.relation(atom.relation);
            if atom.predicate.is_trivial() {
                CountedRelation::from_relation(rel)
            } else {
                CountedRelation::from_relation(
                    &rel.filtered(|row| atom.predicate.eval(&atom.schema, row)),
                )
            }
        })
        .collect();
    let mut acc = CountedRelation::unit();
    while !rest.is_empty() {
        let next = rest
            .iter()
            .position(|r| !r.schema().is_disjoint_from(acc.schema()))
            .unwrap_or(0);
        acc = nested_loop_join(&acc, &rest.remove(next));
    }
    acc
}

/// Materialise `Q(D)` as a counted relation over all query attributes
/// (selection predicates applied). Handles disconnected queries via cross
/// products.
pub fn full_join(db: &Database, cq: &ConjunctiveQuery) -> CountedRelation {
    let all: Vec<usize> = (0..cq.atom_count()).collect();
    join_atoms(db, cq, &all)
}

/// `|Q(D)|` under bag semantics, by materialising the full join.
pub fn naive_count(db: &Database, cq: &ConjunctiveQuery) -> Count {
    full_join(db, cq).total_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Relation, Row, Schema, Value};

    /// Figure 1 of the paper: the four-relation join with exactly one
    /// output tuple.
    fn figure1() -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let [a, b, c, d, e, f] = db.attrs(["A", "B", "C", "D", "E", "F"]);
        let v = |s: &str| Value::str(s);
        let r = |vals: Vec<Vec<Value>>| vals;
        db.add_relation(
            "R1",
            Relation::from_rows(
                Schema::new(vec![a, b, c]),
                r(vec![
                    vec![v("a1"), v("b1"), v("c1")],
                    vec![v("a1"), v("b2"), v("c1")],
                    vec![v("a2"), v("b1"), v("c1")],
                ]),
            ),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(
                Schema::new(vec![a, b, d]),
                r(vec![
                    vec![v("a1"), v("b1"), v("d1")],
                    vec![v("a2"), v("b2"), v("d2")],
                ]),
            ),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(
                Schema::new(vec![a, e]),
                r(vec![
                    vec![v("a1"), v("e1")],
                    vec![v("a2"), v("e1")],
                    vec![v("a2"), v("e2")],
                ]),
            ),
        )
        .unwrap();
        db.add_relation(
            "R4",
            Relation::from_rows(
                Schema::new(vec![b, f]),
                r(vec![
                    vec![v("b1"), v("f1")],
                    vec![v("b2"), v("f1")],
                    vec![v("b2"), v("f2")],
                ]),
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "fig1", &["R1", "R2", "R3", "R4"]).unwrap();
        (db, q)
    }

    #[test]
    fn figure1_join_has_one_tuple() {
        let (db, q) = figure1();
        let out = full_join(&db, &q);
        assert_eq!(out.total_count(), 1);
        // The single output tuple is (a1,b1,c1,d1,e1,f1) — Figure 1(b).
        let (row, c) = out.max_entry().unwrap();
        assert_eq!(c, 1);
        let strs: Vec<&str> = row.iter().map(|v| v.as_str().unwrap()).collect();
        assert!(strs.contains(&"a1") && strs.contains(&"f1") && strs.contains(&"d1"));
    }

    #[test]
    fn inserting_the_most_sensitive_tuple_adds_four() {
        // Example 2.1: adding (a2,b2,c1) to R1 raises the output size by 4.
        let (mut db, q) = figure1();
        let t: Row = vec![Value::str("a2"), Value::str("b2"), Value::str("c1")];
        db.insert_row(0, t);
        assert_eq!(naive_count(&db, &q), 5);
    }

    #[test]
    fn removing_a_tuple_drops_one() {
        // Example 2.1: removing (a1,b1,c1) from R1 removes the only output.
        let (mut db, q) = figure1();
        let t: Row = vec![Value::str("a1"), Value::str("b1"), Value::str("c1")];
        assert!(db.remove_row(0, &t));
        assert_eq!(naive_count(&db, &q), 0);
    }

    #[test]
    fn disconnected_query_cross_product() {
        let mut db = Database::new();
        let [x, y] = db.attrs(["X", "Y"]);
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![x]),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(Schema::new(vec![y]), vec![vec![Value::Int(7)]; 3]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "x", &["R", "S"]).unwrap();
        assert_eq!(naive_count(&db, &q), 6);
    }
}
