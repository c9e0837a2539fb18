//! Property tests: the dictionary-encoded engine is observationally
//! identical to the naive `Value`-row oracle ([`tsens_engine::naive_eval`]).
//!
//! For random path, star and triangle databases (with mixed Int/Str
//! columns) we check that
//!
//! * [`count_query`] == `naive_count`;
//! * every node's ⊥/⊤ summary in a session's pass state, decoded back
//!   through the session dictionary, equals its definition evaluated by brute force
//!   **exactly** — same rows, same counts, same (deterministic) order:
//!   ⊥(v) is `γ_{up(v)}` of the naive join of `v`'s subtree atoms, and
//!   ⊤(v) is `γ_{up(v)}` of the naive join of every other atom.

use proptest::prelude::*;
use tsens_data::{Database, Relation, Schema, Value};
use tsens_engine::naive_eval::{join_atoms, naive_count};
use tsens_engine::yannakakis::count_query;
use tsens_engine::EngineSession;
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree};

/// Mixed-type value: a third of the domain becomes strings so the
/// dictionary must keep ints and strings order-isomorphic side by side.
fn value(x: i64) -> Value {
    if x % 3 == 0 {
        Value::str(format!("s{x}"))
    } else {
        Value::Int(x)
    }
}

fn relation(schema: Schema, rows: &[Vec<i64>]) -> Relation {
    let mut rel = Relation::new(schema);
    for row in rows {
        rel.push(row.iter().map(|&x| value(x)).collect());
    }
    rel
}

/// Build a database whose relation `i` is over the attribute pairs given
/// by `edges[i]` with the corresponding random rows.
fn database(edges: &[(&str, &str)], rows: &[Vec<Vec<i64>>]) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let mut names = Vec::new();
    for (i, ((a1, a2), rel_rows)) in edges.iter().zip(rows).enumerate() {
        let s1 = db.attr(a1);
        let s2 = db.attr(a2);
        let name = format!("R{i}");
        db.add_relation(&name, relation(Schema::new(vec![s1, s2]), rel_rows))
            .unwrap();
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let q = ConjunctiveQuery::over(&db, "prop", &refs).unwrap();
    (db, q)
}

/// The atoms of `v`'s subtree.
fn subtree_atoms(tree: &DecompositionTree, v: usize) -> Vec<usize> {
    let mut atoms = tree.bags()[v].atoms.clone();
    for &c in tree.children(v) {
        atoms.extend(subtree_atoms(tree, c));
    }
    atoms
}

/// Assert the encoded passes match their brute-force definitions node
/// for node.
fn assert_passes_equivalent(db: &Database, q: &ConjunctiveQuery, tree: &DecompositionTree) {
    // Counts: encoded == brute force.
    let enc = count_query(db, q, tree);
    let brute = naive_count(db, q);
    assert_eq!(enc, brute, "encoded vs naive count");

    // Summaries: decode(⊥_enc) == ⊥ and decode(⊤_enc) == ⊤ exactly.
    let passes = EngineSession::new(db).passes(q, tree).unwrap();
    let (dict, bots_enc, tops_enc) = (&passes.dict, &passes.bots, passes.tops(tree));

    for v in 0..tree.bag_count() {
        let up = tree.up_schema(v);
        let inside = subtree_atoms(tree, v);
        let outside: Vec<usize> = (0..q.atom_count())
            .filter(|ai| !inside.contains(ai))
            .collect();
        let bot = join_atoms(db, q, &inside).group(&up);
        let top = join_atoms(db, q, &outside).group(&up);
        assert_eq!(bots_enc[v].decode(dict), bot, "⊥ mismatch at node {v}");
        assert_eq!(tops_enc[v].decode(dict), top, "⊤ mismatch at node {v}");
    }
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Path query R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3).
    #[test]
    fn encoded_matches_naive_on_paths(
        r0 in rows_strategy(12, 4),
        r1 in rows_strategy(12, 4),
        r2 in rows_strategy(12, 4),
    ) {
        let (db, q) = database(
            &[("A0", "A1"), ("A1", "A2"), ("A2", "A3")],
            &[r0, r1, r2],
        );
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        assert_passes_equivalent(&db, &q, &tree);
    }

    /// Star query R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C) around a shared hub.
    #[test]
    fn encoded_matches_naive_on_stars(
        r0 in rows_strategy(10, 3),
        r1 in rows_strategy(10, 3),
        r2 in rows_strategy(10, 3),
    ) {
        let (db, q) = database(
            &[("H", "A"), ("H", "B"), ("H", "C")],
            &[r0, r1, r2],
        );
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        assert_passes_equivalent(&db, &q, &tree);
    }

    /// Triangle query R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD.
    #[test]
    fn encoded_matches_naive_on_triangles(
        r0 in rows_strategy(8, 3),
        r1 in rows_strategy(8, 3),
        r2 in rows_strategy(8, 3),
    ) {
        let (db, q) = database(
            &[("A", "B"), ("B", "C"), ("C", "A")],
            &[r0, r1, r2],
        );
        let ghd = auto_decompose(&q).unwrap();
        assert_passes_equivalent(&db, &q, &ghd);
    }
}
