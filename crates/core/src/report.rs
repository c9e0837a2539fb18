//! Result types: tuple references, sensitivity reports, and per-relation
//! multiplicity tables.

use std::fmt;
use std::sync::Arc;
use tsens_data::{
    sat_mul, Count, CountedRelation, Database, Dict, EncodedRelation, Row, Schema, Value,
};
use tsens_engine::ops::hash_join_enc;

/// A (possibly partial) tuple of one relation: one entry per schema
/// column, `None` meaning "any value" — the paper's extrapolated
/// attributes (§5.4 "Other"), e.g. `A_0` of a path query's first relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleRef {
    /// Index of the relation in the database catalog.
    pub relation: usize,
    /// Values aligned with the relation schema; `None` = unconstrained.
    pub values: Vec<Option<Value>>,
}

impl TupleRef {
    /// Concretise the tuple: wildcards are filled with `filler`.
    ///
    /// Any filler value preserves the tuple's sensitivity because wildcard
    /// attributes occur in no other relation (they cannot affect the join).
    pub fn concretise(&self, filler: Value) -> Row {
        self.values
            .iter()
            .map(|v| v.clone().unwrap_or_else(|| filler.clone()))
            .collect()
    }

    /// Human-readable rendering using the catalog (`R1(a2, b2, *)`).
    pub fn display(&self, db: &Database) -> String {
        let vals: Vec<String> = self
            .values
            .iter()
            .map(|v| match v {
                Some(v) => v.to_string(),
                None => "*".to_owned(),
            })
            .collect();
        format!("{}({})", db.relation_name(self.relation), vals.join(", "))
    }
}

/// The maximum tuple sensitivity within one relation, with a witness.
#[derive(Clone, Debug)]
pub struct RelationSensitivity {
    /// Index of the relation in the database catalog.
    pub relation: usize,
    /// `max_t δ(t, Q, D)` over the relation's representative domain.
    pub sensitivity: Count,
    /// A tuple achieving it (`None` when the sensitivity is 0: no tuple of
    /// this relation can change the output).
    pub witness: Option<TupleRef>,
}

/// Local sensitivity plus its per-relation breakdown (the paper's
/// Figure 6b view) and witnesses.
#[derive(Clone, Debug)]
pub struct SensitivityReport {
    /// `LS(Q, D)` (Definition 2.2).
    pub local_sensitivity: Count,
    /// A most sensitive tuple `t*` (`None` only if no tuple of any
    /// relation can change the output, i.e. `LS = 0`).
    pub witness: Option<TupleRef>,
    /// Per-relation maxima, in query-atom order.
    pub per_relation: Vec<RelationSensitivity>,
}

impl SensitivityReport {
    /// Assemble a report from per-relation maxima: the overall local
    /// sensitivity is their maximum (first winner on ties).
    pub fn from_per_relation(per_relation: Vec<RelationSensitivity>) -> Self {
        let mut best: Option<&RelationSensitivity> = None;
        for rs in &per_relation {
            if rs.witness.is_some() && best.is_none_or(|b| rs.sensitivity > b.sensitivity) {
                best = Some(rs);
            }
        }
        let (ls, witness) = match best {
            Some(rs) => (rs.sensitivity, rs.witness.clone()),
            None => (0, None),
        };
        SensitivityReport {
            local_sensitivity: ls,
            witness,
            per_relation,
        }
    }
}

/// Shorthand alias used in the facade prelude.
pub type LocalSensitivity = SensitivityReport;

/// One multiplicative factor of a multiplicity table: counts keyed on a
/// subset of the relation's schema.
///
/// The table is kept **dictionary-encoded** (sorted flat `u32` rows —
/// the passes hand their summaries over without decoding); lookups
/// encode the probe values and binary-search the sorted rows. A probe
/// value absent from the dictionary cannot be in the table: count 0.
#[derive(Clone)]
struct Factor {
    schema: Schema,
    /// Grouped (distinct rows, sorted) encoded table.
    table: Arc<EncodedRelation>,
    /// Largest entry (row, count) decoded, ties broken by smallest row.
    max: Option<(Row, Count)>,
}

impl Factor {
    fn from_encoded(table: EncodedRelation, dict: &Dict) -> Factor {
        let max = table
            .max_entry()
            .map(|(r, c)| (r.iter().map(|&code| dict.decode(code)).collect(), c));
        Factor {
            schema: table.schema().clone(),
            table: Arc::new(table),
            max,
        }
    }

    /// Count of the encoded `key`, or 0 — binary search over the sorted
    /// rows.
    fn lookup_codes(&self, key: &[u32]) -> Count {
        self.table.find_row(key).map_or(0, |i| self.table.count(i))
    }
}

/// The multiplicity table `T^i` of one relation (Eqn 6): for every
/// combination of *covered* attribute values in the representative domain,
/// the number of join combinations of the **other** relations consistent
/// with it — i.e. the tuple sensitivity of any tuple matching that
/// combination.
///
/// The table is stored **factored**: the "other relations" inputs split
/// into connected components that share no attributes, so `T^i` is the
/// cross product of per-component tables and every lookup/max factorises
/// (`δ(t) = Π_f f[t]`). This is exactly what makes path and doubly
/// acyclic queries near-linear (§4, §5.3): for a path query the two
/// factors are `J(R_i)` and `K(R_{i+1})` and the cross product is never
/// materialised. [`MultiplicityTable::materialise`] builds the explicit
/// table when needed.
///
/// `covered` is the subset of the relation's schema shared with at least
/// one other atom; the remaining attributes are wildcards that cannot
/// affect the join. The factors and the dictionary sit behind `Arc`s, so
/// cloning a `MultiplicityTable` — e.g. handing one out of a session's
/// result cache — shares the (potentially large) factor data instead of
/// deep-copying it.
#[derive(Clone)]
pub struct MultiplicityTable {
    /// Index of the relation in the database catalog.
    pub relation: usize,
    /// The covered attributes (union of factor schemas), a subset of the
    /// relation's schema.
    pub covered: Schema,
    factors: Vec<Factor>,
    /// The dictionary every factor is encoded with.
    dict: Arc<Dict>,
}

impl MultiplicityTable {
    /// Build from schema-disjoint, grouped encoded factors sharing one
    /// dictionary — the engine hands its pass outputs straight in, with
    /// no decode and no re-hashing. An **empty factor list** means "no
    /// other relations constrain this one": every tuple has sensitivity 1
    /// (the single-relation query case).
    ///
    /// # Panics
    /// Panics if two factors share an attribute.
    pub fn from_encoded_factors(
        relation: usize,
        factors: Vec<EncodedRelation>,
        dict: &Arc<Dict>,
    ) -> Self {
        let mut covered = Schema::empty();
        for f in &factors {
            assert!(
                covered.is_disjoint_from(f.schema()),
                "multiplicity-table factors must be schema-disjoint"
            );
            covered = covered.union(f.schema());
        }
        MultiplicityTable {
            relation,
            covered,
            factors: factors
                .into_iter()
                .map(|t| Factor::from_encoded(t, dict))
                .collect(),
            dict: Arc::clone(dict),
        }
    }

    /// Tuple sensitivity of a full row of the relation (laid out by
    /// `rel_schema`): the product of the factor lookups of the row's
    /// projections; any missing combination gives 0.
    pub fn sensitivity_of(&self, rel_schema: &Schema, row: &[Value]) -> Count {
        let mut out: Count = 1;
        let mut key: Vec<u32> = Vec::new();
        for f in &self.factors {
            let idx = rel_schema.projection_indices(&f.schema);
            key.clear();
            for &i in &idx {
                match self.dict.encode(&row[i]) {
                    Some(code) => key.push(code),
                    None => return 0,
                }
            }
            let c = f.lookup_codes(&key);
            if c == 0 {
                return 0;
            }
            out = sat_mul(out, c);
        }
        out
    }

    /// The maximum entry as a [`RelationSensitivity`]: the product of the
    /// factor maxima, with the factor argmax values placed into a
    /// full-width witness (wildcards elsewhere).
    pub fn max_sensitivity(&self, rel_schema: &Schema) -> RelationSensitivity {
        let mut sensitivity: Count = 1;
        let mut values: Vec<Option<Value>> = vec![None; rel_schema.arity()];
        for f in &self.factors {
            let Some((row, c)) = &f.max else {
                return RelationSensitivity {
                    relation: self.relation,
                    sensitivity: 0,
                    witness: None,
                };
            };
            sensitivity = sat_mul(sensitivity, *c);
            for (k, &attr) in f.schema.attrs().iter().enumerate() {
                let pos = rel_schema
                    .position(attr)
                    .expect("covered schema is a subset of the relation schema");
                values[pos] = Some(row[k].clone());
            }
        }
        RelationSensitivity {
            relation: self.relation,
            sensitivity,
            witness: Some(TupleRef {
                relation: self.relation,
                values,
            }),
        }
    }

    /// The explicit table over `covered`, encoded: the cross product of
    /// the factors, grouped (rows distinct and sorted). Its size is the
    /// product of the factor sizes, so only atoms with a selection
    /// predicate (§5.4), which may span factors, pay for it.
    pub(crate) fn materialise_encoded(&self) -> EncodedRelation {
        let mut out = EncodedRelation::unit();
        for f in &self.factors {
            out = hash_join_enc(&out, &f.table);
        }
        out.group(&self.covered)
    }

    /// The explicit table over `covered`, decoded to values: the cross
    /// product of the factors, grouped (rows distinct and sorted).
    pub fn materialise(&self) -> CountedRelation {
        self.materialise_encoded().decode(&self.dict)
    }

    /// Number of stored entries across factors (memory proxy; the
    /// represented table has the *product* of the factor sizes).
    pub fn len(&self) -> usize {
        self.factors.iter().map(|f| f.table.len()).sum()
    }

    /// True if no tuple of the relation can have nonzero sensitivity.
    pub fn is_empty(&self) -> bool {
        self.factors.iter().any(|f| f.table.is_empty())
    }

    /// Number of factors (1 for plain tables, 0 for "unconstrained").
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }
}

impl fmt::Debug for MultiplicityTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MultiplicityTable(rel #{}, covered {:?}, {} factors, {} entries)",
            self.relation,
            self.covered,
            self.factors.len(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::AttrId;

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// A multiplicity table over `factors`, encoded with one dictionary
    /// covering all of their values.
    fn table(relation: usize, factors: Vec<CountedRelation>) -> MultiplicityTable {
        let dict = Arc::new(Dict::from_values(
            factors
                .iter()
                .flat_map(|f| f.iter().flat_map(|(row, _)| row.iter().cloned()))
                .collect::<Vec<_>>(),
        ));
        let encoded = factors
            .iter()
            .map(|f| {
                let mut t = dict.encode_counted(f);
                t.sort();
                t
            })
            .collect();
        MultiplicityTable::from_encoded_factors(relation, encoded, &dict)
    }

    #[test]
    fn tuple_ref_concretise_fills_wildcards() {
        let t = TupleRef {
            relation: 0,
            values: vec![Some(Value::Int(1)), None, Some(Value::Int(3))],
        };
        assert_eq!(t.concretise(Value::Int(0)), row(&[1, 0, 3]));
    }

    #[test]
    fn report_from_per_relation_picks_max() {
        let mk = |rel: usize, s: Count| RelationSensitivity {
            relation: rel,
            sensitivity: s,
            witness: Some(TupleRef {
                relation: rel,
                values: vec![],
            }),
        };
        let report = SensitivityReport::from_per_relation(vec![mk(0, 3), mk(1, 7), mk(2, 7)]);
        assert_eq!(report.local_sensitivity, 7);
        assert_eq!(report.witness.unwrap().relation, 1); // first winner
    }

    #[test]
    fn report_with_no_witnesses_is_zero() {
        let report = SensitivityReport::from_per_relation(vec![RelationSensitivity {
            relation: 0,
            sensitivity: 0,
            witness: None,
        }]);
        assert_eq!(report.local_sensitivity, 0);
        assert!(report.witness.is_none());
    }

    #[test]
    fn single_factor_lookup() {
        // Relation schema (A0, A1, A2); covered = (A0, A2).
        let rel_schema = schema(&[0, 1, 2]);
        let covered = schema(&[0, 2]);
        let t = CountedRelation::from_pairs(
            covered.clone(),
            vec![(row(&[1, 9]), 4), (row(&[2, 9]), 2)],
        );
        let mt = table(0, vec![t]);
        assert_eq!(mt.covered, covered);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[1, 555, 9])), 4);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[2, 0, 9])), 2);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[3, 0, 9])), 0);
        assert_eq!(mt.len(), 2);
        assert!(!mt.is_empty());
        assert_eq!(mt.factor_count(), 1);
    }

    #[test]
    fn factored_lookup_multiplies() {
        // Factors over disjoint attributes A0 and A2: δ(a, _, c) = f0[a]·f1[c].
        let rel_schema = schema(&[0, 1, 2]);
        let f0 = CountedRelation::from_pairs(schema(&[0]), vec![(row(&[1]), 3), (row(&[2]), 5)]);
        let f1 = CountedRelation::from_pairs(schema(&[2]), vec![(row(&[9]), 7)]);
        let mt = table(0, vec![f0, f1]);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[2, 0, 9])), 35);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[1, 0, 9])), 21);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[1, 0, 8])), 0);
        // Max = 5 × 7 with witness (2, *, 9).
        let rs = mt.max_sensitivity(&rel_schema);
        assert_eq!(rs.sensitivity, 35);
        assert_eq!(
            rs.witness.unwrap().values,
            vec![Some(Value::Int(2)), None, Some(Value::Int(9))]
        );
    }

    #[test]
    fn materialise_matches_factored_lookups() {
        let f0 = CountedRelation::from_pairs(schema(&[0]), vec![(row(&[1]), 3), (row(&[2]), 5)]);
        let f1 = CountedRelation::from_pairs(schema(&[2]), vec![(row(&[9]), 7), (row(&[8]), 2)]);
        let mt = table(0, vec![f0, f1]);
        let mat = mt.materialise();
        assert_eq!(mat.len(), 4);
        let rel_schema = schema(&[0, 2]);
        for (r, c) in mat.iter() {
            assert_eq!(mt.sensitivity_of(&rel_schema, r), *c);
        }
    }

    #[test]
    fn zero_factors_means_sensitivity_one() {
        let mt = table(3, vec![]);
        let rel_schema = schema(&[0]);
        assert_eq!(mt.sensitivity_of(&rel_schema, &row(&[42])), 1);
        let rs = mt.max_sensitivity(&rel_schema);
        assert_eq!(rs.sensitivity, 1);
        assert_eq!(rs.witness.unwrap().values, vec![None]);
        assert_eq!(mt.factor_count(), 0);
    }

    #[test]
    fn empty_factor_zeroes_everything() {
        let f0 = CountedRelation::new(schema(&[0]));
        let mt = table(1, vec![f0]);
        assert!(mt.is_empty());
        let rs = mt.max_sensitivity(&schema(&[0, 1]));
        assert_eq!(rs.sensitivity, 0);
        assert!(rs.witness.is_none());
        assert_eq!(mt.sensitivity_of(&schema(&[0, 1]), &row(&[1, 2])), 0);
    }

    #[test]
    #[should_panic(expected = "schema-disjoint")]
    fn overlapping_factors_rejected() {
        let f0 = CountedRelation::new(schema(&[0, 1]));
        let f1 = CountedRelation::new(schema(&[1]));
        let _ = table(0, vec![f0, f1]);
    }
}
