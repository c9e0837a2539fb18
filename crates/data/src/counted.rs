//! Counted relations: rows annotated with multiplicities.
//!
//! These are the paper's `cnt`-extended relations (§4.2): every row carries
//! a [`Count`], and the engine's operators (`r⋈`, `γ`) multiply and sum
//! those counts instead of materialising duplicate rows.

use crate::fast::{fast_map_with_capacity, FastMap};
use crate::relation::{Relation, Row};
use crate::schema::Schema;
use crate::value::Value;
use crate::{sat_add, Count};
use std::fmt;

/// A relation whose rows carry multiplicities.
///
/// Rows are **not** required to be distinct; use [`CountedRelation::group`]
/// (the paper's `γ_A`) to canonicalise. Most engine operators produce
/// grouped (key-distinct) outputs.
#[derive(Clone, PartialEq, Eq)]
pub struct CountedRelation {
    schema: Schema,
    rows: Vec<(Row, Count)>,
}

impl CountedRelation {
    /// An empty counted relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        CountedRelation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build from `(row, count)` pairs.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema's.
    pub fn from_pairs(schema: Schema, rows: Vec<(Row, Count)>) -> Self {
        for (row, _) in &rows {
            assert_eq!(
                row.len(),
                schema.arity(),
                "row arity must match schema arity"
            );
        }
        CountedRelation { schema, rows }
    }

    /// Lift a plain bag relation: each distinct row becomes one entry whose
    /// count is its multiplicity in the bag.
    pub fn from_relation(rel: &Relation) -> Self {
        let mut groups: FastMap<Row, Count> = fast_map_with_capacity(rel.len());
        for row in rel.rows() {
            // Probe by slice first so repeated rows never clone.
            if let Some(slot) = groups.get_mut(row.as_slice()) {
                *slot += 1;
            } else {
                groups.insert(row.clone(), 1);
            }
        }
        let mut rows: Vec<(Row, Count)> = groups.into_iter().collect();
        // Deterministic order: downstream algorithms use "first max" tie-breaks.
        rows.sort_unstable();
        CountedRelation {
            schema: rel.schema().clone(),
            rows,
        }
    }

    /// The single row of the "unit" relation: empty schema, one row, count 1.
    ///
    /// Acts as the identity for the multiplicity-join; used for `⊤(root)`.
    pub fn unit() -> Self {
        CountedRelation {
            schema: Schema::empty(),
            rows: vec![(Vec::new(), 1)],
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of entries (distinct rows if grouped).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append an entry.
    ///
    /// # Panics
    /// Panics if the row arity differs from the schema arity.
    pub fn push(&mut self, row: Row, count: Count) {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity must match schema arity"
        );
        self.rows.push((row, count));
    }

    /// Sum of all counts — for a counted join result this is the
    /// bag-semantics output size `|Q(D)|`.
    pub fn total_count(&self) -> Count {
        self.rows.iter().fold(0, |acc, (_, c)| sat_add(acc, *c))
    }

    /// The paper's `γ_A`: project onto `target` and sum counts per group.
    ///
    /// Output rows are distinct and sorted (deterministic).
    pub fn group(&self, target: &Schema) -> CountedRelation {
        let idx = self.schema.projection_indices(target);
        let mut groups: FastMap<Row, Count> = fast_map_with_capacity(self.rows.len());
        // Reuse one projected-key buffer: existing groups are found by a
        // borrowed-slice probe, and a fresh `Row` is allocated only the
        // first time a key is seen.
        let mut key: Row = Vec::with_capacity(idx.len());
        for (row, c) in &self.rows {
            key.clear();
            key.extend(idx.iter().map(|&i| row[i].clone()));
            if let Some(slot) = groups.get_mut(key.as_slice()) {
                *slot = sat_add(*slot, *c);
            } else {
                groups.insert(std::mem::take(&mut key), *c);
                key.reserve(idx.len());
            }
        }
        let mut rows: Vec<(Row, Count)> = groups.into_iter().collect();
        rows.sort_unstable();
        CountedRelation {
            schema: target.clone(),
            rows,
        }
    }

    /// The entry with the largest count, ties broken by smallest row
    /// (entries must be sorted, which [`group`](Self::group) guarantees).
    pub fn max_entry(&self) -> Option<(&Row, Count)> {
        self.rows
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(r, c)| (r, *c))
    }

    /// Look up the count of `key` assuming entries are key-distinct.
    /// Linear scan — only for tests/small relations; the engine builds hash
    /// indexes instead.
    pub fn count_of(&self, key: &[Value]) -> Count {
        self.rows
            .iter()
            .filter(|(r, _)| r.as_slice() == key)
            .fold(0, |acc, (_, c)| sat_add(acc, *c))
    }

    /// Iterate over `(row, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = &(Row, Count)> {
        self.rows.iter()
    }
}

impl fmt::Debug for CountedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Counted{:?} [{} entries]", self.schema, self.rows.len())?;
        for (row, c) in self.rows.iter().take(20) {
            writeln!(f, "  {row:?} ×{c}")?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … ({} more)", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn from_relation_groups_duplicates() {
        let rel = Relation::from_rows(schema(&[0]), vec![row(&[7]), row(&[7]), row(&[8])]);
        let c = CountedRelation::from_relation(&rel);
        assert_eq!(c.len(), 2);
        assert_eq!(c.count_of(&row(&[7])), 2);
        assert_eq!(c.count_of(&row(&[8])), 1);
        assert_eq!(c.total_count(), 3);
    }

    #[test]
    fn group_sums_counts() {
        let c = CountedRelation::from_pairs(
            schema(&[0, 1]),
            vec![(row(&[1, 10]), 2), (row(&[1, 20]), 3), (row(&[2, 10]), 5)],
        );
        let g = c.group(&schema(&[0]));
        assert_eq!(g.count_of(&row(&[1])), 5);
        assert_eq!(g.count_of(&row(&[2])), 5);
        assert_eq!(g.total_count(), 10);
    }

    #[test]
    fn group_to_empty_schema_totals_everything() {
        let c = CountedRelation::from_pairs(schema(&[0]), vec![(row(&[1]), 2), (row(&[2]), 3)]);
        let g = c.group(&Schema::empty());
        assert_eq!(g.len(), 1);
        assert_eq!(g.total_count(), 5);
    }

    #[test]
    fn max_entry_breaks_ties_on_smallest_row() {
        let c = CountedRelation::from_pairs(
            schema(&[0]),
            vec![(row(&[1]), 4), (row(&[2]), 4), (row(&[3]), 1)],
        );
        let (r, cnt) = c.max_entry().unwrap();
        assert_eq!(cnt, 4);
        assert_eq!(r, &row(&[1]));
    }

    #[test]
    fn unit_is_identity_shaped() {
        let u = CountedRelation::unit();
        assert_eq!(u.len(), 1);
        assert!(u.schema().is_empty());
        assert_eq!(u.total_count(), 1);
    }

    #[test]
    fn max_entry_of_empty_is_none() {
        assert!(CountedRelation::new(schema(&[0])).max_entry().is_none());
    }
}
