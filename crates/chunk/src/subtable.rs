//! The columnar sub-table container.

use orv_types::{
    BoundingBox, ColumnBatch, ColumnData, Error, Interval, Record, Result, Schema, SubTableId,
    Value,
};
use std::sync::Arc;

/// A partition of a virtual table: a subset of records and attributes, with
/// methods to iterate through records and attributes in a record, plus the
/// bounding box of its contents.
///
/// Sub-tables are immutable once built and cheaply cloneable (`Arc`ed
/// columns), which lets the caching service share them across join tasks
/// without copies.
#[derive(Clone, Debug)]
pub struct SubTable {
    id: SubTableId,
    schema: Arc<Schema>,
    columns: Arc<Vec<Vec<Value>>>,
    bbox: BoundingBox,
}

impl SubTable {
    /// Build from columns (one `Vec<Value>` per schema attribute, equal
    /// lengths, type-checked). The bounding box is computed from the data.
    pub fn from_columns(
        id: SubTableId,
        schema: Arc<Schema>,
        columns: Vec<Vec<Value>>,
    ) -> Result<Self> {
        if columns.len() != schema.arity() {
            return Err(Error::Schema(format!(
                "sub-table {id}: {} columns for schema of arity {}",
                columns.len(),
                schema.arity()
            )));
        }
        let nrows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (i, (col, attr)) in columns.iter().zip(schema.attrs()).enumerate() {
            if col.len() != nrows {
                return Err(Error::Schema(format!(
                    "sub-table {id}: column {i} has {} rows, expected {nrows}",
                    col.len()
                )));
            }
            if let Some(v) = col.iter().find(|v| v.data_type() != attr.dtype) {
                return Err(Error::Schema(format!(
                    "sub-table {id}: column `{}` expects {} but holds {}",
                    attr.name,
                    attr.dtype,
                    v.data_type()
                )));
            }
        }
        let bbox = compute_bbox(&schema, &columns);
        Ok(SubTable {
            id,
            schema,
            columns: Arc::new(columns),
            bbox,
        })
    }

    /// Build from row records.
    pub fn from_records(id: SubTableId, schema: Arc<Schema>, records: &[Record]) -> Result<Self> {
        let mut columns: Vec<Vec<Value>> = schema
            .attrs()
            .iter()
            .map(|_| Vec::with_capacity(records.len()))
            .collect();
        for (ri, r) in records.iter().enumerate() {
            if !r.conforms_to(&schema) {
                return Err(Error::Schema(format!(
                    "sub-table {id}: record {ri} does not conform to {schema}"
                )));
            }
            for (ci, v) in r.values().iter().enumerate() {
                columns[ci].push(*v);
            }
        }
        SubTable::from_columns(id, schema, columns)
    }

    /// An empty sub-table of the given schema.
    pub fn empty(id: SubTableId, schema: Arc<Schema>) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        SubTable {
            id,
            schema,
            columns: Arc::new(columns),
            bbox: BoundingBox::unbounded(),
        }
    }

    /// This sub-table's `(table, chunk)` identity.
    #[inline]
    pub fn id(&self) -> SubTableId {
        self.id
    }

    /// The schema of the records held.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Bounds of the held data (explicit bounds for every attribute, unless
    /// the sub-table is empty, in which case the box is unbounded).
    #[inline]
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Number of records.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// True if no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// The column for attribute index `idx`.
    #[inline]
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.columns[idx]
    }

    /// The column for the named attribute.
    pub fn column_by_name(&self, name: &str) -> Result<&[Value]> {
        Ok(self.column(self.schema.require(name)?))
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col][row]
    }

    /// Materialize row `row` as a [`Record`].
    pub fn record(&self, row: usize) -> Record {
        Record::new(self.columns.iter().map(|c| c[row]).collect())
    }

    /// Iterate over all rows as [`Record`]s.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.num_rows()).map(|r| self.record(r))
    }

    /// Serialized size in bytes under the packed encoding — the quantity
    /// the cost models charge for transfers (`rows × record_size`).
    pub fn encoded_size(&self) -> usize {
        self.num_rows() * self.schema.record_size()
    }

    /// Keep only rows whose attributes fall inside `range` (attributes the
    /// box does not bound are unconstrained). Keeps the same id/schema.
    pub fn filter_range(&self, range: &BoundingBox) -> Result<SubTable> {
        // Resolve bounded attribute names to column indices once.
        let mut checks: Vec<(usize, Interval)> = Vec::new();
        for (name, iv) in range.bounded_attrs() {
            if let Some(idx) = self.schema.index_of(name) {
                checks.push((idx, iv));
            }
            // Attributes absent from this sub-table are unbounded here
            // (treated as [-inf, +inf]) — they never exclude a row.
        }
        if checks.is_empty() {
            return Ok(self.clone());
        }
        let keep: Vec<usize> = (0..self.num_rows())
            .filter(|&r| {
                checks
                    .iter()
                    .all(|&(ci, iv)| iv.contains(self.columns[ci][r].as_f64()))
            })
            .collect();
        let columns: Vec<Vec<Value>> = self
            .columns
            .iter()
            .map(|col| keep.iter().map(|&r| col[r]).collect())
            .collect();
        SubTable::from_columns(self.id, Arc::clone(&self.schema), columns)
    }

    /// Project onto the named attributes (new schema, same rows).
    pub fn project(&self, names: &[&str]) -> Result<SubTable> {
        let schema = Arc::new(self.schema.project(names)?);
        let columns: Vec<Vec<Value>> = names
            .iter()
            .map(|n| {
                self.schema
                    .index_of(n)
                    .map(|i| self.columns[i].clone())
                    .ok_or_else(|| Error::Schema(format!("attribute `{n}` missing in projection")))
            })
            .collect::<Result<_>>()?;
        SubTable::from_columns(self.id, schema, columns)
    }

    /// This sub-table's rows as a typed [`ColumnBatch`] — the entry
    /// point of the columnar execution path. One pass per column turns
    /// the boxed `Value` storage into primitive arrays; downstream
    /// filter/project/join operators then run typed loops and convert
    /// back to [`Record`]s only at the service edge (bit-exact, since
    /// every supported type is fixed-width).
    pub fn to_batch(&self) -> ColumnBatch {
        let columns: Vec<ColumnData> = self
            .schema
            .attrs()
            .iter()
            .zip(self.columns.iter())
            .map(|(attr, col)| {
                let mut out = ColumnData::with_capacity(attr.dtype, col.len());
                for &v in col {
                    // from_columns type-checked every value on build, so
                    // a mismatch here is unreachable; skipping it keeps
                    // a typed value rather than silently dropping rows.
                    let _ = out.push(v);
                }
                out
            })
            .collect();
        // from_columns validated equal lengths when this sub-table was
        // built, so this cannot fail.
        ColumnBatch::from_columns(columns).unwrap_or_else(|_| {
            ColumnBatch::new(
                &self
                    .schema
                    .attrs()
                    .iter()
                    .map(|a| a.dtype)
                    .collect::<Vec<_>>(),
            )
        })
    }

    /// Rows' key values for the given attribute names, one `Vec<Value>` per
    /// row — used by join build/probe loops.
    pub fn keys(&self, names: &[&str]) -> Result<Vec<Vec<Value>>> {
        let idxs: Vec<usize> = names
            .iter()
            .map(|n| self.schema.require(n))
            .collect::<Result<_>>()?;
        Ok((0..self.num_rows())
            .map(|r| idxs.iter().map(|&i| self.columns[i][r]).collect())
            .collect())
    }
}

fn compute_bbox(schema: &Schema, columns: &[Vec<Value>]) -> BoundingBox {
    let mut bbox = BoundingBox::unbounded();
    for (attr, col) in schema.attrs().iter().zip(columns) {
        if col.is_empty() {
            continue;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in col {
            let x = v.as_f64();
            lo = lo.min(x);
            hi = hi.max(x);
        }
        bbox.set(attr.name.clone(), Interval::new(lo, hi));
    }
    bbox
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap())
    }

    fn sample() -> SubTable {
        let cols = vec![
            vec![Value::I32(0), Value::I32(1), Value::I32(2)],
            vec![Value::I32(5), Value::I32(6), Value::I32(7)],
            vec![Value::F32(0.5), Value::F32(0.25), Value::F32(0.75)],
        ];
        SubTable::from_columns(SubTableId::new(0u32, 0u32), schema(), cols).unwrap()
    }

    #[test]
    fn bbox_covers_all_attributes() {
        let st = sample();
        assert_eq!(st.bbox().get("x"), Interval::new(0.0, 2.0));
        assert_eq!(st.bbox().get("y"), Interval::new(5.0, 7.0));
        assert_eq!(st.bbox().get("wp"), Interval::new(0.25, 0.75));
    }

    #[test]
    fn record_iteration_matches_columns() {
        let st = sample();
        let recs: Vec<Record> = st.records().collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs[1].values(),
            &[Value::I32(1), Value::I32(6), Value::F32(0.25)]
        );
    }

    #[test]
    fn from_records_roundtrip() {
        let st = sample();
        let recs: Vec<Record> = st.records().collect();
        let st2 = SubTable::from_records(st.id(), Arc::clone(st.schema()), &recs).unwrap();
        assert_eq!(st2.num_rows(), 3);
        assert_eq!(st2.bbox(), st.bbox());
        assert_eq!(st2.record(2), st.record(2));
    }

    #[test]
    fn type_and_shape_validation() {
        let s = schema();
        // Wrong arity.
        assert!(
            SubTable::from_columns(SubTableId::new(0u32, 0u32), s.clone(), vec![vec![]]).is_err()
        );
        // Ragged.
        let ragged = vec![vec![Value::I32(0)], vec![], vec![]];
        assert!(SubTable::from_columns(SubTableId::new(0u32, 0u32), s.clone(), ragged).is_err());
        // Wrong type in column.
        let wrong = vec![
            vec![Value::F32(0.0)],
            vec![Value::I32(0)],
            vec![Value::F32(0.0)],
        ];
        assert!(SubTable::from_columns(SubTableId::new(0u32, 0u32), s, wrong).is_err());
    }

    #[test]
    fn filter_range_keeps_matching_rows() {
        let st = sample();
        let range = BoundingBox::from_dims([("x", Interval::new(1.0, 2.0))]);
        let f = st.filter_range(&range).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(
            f.column_by_name("x").unwrap(),
            &[Value::I32(1), Value::I32(2)]
        );
        // Unknown attribute in range → unconstrained.
        let range2 = BoundingBox::from_dims([("zzz", Interval::new(0.0, 0.0))]);
        assert_eq!(st.filter_range(&range2).unwrap().num_rows(), 3);
        // Empty result.
        let range3 = BoundingBox::from_dims([("y", Interval::new(100.0, 200.0))]);
        assert_eq!(st.filter_range(&range3).unwrap().num_rows(), 0);
    }

    #[test]
    fn project_and_keys() {
        let st = sample();
        let p = st.project(&["wp", "x"]).unwrap();
        assert_eq!(p.schema().arity(), 2);
        assert_eq!(p.record(0).values(), &[Value::F32(0.5), Value::I32(0)]);
        let keys = st.keys(&["x", "y"]).unwrap();
        assert_eq!(keys[2], vec![Value::I32(2), Value::I32(7)]);
        assert!(st.keys(&["nope"]).is_err());
    }

    #[test]
    fn encoded_size_is_rows_times_record_size() {
        let st = sample();
        assert_eq!(st.encoded_size(), 3 * 12);
        let empty = SubTable::empty(SubTableId::new(0u32, 9u32), schema());
        assert_eq!(empty.encoded_size(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn to_batch_round_trips_rows() {
        let st = sample();
        let batch = st.to_batch();
        assert_eq!(batch.num_rows(), st.num_rows());
        let mut rows = Vec::new();
        batch.append_records_to(&mut rows);
        let direct: Vec<Record> = st.records().collect();
        assert_eq!(rows, direct, "batch path must reproduce the row path");
        let empty = SubTable::empty(SubTableId::new(0u32, 9u32), schema());
        assert!(empty.to_batch().is_empty());
    }

    #[test]
    fn to_batch_materialization_is_bit_exact() {
        let cols = vec![
            vec![Value::I32(0), Value::I32(1), Value::I32(2)],
            vec![Value::I32(5), Value::I32(6), Value::I32(7)],
            vec![
                Value::F32(-0.0),
                Value::F32(f32::NAN),
                Value::F32(-f32::NAN),
            ],
        ];
        let st = SubTable::from_columns(SubTableId::new(0u32, 0u32), schema(), cols).unwrap();
        let mut rows = Vec::new();
        st.to_batch().append_records_to(&mut rows);
        // Bit patterns (NaN payload and sign, -0.0) must survive the
        // columnar round trip, not just Value equality.
        for (got, want) in rows.iter().zip(st.column(2)) {
            let (Value::F32(g), Value::F32(w)) = (got.get(2), *want) else {
                panic!("column type changed in the round trip");
            };
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn clone_shares_columns() {
        let st = sample();
        let c = st.clone();
        assert!(Arc::ptr_eq(&st.columns, &c.columns));
    }
}
