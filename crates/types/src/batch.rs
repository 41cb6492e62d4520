//! Columnar execution batches.
//!
//! A [`ColumnBatch`] holds a run of rows as fixed-width typed arrays —
//! one primitive `Vec` per attribute — instead of a `Vec<Record>` of
//! boxed [`Value`] rows. The scan's range filter runs as tight loops over
//! primitive slices (no per-row allocation, no enum dispatch in the inner
//! loop); rows are materialized back into [`Record`]s at the service
//! edge, and the conversion is bit-exact (every supported type is
//! fixed-width; float bit patterns, including NaNs and `-0.0`, survive
//! untouched).

use crate::error::{Error, Result};
use crate::record::Record;
use crate::value::{DataType, Value};

/// One attribute's values as a primitive array.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit floats (bit patterns preserved).
    F32(Vec<f32>),
    /// 64-bit floats (bit patterns preserved).
    F64(Vec<f64>),
}

impl ColumnData {
    /// An empty column of type `ty` with room for `cap` rows.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        match ty {
            DataType::I32 => ColumnData::I32(Vec::with_capacity(cap)),
            DataType::I64 => ColumnData::I64(Vec::with_capacity(cap)),
            DataType::F32 => ColumnData::F32(Vec::with_capacity(cap)),
            DataType::F64 => ColumnData::F64(Vec::with_capacity(cap)),
        }
    }

    /// The column's element type.
    #[inline]
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::I32(_) => DataType::I32,
            ColumnData::I64(_) => DataType::I64,
            ColumnData::F32(_) => DataType::F32,
            ColumnData::F64(_) => DataType::F64,
        }
    }

    /// Number of rows.
    #[inline]
    fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F32(v) => v.len(),
            ColumnData::F64(v) => v.len(),
        }
    }

    /// Append `v`, type-checked against the column.
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (ColumnData::I32(col), Value::I32(x)) => col.push(x),
            (ColumnData::I64(col), Value::I64(x)) => col.push(x),
            (ColumnData::F32(col), Value::F32(x)) => col.push(x),
            (ColumnData::F64(col), Value::F64(x)) => col.push(x),
            (col, v) => {
                return Err(Error::Schema(format!(
                    "column of type {} cannot hold {}",
                    col.dtype(),
                    v.data_type()
                )))
            }
        }
        Ok(())
    }

    /// The value at `row` (bit-exact round trip).
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::I32(v) => Value::I32(v[row]),
            ColumnData::I64(v) => Value::I64(v[row]),
            ColumnData::F32(v) => Value::F32(v[row]),
            ColumnData::F64(v) => Value::F64(v[row]),
        }
    }

    /// Numeric view of `row` as `f64` (the predicate domain).
    #[inline]
    pub fn as_f64(&self, row: usize) -> f64 {
        match self {
            ColumnData::I32(v) => v[row] as f64,
            ColumnData::I64(v) => v[row] as f64,
            ColumnData::F32(v) => v[row] as f64,
            ColumnData::F64(v) => v[row],
        }
    }

    /// A new column holding the rows at `keep`, in order.
    pub fn gather(&self, keep: &[u32]) -> ColumnData {
        match self {
            ColumnData::I32(v) => ColumnData::I32(keep.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::I64(v) => ColumnData::I64(keep.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::F32(v) => ColumnData::F32(keep.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::F64(v) => ColumnData::F64(keep.iter().map(|&r| v[r as usize]).collect()),
        }
    }
}

/// A run of rows in columnar form: typed arrays with equal row counts
/// across columns.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<ColumnData>,
}

impl ColumnBatch {
    /// An empty batch with the given column types.
    pub fn new(types: &[DataType]) -> Self {
        ColumnBatch {
            columns: types
                .iter()
                .map(|&t| ColumnData::with_capacity(t, 0))
                .collect(),
        }
    }

    /// Build from typed columns of equal length.
    pub fn from_columns(columns: Vec<ColumnData>) -> Result<Self> {
        let nrows = columns.first().map(|c| c.len()).unwrap_or(0);
        if let Some((i, c)) = columns.iter().enumerate().find(|(_, c)| c.len() != nrows) {
            return Err(Error::Schema(format!(
                "batch column {i} has {} rows, expected {nrows}",
                c.len()
            )));
        }
        Ok(ColumnBatch { columns })
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// True when the batch has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Column `idx`.
    #[inline]
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Append every row to `out` as [`Record`]s — the service-edge
    /// conversion, bit-exact per value.
    pub fn append_records_to(&self, out: &mut Vec<Record>) {
        out.reserve(self.num_rows());
        for r in 0..self.num_rows() {
            out.push(Record::new(
                self.columns.iter().map(|c| c.value(r)).collect(),
            ));
        }
    }

    /// Row indices passing `predicate(row)`, as a gather list.
    pub fn mask_to_keep(&self, mut predicate: impl FnMut(usize) -> bool) -> Vec<u32> {
        (0..self.num_rows() as u32)
            .filter(|&r| predicate(r as usize))
            .collect()
    }

    /// A new batch holding the rows at `keep`, in order.
    pub fn gather(&self, keep: &[u32]) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.gather(keep)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ColumnBatch {
        ColumnBatch::from_columns(vec![
            ColumnData::I32(vec![0, 1, 2, 3]),
            ColumnData::F32(vec![0.5, -0.0, f32::NAN, 4.25]),
            ColumnData::F64(vec![1.0, 2.0, 3.0, 4.0]),
        ])
        .unwrap()
    }

    #[test]
    fn push_is_type_checked() {
        let mut c = ColumnData::with_capacity(DataType::I32, 1);
        assert!(c.push(Value::F64(1.0)).is_err());
        c.push(Value::I32(1)).unwrap();
        assert_eq!(c.value(0), Value::I32(1));
    }

    #[test]
    fn ragged_columns_rejected() {
        let err =
            ColumnBatch::from_columns(vec![ColumnData::I32(vec![1, 2]), ColumnData::I32(vec![1])])
                .unwrap_err();
        assert!(err.to_string().contains("expected 2"), "{err}");
    }

    #[test]
    fn mask_gather_and_materialize() {
        let b = sample();
        let keep = b.mask_to_keep(|r| b.column(0).as_f64(r) >= 1.0 && b.column(0).as_f64(r) <= 2.0);
        assert_eq!(keep, vec![1, 2]);
        let f = b.gather(&keep);
        assert_eq!(f.num_rows(), 2);
        let mut rows = Vec::new();
        f.append_records_to(&mut rows);
        assert_eq!(rows[0].get(0), Value::I32(1));
        assert_eq!(rows[1].get(2), Value::F64(3.0));
    }

    #[test]
    fn empty_batch_behaves() {
        let b = ColumnBatch::new(&[DataType::I64, DataType::F64]);
        assert!(b.is_empty());
        let mut rows = Vec::new();
        b.append_records_to(&mut rows);
        assert!(rows.is_empty());
        assert_eq!(b.gather(&[]).num_rows(), 0);
    }
}
