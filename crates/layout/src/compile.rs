//! Compiling layout descriptions into executable extractors/encoders.
//!
//! A [`CompiledLayout`] resolves field offsets once, so extraction is a
//! tight loop over the chunk bytes. The encoder is the exact inverse; the
//! dataset generator uses it to write chunks in arbitrary described formats,
//! and round-trip tests rely on `decode(encode(x)) == x`.

use crate::ast::{Endian, Item, LayoutDesc, RecordOrder};
use orv_types::{DataType, Error, Result, Value};

/// One field with its resolved byte offset within a record (row-major) or
/// its column block (column-major).
#[derive(Clone, Debug)]
struct FieldSlot {
    name: String,
    dtype: DataType,
    /// Byte offset of this field within one record (row-major view).
    offset: usize,
}

/// An executable extractor/encoder for one layout.
#[derive(Clone, Debug)]
pub struct CompiledLayout {
    name: String,
    endian: Endian,
    order: RecordOrder,
    header_len: usize,
    stride: usize,
    fields: Vec<FieldSlot>,
    /// Item-order walk of (offset, size, field_index-or-pad) used by the
    /// column-major codec: (byte offset of the item within a record, width,
    /// Some(field idx) or None for padding).
    walk: Vec<(usize, usize, Option<usize>)>,
}

impl CompiledLayout {
    /// Resolve offsets for `desc`.
    pub fn compile(desc: &LayoutDesc) -> Result<Self> {
        desc.validate()?;
        let mut fields = Vec::new();
        let mut walk = Vec::new();
        let mut off = 0usize;
        for item in &desc.items {
            let width = match item {
                Item::Field { name, dtype } => {
                    walk.push((off, dtype.width(), Some(fields.len())));
                    fields.push(FieldSlot {
                        name: name.clone(),
                        dtype: *dtype,
                        offset: off,
                    });
                    dtype.width()
                }
                Item::Pad(n) => {
                    walk.push((off, *n, None));
                    *n
                }
            };
            // The offsets come from untrusted layout text: a huge `pad`
            // must be a typed error, not a wrapped (or panicking) stride.
            off = off.checked_add(width).ok_or_else(|| {
                Error::Format(format!(
                    "layout `{}` record stride overflows usize",
                    desc.name
                ))
            })?;
        }
        Ok(CompiledLayout {
            name: desc.name.clone(),
            endian: desc.endian,
            order: desc.order,
            header_len: desc.header_len,
            stride: off,
            fields,
            walk,
        })
    }

    /// Layout name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes per record, padding included.
    pub fn record_stride(&self) -> usize {
        self.stride
    }

    /// Header bytes skipped at the start of each chunk.
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Field `(name, dtype)` pairs in on-disk order.
    pub fn fields(&self) -> Vec<(&str, DataType)> {
        self.fields
            .iter()
            .map(|f| (f.name.as_str(), f.dtype))
            .collect()
    }

    /// Number of records a chunk of `len` bytes holds, or an error if the
    /// byte count is inconsistent with the layout.
    pub fn row_count(&self, len: usize) -> Result<usize> {
        let body = len.checked_sub(self.header_len).ok_or_else(|| {
            Error::Format(format!(
                "chunk of {len} bytes shorter than `{}` header ({} bytes)",
                self.name, self.header_len
            ))
        })?;
        if self.stride == 0 {
            return Err(Error::Format(format!(
                "layout `{}` has zero stride",
                self.name
            )));
        }
        if body % self.stride != 0 {
            return Err(Error::Format(format!(
                "chunk body of {body} bytes is not a whole number of `{}` records (stride {})",
                self.name, self.stride
            )));
        }
        Ok(body / self.stride)
    }

    /// Extract typed columns (in field order) from raw chunk bytes.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<Vec<Value>>> {
        let nrows = self.row_count(bytes.len())?;
        let body = &bytes[self.header_len..];
        let mut cols: Vec<Vec<Value>> = self
            .fields
            .iter()
            .map(|_| Vec::with_capacity(nrows))
            .collect();
        match self.order {
            RecordOrder::RowMajor => {
                for r in 0..nrows {
                    let rec = &body[r * self.stride..(r + 1) * self.stride];
                    for (ci, f) in self.fields.iter().enumerate() {
                        cols[ci].push(read_value(&rec[f.offset..], f.dtype, self.endian)?);
                    }
                }
            }
            RecordOrder::ColumnMajor => {
                let mut block_start = 0usize;
                for &(_, size, field) in &self.walk {
                    if let Some(ci) = field {
                        let dtype = self.fields[ci].dtype;
                        for r in 0..nrows {
                            let at = block_start + r * size;
                            cols[ci].push(read_value(&body[at..], dtype, self.endian)?);
                        }
                    }
                    block_start += size * nrows;
                }
            }
        }
        Ok(cols)
    }

    /// Encode typed columns into chunk bytes (header zero-filled, padding
    /// zero-filled). Columns must be in field order, equal length, and
    /// type-correct.
    #[allow(clippy::needless_range_loop)] // row index drives several columns
    pub fn encode(&self, cols: &[Vec<Value>]) -> Result<Vec<u8>> {
        if cols.len() != self.fields.len() {
            return Err(Error::Schema(format!(
                "layout `{}` has {} fields but {} columns given",
                self.name,
                self.fields.len(),
                cols.len()
            )));
        }
        let nrows = cols.first().map(|c| c.len()).unwrap_or(0);
        for (ci, (col, f)) in cols.iter().zip(&self.fields).enumerate() {
            if col.len() != nrows {
                return Err(Error::Schema(format!(
                    "column {ci} has {} rows, expected {nrows}",
                    col.len()
                )));
            }
            if let Some(v) = col.iter().find(|v| v.data_type() != f.dtype) {
                return Err(Error::Schema(format!(
                    "column `{}` expects {} but contains {}",
                    f.name,
                    f.dtype,
                    v.data_type()
                )));
            }
        }
        // A layout with a huge `pad` compiles, so the chunk size is
        // checked here: an overflow is a typed error, not a wrapped length.
        let overflow = || {
            Error::Format(format!(
                "layout `{}` chunk of {nrows} records overflows usize",
                self.name
            ))
        };
        let len = nrows
            .checked_mul(self.stride)
            .and_then(|body| body.checked_add(self.header_len))
            .ok_or_else(overflow)?;
        let mut out = vec![0u8; len];
        let body_start = self.header_len;
        match self.order {
            RecordOrder::RowMajor => {
                for r in 0..nrows {
                    let rec_start = body_start + r * self.stride;
                    for (ci, f) in self.fields.iter().enumerate() {
                        write_value(cols[ci][r], &mut out[rec_start + f.offset..], self.endian);
                    }
                }
            }
            RecordOrder::ColumnMajor => {
                let mut block_start = body_start;
                for &(_, size, field) in &self.walk {
                    if let Some(ci) = field {
                        for r in 0..nrows {
                            let at = block_start + r * size;
                            write_value(cols[ci][r], &mut out[at..], self.endian);
                        }
                    }
                    block_start = size
                        .checked_mul(nrows)
                        .and_then(|block| block_start.checked_add(block))
                        .ok_or_else(overflow)?;
                }
            }
        }
        Ok(out)
    }
}

fn read_value(bytes: &[u8], dtype: DataType, endian: Endian) -> Result<Value> {
    // Fixed-width prefix of the record, as a typed format error rather
    // than a slice panic when the chunk body is shorter than the layout
    // promised.
    fn arr<const N: usize>(bytes: &[u8], dtype: DataType) -> Result<[u8; N]> {
        bytes
            .get(..N)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| {
                Error::Format(format!(
                    "record truncated: need {N} bytes for a {dtype:?} value, have {}",
                    bytes.len()
                ))
            })
    }
    Ok(match (dtype, endian) {
        (DataType::I32, Endian::Little) => Value::I32(i32::from_le_bytes(arr(bytes, dtype)?)),
        (DataType::I32, Endian::Big) => Value::I32(i32::from_be_bytes(arr(bytes, dtype)?)),
        (DataType::I64, Endian::Little) => Value::I64(i64::from_le_bytes(arr(bytes, dtype)?)),
        (DataType::I64, Endian::Big) => Value::I64(i64::from_be_bytes(arr(bytes, dtype)?)),
        (DataType::F32, Endian::Little) => Value::F32(f32::from_le_bytes(arr(bytes, dtype)?)),
        (DataType::F32, Endian::Big) => Value::F32(f32::from_be_bytes(arr(bytes, dtype)?)),
        (DataType::F64, Endian::Little) => Value::F64(f64::from_le_bytes(arr(bytes, dtype)?)),
        (DataType::F64, Endian::Big) => Value::F64(f64::from_be_bytes(arr(bytes, dtype)?)),
    })
}

fn write_value(v: Value, out: &mut [u8], endian: Endian) {
    match (v, endian) {
        (Value::I32(x), Endian::Little) => out[..4].copy_from_slice(&x.to_le_bytes()),
        (Value::I32(x), Endian::Big) => out[..4].copy_from_slice(&x.to_be_bytes()),
        (Value::I64(x), Endian::Little) => out[..8].copy_from_slice(&x.to_le_bytes()),
        (Value::I64(x), Endian::Big) => out[..8].copy_from_slice(&x.to_be_bytes()),
        (Value::F32(x), Endian::Little) => out[..4].copy_from_slice(&x.to_le_bytes()),
        (Value::F32(x), Endian::Big) => out[..4].copy_from_slice(&x.to_be_bytes()),
        (Value::F64(x), Endian::Little) => out[..8].copy_from_slice(&x.to_le_bytes()),
        (Value::F64(x), Endian::Big) => out[..8].copy_from_slice(&x.to_be_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_layout;

    fn compile(src: &str) -> CompiledLayout {
        CompiledLayout::compile(&parse_layout(src).unwrap()).unwrap()
    }

    fn sample_cols() -> Vec<Vec<Value>> {
        vec![
            vec![Value::I32(1), Value::I32(-2), Value::I32(3)],
            vec![Value::F32(0.5), Value::F32(1.5), Value::F32(-2.5)],
        ]
    }

    #[test]
    fn row_major_roundtrip_with_header_and_pad() {
        let c = compile("layout t { header 16; field x: i32; pad 4; field wp: f32; }");
        assert_eq!(c.record_stride(), 12);
        let bytes = c.encode(&sample_cols()).unwrap();
        assert_eq!(bytes.len(), 16 + 3 * 12);
        assert_eq!(c.decode(&bytes).unwrap(), sample_cols());
    }

    #[test]
    fn column_major_roundtrip() {
        let c = compile("layout t { order column_major; field x: i32; field wp: f32; }");
        let bytes = c.encode(&sample_cols()).unwrap();
        // First 12 bytes are the x column.
        assert_eq!(&bytes[..4], &1i32.to_le_bytes());
        assert_eq!(&bytes[4..8], &(-2i32).to_le_bytes());
        assert_eq!(c.decode(&bytes).unwrap(), sample_cols());
    }

    #[test]
    fn big_endian_roundtrip_and_bytes() {
        let c = compile("layout t { endian big; field x: i32; field wp: f32; }");
        let cols = sample_cols();
        let bytes = c.encode(&cols).unwrap();
        assert_eq!(&bytes[..4], &1i32.to_be_bytes());
        assert_eq!(c.decode(&bytes).unwrap(), cols);
    }

    #[test]
    fn row_count_validation() {
        let c = compile("layout t { field x: i32; }");
        assert_eq!(c.row_count(12).unwrap(), 3);
        assert!(c.row_count(13).is_err());
        let h = compile("layout t { header 8; field x: i32; }");
        assert!(h.row_count(4).is_err()); // shorter than header
        assert_eq!(h.row_count(8).unwrap(), 0);
    }

    #[test]
    fn encode_validates_columns() {
        let c = compile("layout t { field x: i32; field wp: f32; }");
        // Wrong column count.
        assert!(c.encode(&sample_cols()[..1]).is_err());
        // Ragged columns.
        let ragged = vec![vec![Value::I32(1)], vec![Value::F32(0.5), Value::F32(1.0)]];
        assert!(c.encode(&ragged).is_err());
        // Wrong type.
        let wrong = vec![vec![Value::F32(1.0)], vec![Value::F32(0.5)]];
        assert!(c.encode(&wrong).is_err());
    }

    #[test]
    fn empty_chunk_roundtrip() {
        let c = compile("layout t { field x: i32; }");
        let bytes = c.encode(&[vec![]]).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(c.decode(&bytes).unwrap(), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn decode_is_order_insensitive_to_declaration_gaps() {
        // Interleaved pads in column-major create gaps between column blocks.
        let c = compile("layout t { order column_major; field x: i32; pad 2; field y: i32; }");
        let cols = vec![
            vec![Value::I32(7), Value::I32(8)],
            vec![Value::I32(70), Value::I32(80)],
        ];
        let bytes = c.encode(&cols).unwrap();
        assert_eq!(bytes.len(), 2 * (4 + 2 + 4));
        assert_eq!(c.decode(&bytes).unwrap(), cols);
    }

    #[test]
    fn overflowing_chunk_size_is_a_format_error() {
        // The stride (2^63 + 3) fits, but three records of it do not.
        for order in ["", "order column_major; "] {
            let src = format!("layout t {{ {order}pad 9223372036854775807; field x: i32; }}");
            let c = CompiledLayout::compile(&parse_layout(&src).unwrap()).unwrap();
            let cols = vec![vec![Value::I32(1), Value::I32(2), Value::I32(3)]];
            let err = c.encode(&cols).unwrap_err();
            assert!(matches!(err, Error::Format(_)), "{order}{err}");
        }
    }

    #[test]
    fn overflowing_stride_is_a_format_error() {
        let desc = parse_layout("layout t { pad 18446744073709551615; field x: i32; }").unwrap();
        let err = CompiledLayout::compile(&desc).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
    }
}
