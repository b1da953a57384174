//! Structured vectors — the Voodoo data model (paper §2.1).
//!
//! A [`StructuredVector`] is "an ordered collection of fixed size data items,
//! all of which conform to the same schema". Storage here is *columnar*: one
//! [`Column`] per leaf field, which is exactly how the OpenCL backend of the
//! paper lays vectors out in device memory.
//!
//! Empty slots (ε, paper Figure 7) are first-class: every column carries an
//! emptiness mask. ε appears when a `Scatter` does not set a slot, when a
//! `FoldSelect` does not select one, or as the padding of controlled folds.

use crate::error::{Result, VoodooError};
use crate::keypath::KeyPath;
use crate::scalar::{ScalarType, ScalarValue};
use crate::schema::Schema;

/// A typed, contiguous buffer of scalar values.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// Boolean values.
    Bool(Vec<bool>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
}

impl Buffer {
    /// An empty buffer of the given type.
    pub fn new(ty: ScalarType) -> Buffer {
        Buffer::with_len(ty, 0)
    }

    /// A zero-initialized buffer of the given type and length.
    pub fn with_len(ty: ScalarType, len: usize) -> Buffer {
        match ty {
            ScalarType::Bool => Buffer::Bool(vec![false; len]),
            ScalarType::I32 => Buffer::I32(vec![0; len]),
            ScalarType::I64 => Buffer::I64(vec![0; len]),
            ScalarType::F32 => Buffer::F32(vec![0.0; len]),
            ScalarType::F64 => Buffer::F64(vec![0.0; len]),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Buffer::Bool(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::I64(v) => v.len(),
            Buffer::F32(v) => v.len(),
            Buffer::F64(v) => v.len(),
        }
    }

    /// Whether the buffer holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn ty(&self) -> ScalarType {
        match self {
            Buffer::Bool(_) => ScalarType::Bool,
            Buffer::I32(_) => ScalarType::I32,
            Buffer::I64(_) => ScalarType::I64,
            Buffer::F32(_) => ScalarType::F32,
            Buffer::F64(_) => ScalarType::F64,
        }
    }

    /// Read position `i` (panics if out of bounds).
    pub fn get(&self, i: usize) -> ScalarValue {
        match self {
            Buffer::Bool(v) => ScalarValue::Bool(v[i]),
            Buffer::I32(v) => ScalarValue::I32(v[i]),
            Buffer::I64(v) => ScalarValue::I64(v[i]),
            Buffer::F32(v) => ScalarValue::F32(v[i]),
            Buffer::F64(v) => ScalarValue::F64(v[i]),
        }
    }

    /// Write position `i` with a value cast to the buffer's type.
    pub fn set(&mut self, i: usize, value: ScalarValue) {
        match self {
            Buffer::Bool(v) => v[i] = value.is_truthy(),
            Buffer::I32(v) => v[i] = value.as_i32(),
            Buffer::I64(v) => v[i] = value.as_i64(),
            Buffer::F32(v) => v[i] = value.as_f64() as f32,
            Buffer::F64(v) => v[i] = value.as_f64(),
        }
    }

    /// Append a value cast to the buffer's type.
    pub fn push(&mut self, value: ScalarValue) {
        match self {
            Buffer::Bool(v) => v.push(value.is_truthy()),
            Buffer::I32(v) => v.push(value.as_i32()),
            Buffer::I64(v) => v.push(value.as_i64()),
            Buffer::F32(v) => v.push(value.as_f64() as f32),
            Buffer::F64(v) => v.push(value.as_f64()),
        }
    }

    /// Borrow as `&[i64]`, if that is the element type.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Buffer::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]`, if that is the element type.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            Buffer::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f32]`, if that is the element type.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            Buffer::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f64]`, if that is the element type.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Buffer::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Append every value of `other` (which must have the same element
    /// type) — the bulk concatenation segmented storage folds with.
    pub fn extend_from(&mut self, other: &Buffer) {
        match (self, other) {
            (Buffer::Bool(a), Buffer::Bool(b)) => a.extend_from_slice(b),
            (Buffer::I32(a), Buffer::I32(b)) => a.extend_from_slice(b),
            (Buffer::I64(a), Buffer::I64(b)) => a.extend_from_slice(b),
            (Buffer::F32(a), Buffer::F32(b)) => a.extend_from_slice(b),
            (Buffer::F64(a), Buffer::F64(b)) => a.extend_from_slice(b),
            (a, b) => panic!("extend_from type mismatch: {:?} vs {:?}", a.ty(), b.ty()),
        }
    }
}

/// One leaf field of a structured vector: values plus an ε mask.
///
/// Internally copy-on-write: the value buffer and ε mask live behind
/// `Arc`s, so cloning a column (and therefore snapshotting a table) is
/// O(1) regardless of row count. Mutators take the slow deep-copy path
/// only when the storage is actually shared with another clone.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: std::sync::Arc<Buffer>,
    empty: std::sync::Arc<Vec<bool>>,
}

impl Column {
    /// A column of `len` ε slots.
    pub fn empties(ty: ScalarType, len: usize) -> Column {
        Column {
            data: std::sync::Arc::new(Buffer::with_len(ty, len)),
            empty: std::sync::Arc::new(vec![true; len]),
        }
    }

    /// A fully populated column from a buffer (no ε slots).
    pub fn from_buffer(data: Buffer) -> Column {
        let len = data.len();
        Column {
            data: std::sync::Arc::new(data),
            empty: std::sync::Arc::new(vec![false; len]),
        }
    }

    /// Build from parts; `empty.len()` must equal `data.len()`.
    pub fn from_parts(data: Buffer, empty: Vec<bool>) -> Column {
        assert_eq!(data.len(), empty.len(), "column parts must align");
        Column {
            data: std::sync::Arc::new(data),
            empty: std::sync::Arc::new(empty),
        }
    }

    /// Whether `self` and `other` share the same underlying value buffer
    /// (true only for clones that have not diverged) — the observable
    /// proof that snapshot publication did not copy this column.
    pub fn shares_storage_with(&self, other: &Column) -> bool {
        std::sync::Arc::ptr_eq(&self.data, &other.data)
    }

    /// Append every slot of `other` (same element type required).
    pub fn extend_from(&mut self, other: &Column) {
        std::sync::Arc::make_mut(&mut self.data).extend_from(other.buffer());
        std::sync::Arc::make_mut(&mut self.empty).extend_from_slice(other.empty_mask());
    }

    /// Number of slots (including ε).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn ty(&self) -> ScalarType {
        self.data.ty()
    }

    /// Read slot `i`; `None` for ε.
    pub fn get(&self, i: usize) -> Option<ScalarValue> {
        if self.empty[i] {
            None
        } else {
            Some(self.data.get(i))
        }
    }

    /// Whether slot `i` is ε.
    pub fn is_slot_empty(&self, i: usize) -> bool {
        self.empty[i]
    }

    /// Write slot `i` (clears ε).
    pub fn set(&mut self, i: usize, value: ScalarValue) {
        std::sync::Arc::make_mut(&mut self.data).set(i, value);
        std::sync::Arc::make_mut(&mut self.empty)[i] = false;
    }

    /// Mark slot `i` as ε.
    pub fn clear(&mut self, i: usize) {
        std::sync::Arc::make_mut(&mut self.empty)[i] = true;
    }

    /// Append a value or an ε slot.
    pub fn push(&mut self, value: Option<ScalarValue>) {
        let ty = self.ty();
        match value {
            Some(v) => {
                std::sync::Arc::make_mut(&mut self.data).push(v);
                std::sync::Arc::make_mut(&mut self.empty).push(false);
            }
            None => {
                std::sync::Arc::make_mut(&mut self.data).push(ScalarValue::I64(0).cast(ty));
                std::sync::Arc::make_mut(&mut self.empty).push(true);
            }
        }
    }

    /// The raw value buffer (ε slots hold unspecified values).
    pub fn buffer(&self) -> &Buffer {
        &self.data
    }

    /// Mutable access to the raw value buffer (deep-copies if shared).
    pub fn buffer_mut(&mut self) -> &mut Buffer {
        std::sync::Arc::make_mut(&mut self.data)
    }

    /// The ε mask (true = empty).
    pub fn empty_mask(&self) -> &[bool] {
        &self.empty
    }

    /// Whether no slot is ε (lets backends skip mask checks).
    pub fn is_dense(&self) -> bool {
        self.empty.iter().all(|&e| !e)
    }

    /// Iterate over slots as `Option<ScalarValue>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<ScalarValue>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Non-ε values only.
    pub fn present(&self) -> impl Iterator<Item = ScalarValue> + '_ {
        self.iter().flatten()
    }
}

/// A structured vector: a fixed number of slots with columnar leaf fields.
///
/// Invariant: every column has exactly `len` slots.
///
/// Vectors optionally carry **partition metadata** — the fence-post
/// boundaries of the morsels they were produced across when a backend
/// executed the producing operator partition-parallel. The metadata is
/// advisory layout information (paper §2.3: parallelism is data-layout
/// controlled): it never affects the values, and two vectors differing
/// only in partition bounds compare equal.
#[derive(Debug, Clone)]
pub struct StructuredVector {
    len: usize,
    fields: Vec<(KeyPath, Column)>,
    /// Morsel fence posts (`starts` + final `end`) when produced
    /// partition-parallel; `None` for serially produced vectors.
    partitions: Option<std::sync::Arc<Vec<usize>>>,
}

impl PartialEq for StructuredVector {
    /// Value equality: slot count and fields only. Partition metadata is
    /// a layout annotation, not data — partition-parallel results must
    /// compare equal to their serial oracles.
    fn eq(&self, other: &StructuredVector) -> bool {
        self.len == other.len && self.fields == other.fields
    }
}

impl StructuredVector {
    /// A vector of `len` slots with no fields yet.
    pub fn with_len(len: usize) -> StructuredVector {
        StructuredVector {
            len,
            fields: Vec::new(),
            partitions: None,
        }
    }

    /// A single-field vector from a fully populated column.
    pub fn from_column(kp: impl Into<KeyPath>, col: Column) -> StructuredVector {
        let len = col.len();
        StructuredVector {
            len,
            fields: vec![(kp.into(), col)],
            partitions: None,
        }
    }

    /// A single-field vector from a plain buffer (no ε).
    pub fn from_buffer(kp: impl Into<KeyPath>, buf: Buffer) -> StructuredVector {
        Self::from_column(kp, Column::from_buffer(buf))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of leaf fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// The flattened schema.
    pub fn schema(&self) -> Schema {
        Schema::from_fields(
            self.fields
                .iter()
                .map(|(kp, c)| (kp.clone(), c.ty()))
                .collect(),
        )
    }

    /// Iterate over `(keypath, column)` pairs.
    pub fn fields(&self) -> impl Iterator<Item = (&KeyPath, &Column)> {
        self.fields.iter().map(|(kp, c)| (kp, c))
    }

    /// Look up an exact leaf column.
    pub fn column(&self, kp: &KeyPath) -> Option<&Column> {
        self.fields.iter().find(|(f, _)| f == kp).map(|(_, c)| c)
    }

    /// Look up an exact leaf column, as an error on miss.
    pub fn column_req(&self, kp: &KeyPath, context: &str) -> Result<&Column> {
        self.column(kp).ok_or_else(|| VoodooError::UnknownKeyPath {
            keypath: kp.clone(),
            context: context.to_string(),
        })
    }

    /// Columns at or below `kp`, as `(relative path, column)` pairs.
    pub fn subtree(&self, kp: &KeyPath, context: &str) -> Result<Vec<(KeyPath, &Column)>> {
        let matches: Vec<_> = self
            .fields
            .iter()
            .filter(|(f, _)| f.starts_with(kp))
            .map(|(f, c)| (f.strip_prefix(kp).expect("starts_with checked"), c))
            .collect();
        if matches.is_empty() {
            Err(VoodooError::UnknownKeyPath {
                keypath: kp.clone(),
                context: context.to_string(),
            })
        } else {
            Ok(matches)
        }
    }

    /// Add (or replace) a leaf column; its length must equal the vector's.
    pub fn insert(&mut self, kp: impl Into<KeyPath>, col: Column) {
        assert_eq!(
            col.len(),
            self.len,
            "column length must match vector length"
        );
        let kp = kp.into();
        if let Some(slot) = self.fields.iter_mut().find(|(f, _)| *f == kp) {
            slot.1 = col;
        } else {
            self.fields.push((kp, col));
        }
    }

    /// Read the field at column index `field` of slot `row`; `None` for ε.
    pub fn scalar_at(&self, row: usize, field: usize) -> Option<ScalarValue> {
        self.fields[field].1.get(row)
    }

    /// Read a named field of slot `row`; `None` for ε or unknown field.
    pub fn value_at(&self, row: usize, kp: &KeyPath) -> Option<ScalarValue> {
        self.column(kp).and_then(|c| c.get(row))
    }

    /// The whole tuple at `row`, in field order (ε as `None`).
    pub fn tuple(&self, row: usize) -> Vec<Option<ScalarValue>> {
        self.fields.iter().map(|(_, c)| c.get(row)).collect()
    }

    /// Record the morsel boundaries this vector was produced across
    /// (fence posts: morsel starts plus the final end). Backends call
    /// this on partition-parallel outputs; it never changes the values.
    pub fn set_partition_bounds(&mut self, bounds: Vec<usize>) {
        self.partitions = Some(std::sync::Arc::new(bounds));
    }

    /// The morsel fence posts this vector was produced across, if it was
    /// produced partition-parallel.
    pub fn partition_bounds(&self) -> Option<&[usize]> {
        self.partitions.as_deref().map(|v| v.as_slice())
    }

    /// Number of morsels this vector was produced across (1 when it was
    /// produced serially).
    pub fn partition_count(&self) -> usize {
        self.partitions
            .as_deref()
            .map(|b| b.len().saturating_sub(1).max(1))
            .unwrap_or(1)
    }

    /// A convenience single-column accessor for 1-field vectors.
    pub fn sole_column(&self) -> Option<(&KeyPath, &Column)> {
        if self.fields.len() == 1 {
            Some((&self.fields[0].0, &self.fields[0].1))
        } else {
            None
        }
    }

    /// Rendered as a debugging table, ε printed as `ε` (Figure 7 style).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (kp, col) in &self.fields {
            write!(out, "{kp}\t").unwrap();
            for i in 0..self.len {
                match col.get(i) {
                    Some(v) => write!(out, "{v} ").unwrap(),
                    None => write!(out, "ε ").unwrap(),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writing into an `I32` column follows [`ScalarValue::cast`]: floats
    /// saturate, NaN is 0.
    #[test]
    fn i32_column_writes_saturate_floats() {
        use ScalarValue::{F32, F64, I32};
        let inputs = [F64(f64::INFINITY), F64(-3e9), F32(f32::NAN), F64(3e9)];
        let mut c = Column::empties(ScalarType::I32, 2);
        c.set(0, inputs[0]);
        c.set(1, inputs[1]);
        c.push(Some(inputs[2]));
        c.push(Some(inputs[3]));
        for (i, v) in inputs.iter().enumerate() {
            assert_eq!(c.get(i), Some(v.cast(ScalarType::I32)), "{v:?}");
        }
        let want = [i32::MAX, i32::MIN, 0, i32::MAX].map(|v| Some(I32(v)));
        assert_eq!((0..4).map(|i| c.get(i)).collect::<Vec<_>>(), want);
    }

    #[test]
    fn column_epsilon_roundtrip() {
        let mut c = Column::empties(ScalarType::I64, 3);
        assert_eq!(c.get(0), None);
        c.set(1, ScalarValue::I64(7));
        assert_eq!(c.get(1), Some(ScalarValue::I64(7)));
        c.clear(1);
        assert_eq!(c.get(1), None);
        assert!(!c.is_dense());
    }

    #[test]
    fn column_push_mixed() {
        let mut c = Column::from_buffer(Buffer::new(ScalarType::F32));
        c.push(Some(ScalarValue::F32(1.0)));
        c.push(None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.present().count(), 1);
    }

    #[test]
    fn vector_insert_and_schema() {
        let mut v = StructuredVector::with_len(2);
        v.insert(".fold", Column::from_buffer(Buffer::I64(vec![0, 1])));
        v.insert(".value", Column::from_buffer(Buffer::F32(vec![1.0, 2.0])));
        assert_eq!(v.field_count(), 2);
        assert_eq!(
            v.schema().field_type(&KeyPath::new(".value")),
            Some(ScalarType::F32)
        );
        assert_eq!(
            v.value_at(1, &KeyPath::new(".fold")),
            Some(ScalarValue::I64(1))
        );
    }

    #[test]
    fn vector_subtree_lookup() {
        let mut v = StructuredVector::with_len(1);
        v.insert(".in.a", Column::from_buffer(Buffer::I32(vec![1])));
        v.insert(".in.b", Column::from_buffer(Buffer::I32(vec![2])));
        v.insert(".out", Column::from_buffer(Buffer::I32(vec![3])));
        let sub = v.subtree(&KeyPath::new(".in"), "t").unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].0, KeyPath::new("a"));
    }

    #[test]
    #[should_panic(expected = "column length must match")]
    fn insert_checks_length() {
        let mut v = StructuredVector::with_len(2);
        v.insert(".x", Column::from_buffer(Buffer::I32(vec![1])));
    }

    #[test]
    fn partition_bounds_are_metadata_not_data() {
        let mut a = StructuredVector::with_len(4);
        a.insert(".x", Column::from_buffer(Buffer::I64(vec![1, 2, 3, 4])));
        let mut b = a.clone();
        assert_eq!(a.partition_count(), 1);
        assert!(a.partition_bounds().is_none());
        b.set_partition_bounds(vec![0, 2, 4]);
        assert_eq!(b.partition_count(), 2);
        assert_eq!(b.partition_bounds(), Some(&[0, 2, 4][..]));
        // Bit-identical data ⇒ equal, regardless of how it was produced.
        assert_eq!(a, b);
    }

    #[test]
    fn render_shows_epsilon() {
        let mut v = StructuredVector::with_len(2);
        let mut c = Column::empties(ScalarType::I64, 2);
        c.set(0, ScalarValue::I64(9));
        v.insert(".sum", c);
        let s = v.render();
        assert!(s.contains('ε'));
        assert!(s.contains('9'));
    }
}
