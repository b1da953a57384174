//! The in-memory catalog: tables, columns, dictionaries, metadata.
//!
//! Tables are stored behind [`Arc`], so cloning a [`Catalog`] — and taking
//! a [`CatalogSnapshot`] — is O(#tables), sharing every column buffer.
//! Mutation copies only the touched table (copy-on-write via
//! [`Arc::make_mut`]) and bumps the version counters. Versioning is
//! **per table**: every table remembers the catalog-wide mutation tick at
//! which it last changed ([`Catalog::table_version`]), and the engine
//! layer's prepared-plan caches key on the versions of exactly the tables
//! a program reads ([`Catalog::table_state`]) — so mutating table A never
//! invalidates plans that only touch table B. The catalog-wide counter
//! ([`Catalog::version`]) survives as a coarse "anything changed" tick
//! for snapshot ordering and diagnostics.
//!
//! # Segmented storage & the write path
//!
//! A [`Table`] is an immutable **base** (the `columns` vector) plus a list
//! of sealed, `Arc`-shared append [`Segment`]s. [`Catalog::append_rows`]
//! publishes a batch by sealing it into one new segment and pushing the
//! `Arc` — the base buffers and every earlier segment are shared with all
//! live snapshots untouched, so snapshot publication costs
//! O(batch + #tables), never O(rows resident). Readers see the logical
//! concatenation: [`Table::to_vector`] materializes it lazily through a
//! per-table merged-view cache, and non-append mutations
//! ([`Catalog::update_rows`], [`Catalog::delete_rows`],
//! [`Catalog::table_mut`]) first fold the segments into the base
//! ([`Table::compact`]). Compaction also runs automatically once the
//! pending tail would dominate the base (geometric doubling — amortized
//! O(1) per appended row) or the segment list gets long
//! ([`MAX_TABLE_SEGMENTS`]); it never changes the logical table, so it
//! bumps no version and logs no change.

use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::Arc;

use voodoo_core::{
    Buffer, Column, KeyPath, ScalarType, ScalarValue, Schema, StructuredVector, TableProvider,
};

/// Per-column statistics maintained on ingest.
///
/// The Voodoo planner uses min/max to size dense (identity-hashed) join and
/// group-by tables "using only min and max" (paper §4, Optimization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Minimum value (integer view; floats floor).
    pub min: i64,
    /// Maximum value (integer view; floats ceil).
    pub max: i64,
}

impl ColumnStats {
    /// Size of the dense value domain `[min, max]`.
    pub fn domain_size(&self) -> usize {
        (self.max - self.min + 1).max(0) as usize
    }
}

/// One named column of a table.
#[derive(Debug, Clone)]
pub struct TableColumn {
    /// Column name (no leading dot).
    pub name: String,
    /// The values (dictionary codes for string columns).
    pub data: Column,
    /// The dictionary, for string columns (codes index into it).
    /// `Arc`-shared: dictionaries can be O(rows) and must not be copied
    /// when a table is cloned for copy-on-write publication.
    pub dict: Option<Arc<Vec<String>>>,
    /// Min/max statistics for numeric (and code) columns.
    pub stats: Option<ColumnStats>,
}

impl TableColumn {
    /// Build from a buffer, computing stats.
    pub fn from_buffer(name: &str, data: Buffer) -> TableColumn {
        let col = Column::from_buffer(data);
        let stats = compute_stats(&col);
        TableColumn {
            name: name.to_string(),
            data: col,
            dict: None,
            stats,
        }
    }

    /// Dictionary-encode a string column (MonetDB-style).
    ///
    /// Codes are assigned in first-occurrence order, stored as `i32`.
    pub fn from_strings(name: &str, values: &[&str]) -> TableColumn {
        let mut dict: Vec<String> = Vec::new();
        let mut lookup: HashMap<&str, i32> = HashMap::new();
        let mut codes: Vec<i32> = Vec::with_capacity(values.len());
        for v in values {
            let code = *lookup.entry(v).or_insert_with(|| {
                dict.push(v.to_string());
                (dict.len() - 1) as i32
            });
            codes.push(code);
        }
        let col = Column::from_buffer(Buffer::I32(codes));
        let stats = compute_stats(&col);
        TableColumn {
            name: name.to_string(),
            data: col,
            dict: Some(Arc::new(dict)),
            stats,
        }
    }

    /// Decode a dictionary code back to its string.
    pub fn decode(&self, code: i32) -> Option<&str> {
        self.dict
            .as_ref()
            .and_then(|d| d.get(code as usize))
            .map(|s| s.as_str())
    }

    /// Look up the code of a string value, if present in the dictionary.
    pub fn encode(&self, value: &str) -> Option<i32> {
        self.dict
            .as_ref()
            .and_then(|d| d.iter().position(|s| s == value))
            .map(|i| i as i32)
    }

    /// The scalar type of the stored values.
    pub fn ty(&self) -> ScalarType {
        self.data.ty()
    }
}

fn compute_stats(col: &Column) -> Option<ColumnStats> {
    let mut it = col.present();
    let first = it.next()?;
    let (mut min, mut max) = (to_i64(first), to_i64(first));
    for v in it {
        let x = to_i64(v);
        min = min.min(x);
        max = max.max(x);
    }
    Some(ColumnStats { min, max })
}

fn to_i64(v: ScalarValue) -> i64 {
    match v {
        ScalarValue::F32(f) => f.floor() as i64,
        ScalarValue::F64(f) => f.floor() as i64,
        other => other.as_i64(),
    }
}

/// A sealed, immutable batch of appended rows: one [`Column`] per table
/// column (dense by construction — every slot populated), stamped with
/// the per-table version whose append produced it.
///
/// Segments are the unit of O(1) snapshot publication: the catalog shares
/// them by `Arc`, and an append segment doubles as the change-log record
/// of the append (the segment *is* the `+1` row delta).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    version: u64,
    len: usize,
    columns: Vec<Column>,
}

impl Segment {
    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment has no rows (never true for sealed segments).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-table version whose append sealed this segment.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The segment's columns, in table column order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The `i64` image of segment-local row `i` (segments are dense, so
    /// every slot is populated).
    pub fn row_image(&self, i: usize) -> Vec<i64> {
        self.columns
            .iter()
            .map(|c| c.get(i).map(|v| v.as_i64()).unwrap_or(0))
            .collect()
    }
}

/// Single-slot cache of the merged (base ⧺ segments) view of a table,
/// keyed on `(table version, row count)` so any mutation — catalog-ticked
/// or standalone — misses. Interior-mutable: readers materialize lazily
/// through `&Table`.
#[derive(Debug, Default)]
struct MergedCache(std::sync::Mutex<Option<((u64, usize), StructuredVector)>>);

impl MergedCache {
    fn get(&self, key: (u64, usize)) -> Option<StructuredVector> {
        let guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    fn put(&self, key: (u64, usize), v: StructuredVector) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some((key, v));
    }
}

impl Clone for MergedCache {
    fn clone(&self) -> MergedCache {
        // Carrying the entry over is safe (columns are COW) and keeps the
        // merged view warm across the catalog's copy-on-write clones.
        MergedCache(std::sync::Mutex::new(
            self.0.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        ))
    }
}

/// Segment-count ceiling: a table never carries more than this many
/// pending append segments; [`Catalog::append_rows`] folds them into the
/// base once the list gets this long (or earlier, once the pending tail
/// would dominate the base — geometric doubling, amortized O(1)/row).
pub const MAX_TABLE_SEGMENTS: usize = 4096;

/// Don't bother keeping segments on tiny tables: below this many pending
/// rows compaction is cheaper than the bookkeeping.
const MIN_COMPACT_ROWS: usize = 1024;

/// A named table: aligned columns of equal length.
///
/// Storage is an immutable **base** (`columns`) plus `Arc`-shared sealed
/// append [`Segment`]s; `len` counts the logical concatenation. Readers
/// materialize the merged view via [`Table::to_vector`] (cached per
/// version); writers append in O(batch) via [`Table::append_rows`] and
/// fold segments back into the base via [`Table::compact`].
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Logical row count (base rows + all pending segment rows).
    pub len: usize,
    /// Base-segment columns, in definition order. Segment rows are NOT
    /// visible here — read through [`Table::to_vector`] /
    /// [`Table::merged_columns`], or call [`Table::compact`] first.
    pub columns: Vec<TableColumn>,
    /// Declared foreign keys: column name → (target table, target column).
    pub foreign_keys: HashMap<String, (String, String)>,
    /// The catalog mutation tick at which this table last changed
    /// (maintained by [`Catalog`]; 0 for a table not yet inserted).
    pub version: u64,
    /// Sealed append segments, oldest first.
    segments: Vec<Arc<Segment>>,
    /// The highest version whose effects are folded into the base: every
    /// non-append mutation compacts and raises this to its own version,
    /// so all changes past `base_version` are exactly `segments`.
    base_version: u64,
    /// Memoized [`Table::rows_capturable`] (`None` = not yet computed, or
    /// invalidated by an arbitrary in-place hand-out).
    capturable: Option<bool>,
    /// Lazily materialized merged view of base ⧺ segments.
    merged: MergedCache,
}

impl Table {
    /// An empty table with a name.
    pub fn new(name: &str) -> Table {
        Table {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Add a column; first column fixes the row count. Folds any pending
    /// append segments first so the new column aligns with the base.
    pub fn add_column(&mut self, col: TableColumn) -> &mut Self {
        self.compact();
        if self.columns.is_empty() {
            self.len = col.data.len();
        } else {
            assert_eq!(col.data.len(), self.len, "column length must match table");
        }
        self.columns.push(col);
        self.capturable = None;
        self
    }

    /// Declare a foreign key `column → target_table.target_column`.
    pub fn add_foreign_key(&mut self, column: &str, target_table: &str, target_column: &str) {
        self.foreign_keys.insert(
            column.to_string(),
            (target_table.to_string(), target_column.to_string()),
        );
    }

    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&TableColumn> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Append rows in bulk, one `Vec<i64>` per row in column order.
    ///
    /// The batch is sealed into one new append [`Segment`] (stamped with
    /// the table's current version) — base column buffers are never
    /// touched, which is what makes catalog-level publication O(batch).
    /// Values are cast to each column's stored type, and column stats
    /// widen to cover the values **as stored** (a wrapped `I32` or
    /// truthiness-collapsed `Bool` widens by its stored value, never the
    /// raw `i64` — stats must not claim a range the data cannot contain).
    /// Panics if a row's arity does not match the table.
    pub fn append_rows(&mut self, rows: &[Vec<i64>]) {
        for row in rows {
            assert_eq!(row.len(), self.columns.len(), "row arity must match table");
        }
        if rows.is_empty() {
            return;
        }
        let mut columns = Vec::with_capacity(self.columns.len());
        for (c, col) in self.columns.iter_mut().enumerate() {
            let ty = col.ty();
            let mut data = Column::from_buffer(Buffer::with_len(ty, 0));
            let (mut min, mut max) = match col.stats {
                Some(s) => (s.min, s.max),
                None => (i64::MAX, i64::MIN),
            };
            for row in rows {
                let stored = ScalarValue::I64(row[c]).cast(ty);
                let x = to_i64(stored);
                min = min.min(x);
                max = max.max(x);
                data.push(Some(stored));
            }
            col.stats = Some(ColumnStats { min, max });
            columns.push(data);
        }
        self.segments.push(Arc::new(Segment {
            version: self.version,
            len: rows.len(),
            columns,
        }));
        self.len += rows.len();
    }

    /// The sealed append segments pending on this table, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Rows held in pending append segments (not yet folded into base).
    pub fn pending_rows(&self) -> usize {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Rows in the base segment (`len` minus pending segment rows).
    pub fn base_len(&self) -> usize {
        self.len - self.pending_rows()
    }

    /// The highest version whose effects are folded into the base. Every
    /// change past it is exactly the pending segment list.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// Fold all pending append segments into the base columns and raise
    /// `base_version` to the current version. Purely physical: the
    /// logical table is unchanged, so callers bump no version and log no
    /// change. Shared base buffers are deep-copied exactly once here
    /// (copy-on-write), so live snapshots keep their view.
    pub fn compact(&mut self) {
        if !self.segments.is_empty() {
            let segments = std::mem::take(&mut self.segments);
            for (c, col) in self.columns.iter_mut().enumerate() {
                for seg in &segments {
                    col.data.extend_from(&seg.columns[c]);
                }
            }
        }
        self.base_version = self.version;
    }

    /// Whether the automatic compaction thresholds are crossed: the
    /// pending tail would dominate the base (geometric doubling) or the
    /// segment list is longer than [`MAX_TABLE_SEGMENTS`].
    pub fn should_compact(&self) -> bool {
        self.segments.len() > MAX_TABLE_SEGMENTS
            || self.pending_rows() >= self.base_len().max(MIN_COMPACT_ROWS)
    }

    /// Whether every row can be captured losslessly as a `Vec<i64>` image:
    /// all columns integer-typed (`Bool`/`I32`/`I64`) and dense (no ε).
    /// Float-typed or sparse tables fall back to coarse rewrite capture.
    /// (Append segments are dense by construction, so the base columns
    /// decide.)
    pub fn rows_capturable(&self) -> bool {
        self.columns.iter().all(|c| {
            matches!(c.ty(), ScalarType::Bool | ScalarType::I32 | ScalarType::I64)
                && c.data.is_dense()
        })
    }

    fn capturable_cached(&mut self) -> bool {
        match self.capturable {
            Some(c) => c,
            None => {
                let c = self.rows_capturable();
                self.capturable = Some(c);
                c
            }
        }
    }

    /// The `i64` image of row `i` (one value per column, in column order),
    /// indexing across the base and any pending segments.
    ///
    /// Only meaningful when [`Table::rows_capturable`] holds — on sparse
    /// tables an ε slot has no faithful `i64` image. Debug builds assert
    /// capturability; release callers must check it themselves and fall
    /// back to coarse [`TableChange::Rewrite`] capture.
    pub fn row_image(&self, i: usize) -> Vec<i64> {
        debug_assert!(
            self.rows_capturable(),
            "row_image on a non-capturable table silently corrupts change capture"
        );
        let base = self.base_len();
        if i < base {
            return self
                .columns
                .iter()
                .map(|c| c.data.get(i).map(|v| v.as_i64()).unwrap_or(0))
                .collect();
        }
        let mut off = i - base;
        for seg in &self.segments {
            if off < seg.len {
                return seg.row_image(off);
            }
            off -= seg.len;
        }
        panic!("row index {i} out of range for table of {} rows", self.len);
    }

    /// The table's flattened Voodoo schema (`.colname` per column).
    pub fn schema(&self) -> Schema {
        Schema::from_fields(
            self.columns
                .iter()
                .map(|c| (KeyPath::new(&c.name), c.ty()))
                .collect(),
        )
    }

    /// Materialize the table as a structured vector: the logical
    /// concatenation of base and pending segments. Unsegmented tables
    /// share their column buffers outright (O(#columns)); segmented ones
    /// merge lazily through a per-table cache keyed on
    /// `(version, row count)`, so repeated reads between appends pay the
    /// concatenation once.
    pub fn to_vector(&self) -> StructuredVector {
        if self.segments.is_empty() {
            let mut v = StructuredVector::with_len(self.len);
            for c in &self.columns {
                v.insert(KeyPath::new(&c.name), c.data.clone());
            }
            return v;
        }
        let key = (self.version, self.len);
        if let Some(v) = self.merged.get(key) {
            return v;
        }
        let mut v = StructuredVector::with_len(self.len);
        for (c, col) in self.columns.iter().enumerate() {
            let mut data = col.data.clone();
            for seg in &self.segments {
                data.extend_from(&seg.columns[c]);
            }
            v.insert(KeyPath::new(&col.name), data);
        }
        self.merged.put(key, v.clone());
        v
    }

    /// The merged (base ⧺ segments) data of one column, sharing the base
    /// buffer outright when no segments are pending.
    pub fn merged_column(&self, name: &str) -> Option<Column> {
        let col = self.column(name)?;
        if self.segments.is_empty() {
            return Some(col.data.clone());
        }
        self.to_vector().column(&KeyPath::new(&col.name)).cloned()
    }

    /// All columns with their merged (base ⧺ segments) data — what
    /// serialization and whole-table staging must read instead of the
    /// base-only `columns` field.
    pub fn merged_columns(&self) -> Vec<TableColumn> {
        if self.segments.is_empty() {
            return self.columns.clone();
        }
        let v = self.to_vector();
        self.columns
            .iter()
            .map(|c| TableColumn {
                name: c.name.clone(),
                data: v
                    .column(&KeyPath::new(&c.name))
                    .cloned()
                    .expect("merged view covers every column"),
                dict: c.dict.clone(),
                stats: c.stats,
            })
            .collect()
    }
}

/// A batch of captured row changes for one table: full row images (one
/// `i64` per column) with signed multiplicities — `+1` for an inserted
/// row, `-1` for a deleted one; an update is a `-1`/`+1` pair. This is the
/// Z-set (DBSP) representation incremental view maintenance consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowDelta {
    /// Row images, one `Vec<i64>` per changed row, in table column order.
    pub rows: Vec<Vec<i64>>,
    /// Signed multiplicity per row, aligned with `rows`.
    pub weights: Vec<i64>,
}

impl RowDelta {
    /// Number of captured (row, weight) pairs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no changes were captured.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Record one row image with a signed multiplicity.
    pub fn push(&mut self, row: Vec<i64>, weight: i64) {
        self.rows.push(row);
        self.weights.push(weight);
    }

    /// Append another delta after this one (concatenation, not
    /// consolidation — Z-set addition tolerates duplicates).
    pub fn merge(&mut self, other: &RowDelta) {
        self.rows.extend(other.rows.iter().cloned());
        self.weights.extend(other.weights.iter().copied());
    }
}

/// What the change log knows about one table mutation.
#[derive(Debug, Clone)]
pub enum TableChange {
    /// Row-level capture: the exact Z-set of changed rows.
    Delta(RowDelta),
    /// An append captured as its sealed segment: the segment *is* the
    /// `+1`-weighted delta, shared with the table instead of copied out —
    /// logging an append is O(1), not O(batch).
    Append(Arc<Segment>),
    /// Coarse capture: the table changed in a way row images cannot
    /// express (replacement, in-place hand-out, float/sparse columns).
    /// Consumers must fall back to a full recompute.
    Rewrite,
}

/// One change-log entry: which table changed, the per-table version the
/// mutation produced, and the captured change.
#[derive(Debug, Clone)]
pub struct ChangeEntry {
    /// The mutated table.
    pub table: String,
    /// The table version this mutation produced.
    pub version: u64,
    /// The captured change.
    pub change: TableChange,
}

/// Bounded depth of the change log; older entries are dropped and the
/// floor rises, forcing readers that fell too far behind to full-recompute
/// — unless every change past their version is a still-resident append
/// segment, which [`Catalog::changes_since`] serves directly.
pub const MAX_CHANGE_LOG: usize = 1024;

/// The catalog: the persistent namespace `Load`/`Persist` operate on.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    version: u64,
    /// Captured mutations, oldest first (entries are `Arc`-shared across
    /// clones/snapshots; the deque itself is tiny).
    changes: VecDeque<Arc<ChangeEntry>>,
    /// Versions at or below this may have had their entries dropped.
    change_floor: u64,
}

impl Catalog {
    /// A fresh, empty in-memory catalog.
    pub fn in_memory() -> Catalog {
        Catalog::default()
    }

    /// A monotonic mutation counter: bumped whenever *any* table is
    /// inserted, replaced, or handed out mutably. Plan invalidation keys
    /// on the finer-grained [`Catalog::table_state`]; this coarse tick
    /// orders snapshots and feeds diagnostics.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The mutation tick at which `name` last changed, or `None` for an
    /// unknown table. Monotonic per catalog lineage: any insert, replace
    /// or mutable hand-out of the table bumps it.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        self.tables.get(name).map(|t| t.version)
    }

    /// A collision-free fingerprint of the current state of the named
    /// tables: `"name@version"` per table (`"name@-"` for an absent one),
    /// `;`-joined in input order. Prepared-plan caches key on the
    /// fingerprint of exactly the tables a program loads or persists, so
    /// unrelated mutations leave cached plans hot.
    pub fn table_state<'a>(&self, tables: impl IntoIterator<Item = &'a str>) -> String {
        let mut s = String::new();
        for name in tables {
            if !s.is_empty() {
                s.push(';');
            }
            s.push_str(name);
            s.push('@');
            match self.table_version(name) {
                Some(v) => s.push_str(&v.to_string()),
                None => s.push('-'),
            }
        }
        s
    }

    /// An immutable, cheaply clonable snapshot of this catalog. Column
    /// buffers are shared (tables sit behind [`Arc`]), so the snapshot is
    /// O(#tables) regardless of data volume.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot(Arc::new(self.clone()))
    }

    /// Insert (or replace) a table. Captured as a [`TableChange::Rewrite`]
    /// in the change log: replacement has no row-level delta.
    pub fn insert_table(&mut self, mut table: Table) {
        self.version += 1;
        table.version = self.version;
        table.base_version = self.version;
        let version = self.version;
        self.log_change(&table.name, version, TableChange::Rewrite);
        self.tables.insert(table.name.clone(), Arc::new(table));
    }

    /// Insert a table with a pinned per-table version instead of a fresh
    /// mutation tick. This exists for *staging scratch inputs* (e.g. delta
    /// batches fed to incremental refresh): pinning the version to a
    /// content-derived value (typically the row count) keeps the
    /// `table_state` fingerprint — and therefore prepared-plan cache keys —
    /// stable across refreshes that stage same-shaped inputs. Not captured
    /// in the change log; do not use for tables readers maintain views over.
    pub fn insert_table_pinned(&mut self, mut table: Table, version: u64) {
        self.version = self.version.max(version);
        table.version = version;
        table.base_version = version;
        self.tables.insert(table.name.clone(), Arc::new(table));
    }

    /// Fold the pending append segments of table `name` into its base.
    /// Purely physical — the logical table is unchanged, so no version is
    /// bumped and no change is logged; live snapshots keep sharing the
    /// pre-compaction buffers. Returns `false` for an unknown table.
    pub fn compact_table(&mut self, name: &str) -> bool {
        let Some(entry) = self.tables.get_mut(name) else {
            return false;
        };
        Arc::make_mut(entry).compact();
        true
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|t| t.as_ref())
    }

    /// Mutable table lookup (conservatively counts as a mutation).
    ///
    /// Copy-on-write: if the table is shared with snapshots, it is cloned
    /// first, so existing snapshots keep their view. Captured as a
    /// [`TableChange::Rewrite`]: an arbitrary in-place edit has no
    /// row-level delta. Use [`Catalog::append_rows`] /
    /// [`Catalog::update_rows`] / [`Catalog::delete_rows`] for mutations
    /// incremental view maintenance can follow.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.version += 1;
        let version = self.version;
        if self.tables.contains_key(name) {
            self.log_change(name, version, TableChange::Rewrite);
        }
        self.tables.get_mut(name).map(|t| {
            let t = Arc::make_mut(t);
            t.version = version;
            // Hand out a flat table: arbitrary edits index the base, and
            // they may change capturability in ways appends cannot.
            t.compact();
            t.capturable = None;
            t
        })
    }

    /// Append rows to a table. The batch is sealed into one `Arc`-shared
    /// [`Segment`] and the very same segment is logged as the change
    /// ([`TableChange::Append`]) — publication and capture both cost
    /// O(batch), independent of the rows already resident. Non-capturable
    /// tables (float/sparse columns) still append in O(batch) but log a
    /// coarse [`TableChange::Rewrite`]. Folds segments into the base when
    /// the compaction thresholds trip. Returns `false` for an unknown
    /// table; panics if a row's arity does not match.
    pub fn append_rows(&mut self, name: &str, rows: &[Vec<i64>]) -> bool {
        let Some(entry) = self.tables.get_mut(name) else {
            return false;
        };
        self.version += 1;
        let version = self.version;
        let t = Arc::make_mut(entry);
        t.version = version;
        let capturable = t.capturable_cached();
        t.append_rows(rows);
        let change = if rows.is_empty() {
            TableChange::Delta(RowDelta::default())
        } else if capturable {
            TableChange::Append(Arc::clone(
                t.segments.last().expect("append sealed a segment"),
            ))
        } else {
            // Lossless capture is off for this table: raise the base
            // watermark so the segment fast path can never serve it.
            t.base_version = version;
            TableChange::Rewrite
        };
        if t.should_compact() {
            t.compact();
        }
        self.log_change(name, version, change);
        true
    }

    /// Overwrite rows in place: `(row index, new image)` pairs, images in
    /// column order. Captured as a `-old`/`+new` [`RowDelta`] pair per row
    /// (or a [`TableChange::Rewrite`] for non-capturable tables). Stats
    /// widen to cover the new values. Out-of-range indices are ignored;
    /// returns `false` for an unknown table.
    pub fn update_rows(&mut self, name: &str, updates: &[(usize, Vec<i64>)]) -> bool {
        let Some(entry) = self.tables.get_mut(name) else {
            return false;
        };
        self.version += 1;
        let version = self.version;
        let t = Arc::make_mut(entry);
        t.version = version;
        // In-place writes index the base: fold pending segments first
        // (this also raises base_version past every live reader).
        t.compact();
        let capturable = t.capturable_cached();
        let mut delta = RowDelta::default();
        for (i, row) in updates {
            let i = *i;
            if i >= t.len {
                continue;
            }
            assert_eq!(row.len(), t.columns.len(), "row arity must match table");
            if capturable {
                delta.push(t.row_image(i), -1);
            }
            for (c, col) in t.columns.iter_mut().enumerate() {
                let stored = ScalarValue::I64(row[c]).cast(col.ty());
                let x = to_i64(stored);
                col.data.set(i, stored);
                if let Some(s) = col.stats.as_mut() {
                    s.min = s.min.min(x);
                    s.max = s.max.max(x);
                } else {
                    col.stats = Some(ColumnStats { min: x, max: x });
                }
            }
            if capturable {
                delta.push(t.row_image(i), 1);
            }
        }
        let change = if capturable {
            TableChange::Delta(delta)
        } else {
            TableChange::Rewrite
        };
        self.log_change(name, version, change);
        true
    }

    /// Delete rows by index. Captured as a `-1`-weighted [`RowDelta`] of
    /// the removed images (or a [`TableChange::Rewrite`] for
    /// non-capturable tables). Duplicate and out-of-range indices are
    /// ignored; stats are recomputed. Returns `false` for an unknown table.
    pub fn delete_rows(&mut self, name: &str, idxs: &[usize]) -> bool {
        let Some(entry) = self.tables.get_mut(name) else {
            return false;
        };
        self.version += 1;
        let version = self.version;
        let t = Arc::make_mut(entry);
        t.version = version;
        // Deletion rebuilds the base: fold pending segments first.
        t.compact();
        let mut drop = vec![false; t.len];
        for &i in idxs {
            if i < t.len {
                drop[i] = true;
            }
        }
        let capturable = t.capturable_cached();
        let mut delta = RowDelta::default();
        if capturable {
            for (i, &d) in drop.iter().enumerate() {
                if d {
                    delta.push(t.row_image(i), -1);
                }
            }
        }
        for col in t.columns.iter_mut() {
            let mut kept = Column::from_buffer(Buffer::with_len(col.data.ty(), 0));
            for (i, &d) in drop.iter().enumerate() {
                if !d {
                    kept.push(col.data.get(i));
                }
            }
            col.data = kept;
            col.stats = compute_stats(&col.data);
        }
        t.len -= drop.iter().filter(|&&d| d).count();
        // Dropping sparse rows can make a table capturable again; let the
        // next mutation recompute instead of carrying a stale memo.
        t.capturable = None;
        let change = if capturable {
            TableChange::Delta(delta)
        } else {
            TableChange::Rewrite
        };
        self.log_change(name, version, change);
        true
    }

    /// The exact row-level changes of table `name` since per-table version
    /// `since`, merged oldest-first. `None` means row-level capture is not
    /// available — a mutation in the range was a [`TableChange::Rewrite`],
    /// or the log has been trimmed to (or past) `since` — and the reader
    /// must fall back to a full recompute. An up-to-date table yields an
    /// empty delta.
    ///
    /// Appends are served from the table's still-resident segments when
    /// possible (`since` at or past the base watermark of a losslessly
    /// capturable table), so pure-ingest readers get exact deltas even
    /// beyond the bounded [`MAX_CHANGE_LOG`] window.
    pub fn changes_since(&self, name: &str, since: u64) -> Option<RowDelta> {
        let t = self.tables.get(name)?;
        let mut delta = RowDelta::default();
        if t.version <= since {
            return Some(delta);
        }
        // Segment fast path: every mutation past `since` is a sealed
        // append segment still pending on the table (any other mutation
        // would have raised `base_version` past `since`). The segments
        // ARE the delta — no log needed, no floor to fall behind.
        if since >= t.base_version && t.capturable == Some(true) {
            for seg in &t.segments {
                if seg.version > since {
                    for i in 0..seg.len {
                        delta.push(seg.row_image(i), 1);
                    }
                }
            }
            return Some(delta);
        }
        if since <= self.change_floor {
            return None;
        }
        for e in &self.changes {
            if e.table == name && e.version > since {
                match &e.change {
                    TableChange::Delta(d) => delta.merge(d),
                    TableChange::Append(seg) => {
                        for i in 0..seg.len {
                            delta.push(seg.row_image(i), 1);
                        }
                    }
                    TableChange::Rewrite => return None,
                }
            }
        }
        Some(delta)
    }

    /// Versions at or below this floor may have had their change-log
    /// entries dropped; [`Catalog::changes_since`] refuses them (the floor
    /// itself included — no off-by-one ever yields an approximate delta)
    /// unless the segment fast path can serve the range exactly.
    pub fn change_floor(&self) -> u64 {
        self.change_floor
    }

    fn log_change(&mut self, table: &str, version: u64, change: TableChange) {
        self.changes.push_back(Arc::new(ChangeEntry {
            table: table.to_string(),
            version,
            change,
        }));
        while self.changes.len() > MAX_CHANGE_LOG {
            if let Some(dropped) = self.changes.pop_front() {
                self.change_floor = self.change_floor.max(dropped.version);
            }
        }
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Create a single-column table named `name` with column `val`.
    pub fn put_i64_column(&mut self, name: &str, values: &[i64]) {
        let mut t = Table::new(name);
        t.add_column(TableColumn::from_buffer(
            "val",
            Buffer::I64(values.to_vec()),
        ));
        self.insert_table(t);
    }

    /// Create a single-column `f32` table (column `val`).
    pub fn put_f32_column(&mut self, name: &str, values: &[f32]) {
        let mut t = Table::new(name);
        t.add_column(TableColumn::from_buffer(
            "val",
            Buffer::F32(values.to_vec()),
        ));
        self.insert_table(t);
    }

    /// Create a single-column `i32` table (column `val`).
    pub fn put_i32_column(&mut self, name: &str, values: &[i32]) {
        let mut t = Table::new(name);
        t.add_column(TableColumn::from_buffer(
            "val",
            Buffer::I32(values.to_vec()),
        ));
        self.insert_table(t);
    }

    /// Materialize a table as a structured vector (the `Load` semantics).
    pub fn load_vector(&self, name: &str) -> Option<StructuredVector> {
        self.table(name).map(|t| t.to_vector())
    }

    /// Store a structured vector as a table (the `Persist` semantics).
    pub fn persist_vector(&mut self, name: &str, v: &StructuredVector) {
        let mut t = Table::new(name);
        t.len = v.len();
        for (kp, col) in v.fields() {
            t.columns.push(TableColumn {
                name: kp.as_ident(),
                data: col.clone(),
                dict: None,
                stats: compute_stats(col),
            });
        }
        self.insert_table(t);
    }

    /// Min/max stats of a column, if known.
    pub fn column_stats(&self, table: &str, column: &str) -> Option<ColumnStats> {
        self.table(table)?.column(column)?.stats
    }
}

impl TableProvider for Catalog {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.table(name).map(|t| t.schema())
    }

    fn table_len(&self, name: &str) -> Option<usize> {
        self.table(name).map(|t| t.len)
    }
}

/// An immutable, reference-counted view of a [`Catalog`] at a fixed
/// version.
///
/// Snapshots are what concurrent readers execute against: a statement
/// grabs one at start and holds no lock for the rest of its run. Cloning
/// a snapshot is a reference-count bump; the underlying column buffers
/// are shared with the live catalog until a writer copies-on-write the
/// touched table.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot(Arc<Catalog>);

impl CatalogSnapshot {
    /// Snapshot an owned catalog (no copy beyond the table map).
    pub fn new(catalog: Catalog) -> CatalogSnapshot {
        CatalogSnapshot(Arc::new(catalog))
    }

    /// The catalog version this snapshot pinned.
    pub fn version(&self) -> u64 {
        self.0.version()
    }
}

impl Deref for CatalogSnapshot {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

impl From<Catalog> for CatalogSnapshot {
    fn from(catalog: Catalog) -> CatalogSnapshot {
        CatalogSnapshot::new(catalog)
    }
}

impl AsRef<Catalog> for CatalogSnapshot {
    fn as_ref(&self) -> &Catalog {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_roundtrip() {
        let col = TableColumn::from_strings("flag", &["A", "N", "A", "R", "N"]);
        assert_eq!(col.dict.as_ref().unwrap().len(), 3);
        assert_eq!(col.decode(0), Some("A"));
        assert_eq!(col.encode("R"), Some(2));
        assert_eq!(col.encode("X"), None);
        // Codes follow first occurrence: A=0, N=1, R=2.
        assert_eq!(col.data.buffer().as_i32().unwrap(), &[0, 1, 0, 2, 1]);
    }

    #[test]
    fn stats_computed() {
        let col = TableColumn::from_buffer("x", Buffer::I64(vec![5, -3, 9]));
        let s = col.stats.unwrap();
        assert_eq!((s.min, s.max), (-3, 9));
        assert_eq!(s.domain_size(), 13);
    }

    #[test]
    fn table_schema_and_vector() {
        let mut t = Table::new("line");
        t.add_column(TableColumn::from_buffer("qty", Buffer::I64(vec![1, 2])));
        t.add_column(TableColumn::from_buffer(
            "price",
            Buffer::F64(vec![1.5, 2.5]),
        ));
        assert_eq!(t.len, 2);
        let v = t.to_vector();
        assert_eq!(v.len(), 2);
        assert_eq!(
            v.value_at(1, &KeyPath::new(".price")),
            Some(ScalarValue::F64(2.5))
        );
    }

    #[test]
    #[should_panic(expected = "column length must match")]
    fn misaligned_column_panics() {
        let mut t = Table::new("t");
        t.add_column(TableColumn::from_buffer("a", Buffer::I64(vec![1, 2])));
        t.add_column(TableColumn::from_buffer("b", Buffer::I64(vec![1])));
    }

    #[test]
    fn catalog_provider_impl() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("input", &[1, 2, 3]);
        assert_eq!(cat.table_len("input"), Some(3));
        assert_eq!(
            cat.table_schema("input")
                .unwrap()
                .field_type(&KeyPath::new(".val")),
            Some(ScalarType::I64)
        );
        assert_eq!(cat.table_len("nope"), None);
    }

    #[test]
    fn persist_roundtrip() {
        let mut cat = Catalog::in_memory();
        let mut v = StructuredVector::with_len(2);
        v.insert(".sum", Column::from_buffer(Buffer::I64(vec![10, 20])));
        cat.persist_vector("result", &v);
        let back = cat.load_vector("result").unwrap();
        assert_eq!(
            back.value_at(0, &KeyPath::new(".sum")),
            Some(ScalarValue::I64(10))
        );
    }

    #[test]
    fn snapshots_share_buffers_and_survive_mutation() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3]);
        let snap = cat.snapshot();
        assert_eq!(snap.version(), cat.version());
        // Mutating the live catalog copies-on-write; the snapshot keeps
        // its view and its version.
        cat.put_i64_column("t", &[9, 9]);
        assert_eq!(snap.table("t").unwrap().len, 3);
        assert_eq!(cat.table("t").unwrap().len, 2);
        assert!(cat.version() > snap.version());
        // table_mut on a shared table must not bleed into the snapshot.
        let mut cat2 = Catalog::in_memory();
        cat2.put_i64_column("u", &[1]);
        let snap2 = cat2.snapshot();
        cat2.table_mut("u")
            .unwrap()
            .add_foreign_key("val", "t", "val");
        assert!(snap2.table("u").unwrap().foreign_keys.is_empty());
        assert_eq!(cat2.table("u").unwrap().foreign_keys.len(), 1);
    }

    #[test]
    fn table_versions_move_independently() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("a", &[1, 2]);
        cat.put_i64_column("b", &[3, 4]);
        let (va, vb) = (
            cat.table_version("a").unwrap(),
            cat.table_version("b").unwrap(),
        );
        assert_ne!(va, vb);
        let state_b = cat.table_state(["b"]);
        // Mutating `a` leaves `b`'s version — and fingerprint — untouched.
        cat.put_i64_column("a", &[9]);
        assert!(cat.table_version("a").unwrap() > va);
        assert_eq!(cat.table_version("b"), Some(vb));
        assert_eq!(cat.table_state(["b"]), state_b);
        assert_ne!(cat.table_state(["a", "b"]), state_b);
        // table_mut conservatively bumps the touched table only.
        cat.table_mut("b").unwrap();
        assert!(cat.table_version("b").unwrap() > vb);
        // Absent tables fingerprint distinctly from any present version.
        assert_eq!(cat.table_state(["nope"]), "nope@-");
    }

    #[test]
    fn append_rows_seals_segments_base_untouched() {
        let mut t = Table::new("t");
        t.add_column(TableColumn::from_buffer("a", Buffer::I64(vec![1, 2])));
        t.add_column(TableColumn::from_buffer("b", Buffer::I32(vec![10, 20])));
        t.append_rows(&[vec![3, 30], vec![-4, 40]]);
        assert_eq!(t.len, 4);
        // The base buffers are untouched; the batch lives in one sealed
        // segment, and readers see the logical concatenation.
        assert_eq!(
            t.column("a").unwrap().data.buffer().as_i64().unwrap(),
            &[1, 2]
        );
        assert_eq!(
            (t.base_len(), t.pending_rows(), t.segments().len()),
            (2, 2, 1)
        );
        let v = t.to_vector();
        assert_eq!(
            v.column(&KeyPath::new("a")).unwrap().buffer().as_i64(),
            Some(&[1i64, 2, 3, -4][..])
        );
        assert_eq!(
            v.column(&KeyPath::new("b")).unwrap().buffer().as_i32(),
            Some(&[10i32, 20, 30, 40][..])
        );
        let s = t.column("a").unwrap().stats.unwrap();
        assert_eq!((s.min, s.max), (-4, 3));
        assert!(t.rows_capturable());
        assert_eq!(t.row_image(3), vec![-4, 40]);
        // Compaction folds everything into the base, changing nothing
        // logically.
        t.compact();
        assert_eq!((t.len, t.pending_rows()), (4, 0));
        assert_eq!(
            t.column("a").unwrap().data.buffer().as_i64().unwrap(),
            &[1, 2, 3, -4]
        );
        assert_eq!(t.row_image(3), vec![-4, 40]);
        assert_eq!(t.to_vector(), v);
    }

    #[test]
    fn append_publication_shares_all_prior_storage() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &(0..10_000).collect::<Vec<_>>());
        assert!(cat.append_rows("t", &[vec![7], vec![8]]));
        let snap = cat.snapshot();
        // Another append: the new catalog's table shares the base buffer
        // AND the first segment with the snapshot — only the new segment
        // is fresh storage. This is the O(batch) publication invariant.
        assert!(cat.append_rows("t", &[vec![9]]));
        let (before, after) = (snap.table("t").unwrap(), cat.table("t").unwrap());
        assert!(after.columns[0]
            .data
            .shares_storage_with(&before.columns[0].data));
        assert!(Arc::ptr_eq(&after.segments()[0], &before.segments()[0]));
        assert_eq!(after.segments().len(), 2);
        // The snapshot still reads its own (shorter) view.
        assert_eq!(before.len, 10_002);
        assert_eq!(after.len, 10_003);
    }

    #[test]
    fn stats_widen_from_stored_values_not_raw() {
        // Out-of-range for i32: wraps on store; stats must track the
        // wrapped value, not claim a max the column cannot contain.
        let raw = i32::MAX as i64 + 2;
        let mut t2 = Table::new("t2");
        t2.add_column(TableColumn::from_buffer("v", Buffer::I32(vec![1, 2])));
        t2.append_rows(&[vec![raw]]);
        let stored = raw as i32 as i64;
        let s = t2.column("v").unwrap().stats.unwrap();
        assert_eq!((s.min, s.max), (stored.min(1), stored.max(2)));
        let merged = t2.to_vector();
        let col = merged.column(&KeyPath::new("v")).unwrap();
        assert_eq!(col.buffer().as_i32().unwrap()[2] as i64, stored);
        // Bool columns collapse to truthiness: stats stay within {0, 1}.
        let mut tb = Table::new("tb");
        tb.add_column(TableColumn::from_buffer("b", Buffer::Bool(vec![false])));
        tb.append_rows(&[vec![7]]);
        let sb = tb.column("b").unwrap().stats.unwrap();
        assert_eq!((sb.min, sb.max), (0, 1));
    }

    #[test]
    fn segment_fast_path_serves_appends_beyond_log() {
        let mut cat = Catalog::in_memory();
        let mut t = Table::new("t");
        t.add_column(TableColumn::from_buffer(
            "v",
            Buffer::I64((0..8192).collect()),
        ));
        cat.insert_table(t);
        let since = cat.table_version("t").unwrap();
        // Push enough appends to trim the log far past `since`; the base
        // is large enough that no compaction folds the segments.
        for i in 0..(MAX_CHANGE_LOG as i64 + 16) {
            cat.append_rows("t", &[vec![i]]);
        }
        assert!(cat.change_floor() > since);
        let d = cat.changes_since("t", since).expect("segments serve this");
        assert_eq!(d.len(), MAX_CHANGE_LOG + 16);
        assert_eq!(d.rows[0], vec![0]);
        assert!(d.weights.iter().all(|&w| w == 1));
        // After compaction the resident segments are gone and the trimmed
        // log can no longer answer: full recompute.
        assert!(cat.compact_table("t"));
        assert_eq!(cat.changes_since("t", since), None);
    }

    #[test]
    fn automatic_compaction_bounds_pending_tail() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[0]);
        for i in 0..4096i64 {
            cat.append_rows("t", &[vec![i]]);
        }
        let t = cat.table("t").unwrap();
        assert_eq!(t.len, 4097);
        // Geometric policy: pending never exceeds max(base, floor).
        assert!(t.pending_rows() < t.base_len().max(1024) + 1);
        assert!(t.segments().len() <= MAX_TABLE_SEGMENTS);
        // The merged view is the full history regardless of folding.
        let v = t.to_vector();
        assert_eq!(v.len(), 4097);
        assert_eq!(
            v.column(&KeyPath::new("val"))
                .unwrap()
                .buffer()
                .as_i64()
                .unwrap()[4096],
            4095
        );
    }

    #[test]
    fn change_log_captures_row_deltas() {
        let mut cat = Catalog::in_memory();
        let mut t = Table::new("t");
        t.add_column(TableColumn::from_buffer("k", Buffer::I64(vec![0, 1])));
        t.add_column(TableColumn::from_buffer("v", Buffer::I64(vec![5, 6])));
        cat.insert_table(t);
        let v0 = cat.table_version("t").unwrap();
        // Nothing changed yet: empty delta.
        assert_eq!(cat.changes_since("t", v0), Some(RowDelta::default()));
        // Append, update, delete — all row-captured and merged in order.
        assert!(cat.append_rows("t", &[vec![2, 7]]));
        assert!(cat.update_rows("t", &[(0, vec![0, 50])]));
        assert!(cat.delete_rows("t", &[1]));
        let d = cat.changes_since("t", v0).unwrap();
        assert_eq!(
            d.rows,
            vec![
                vec![2, 7],  // appended
                vec![0, 5],  // update: old image retracted
                vec![0, 50], // update: new image inserted
                vec![1, 6],  // deleted
            ]
        );
        assert_eq!(d.weights, vec![1, -1, 1, -1]);
        assert_eq!(cat.table("t").unwrap().len, 2);
        // A rewrite (table_mut) in range forces full recompute.
        cat.table_mut("t").unwrap();
        assert_eq!(cat.changes_since("t", v0), None);
        // …but reads from after the rewrite are row-level again.
        let v1 = cat.table_version("t").unwrap();
        assert!(cat.append_rows("t", &[vec![9, 9]]));
        assert_eq!(cat.changes_since("t", v1).unwrap().rows, vec![vec![9, 9]]);
        // Unknown tables: None from changes_since, false from mutators.
        assert_eq!(cat.changes_since("nope", 0), None);
        assert!(!cat.append_rows("nope", &[]));
    }

    #[test]
    fn change_log_trims_to_floor() {
        let mut cat = Catalog::in_memory();
        let mut t = Table::new("t");
        t.add_column(TableColumn::from_buffer("v", Buffer::I64(vec![0])));
        cat.insert_table(t);
        let v0 = cat.table_version("t").unwrap();
        for i in 0..(MAX_CHANGE_LOG as i64 + 8) {
            cat.append_rows("t", &[vec![i]]);
        }
        assert!(cat.change_floor() > 0);
        // The earliest reader fell behind the floor: row capture refused.
        assert_eq!(cat.changes_since("t", v0), None);
        // A reader within the window still gets exact deltas.
        let recent = cat.table_version("t").unwrap() - 4;
        assert_eq!(cat.changes_since("t", recent).unwrap().len(), 4);
    }

    #[test]
    fn float_tables_capture_as_rewrite() {
        let mut cat = Catalog::in_memory();
        cat.put_f32_column("f", &[1.5]);
        let v0 = cat.table_version("f").unwrap();
        assert!(!cat.table("f").unwrap().rows_capturable());
        assert!(cat.append_rows("f", &[vec![2]]));
        assert_eq!(cat.changes_since("f", v0), None);
        assert_eq!(cat.table("f").unwrap().len, 2);
    }

    #[test]
    fn pinned_insert_keeps_fingerprint_stable() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("base", &[1, 2, 3]);
        let mut d = Table::new("delta");
        d.add_column(TableColumn::from_buffer("v", Buffer::I64(vec![7, 8])));
        cat.insert_table_pinned(d, 2);
        assert_eq!(cat.table_version("delta"), Some(2));
        let fp = cat.table_state(["delta"]);
        // Re-staging a same-shape delta reproduces the fingerprint.
        let mut d2 = Table::new("delta");
        d2.add_column(TableColumn::from_buffer("v", Buffer::I64(vec![9, 1])));
        cat.insert_table_pinned(d2, 2);
        assert_eq!(cat.table_state(["delta"]), fp);
    }

    #[test]
    fn foreign_keys_recorded() {
        let mut t = Table::new("lineitem");
        t.add_column(TableColumn::from_buffer("l_orderkey", Buffer::I64(vec![1])));
        t.add_foreign_key("l_orderkey", "orders", "o_orderkey");
        assert_eq!(
            t.foreign_keys.get("l_orderkey"),
            Some(&("orders".to_string(), "o_orderkey".to_string()))
        );
    }
}
