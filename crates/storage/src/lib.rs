//! # voodoo-storage — MonetDB-style columnar storage substrate
//!
//! The paper integrates Voodoo into MonetDB, "effectively reduc\[ing\] its
//! role to data loading and query parsing" (§4). This crate is that reduced
//! role: a binary, column-wise catalog with **dictionary encoding for
//! strings** (exactly MonetDB's string storage the paper reuses), per-column
//! **min/max metadata** (which the Voodoo planner "aggressively exploits" to
//! size identity-hashed tables, §5.2) and declared **foreign-key
//! constraints**.
//!
//! Tables are flat collections of named columns; loading a table as a
//! Voodoo [`voodoo_core::StructuredVector`] exposes each column as a
//! `.name` attribute. Physically a table is an immutable base plus
//! `Arc`-shared sealed append [`Segment`]s, so publishing an appended
//! batch to concurrent readers is O(batch), never O(rows resident) —
//! see the [`catalog`] module docs for the write path and compaction
//! rules.
//!
//! [`partition`] adds the morsel layer: a [`Partitioning`] slices a
//! domain into `P` contiguous extents — what the compiled executor fans
//! statements across for intra-statement parallelism (per domain, via
//! [`Partitioning::for_stealing`]). Versioning is per table
//! ([`Catalog::table_version`] / [`Catalog::table_state`]), so mutating
//! one table invalidates only its own plans.

pub mod catalog;
pub mod partition;
pub mod persist;

pub use catalog::{
    Catalog, CatalogSnapshot, ChangeEntry, ColumnStats, RowDelta, Segment, Table, TableChange,
    TableColumn, MAX_CHANGE_LOG, MAX_TABLE_SEGMENTS,
};
pub use partition::{Morsel, Partitioning, DEFAULT_STEAL_GRAIN, MORSEL_ALIGN};
