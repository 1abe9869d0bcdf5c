//! Cache entries: one cached query and its result.

use fp_geometry::{HyperRect, Region};
use fp_skyserver::{ColumnarRows, ResultSet};
use std::sync::Arc;
use std::time::Instant;

/// One cached query result.
///
/// Entries are immutable once stored; replacement bookkeeping
/// (`last_used`) lives in the store. The heavy parts — the result tuples,
/// the columnar form, the key strings — sit behind `Arc`s so the runtime
/// can lift them out of the store's lock window and serve hits without
/// deep copies.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Store-assigned id (stable for the entry's lifetime).
    pub id: u64,
    /// Residual group key: only queries with an equal key may be answered
    /// from this entry (same template, same non-spatial parameters, same
    /// `TOP`). Shared with the store's group and exact maps.
    pub residual_key: Arc<str>,
    /// The query's spatial region.
    pub region: Region,
    /// `region.bounding_rect()`, computed once at insert and reused by
    /// the description index on insert and remove.
    pub bbox: HyperRect,
    /// The cached result tuples.
    pub result: Arc<ResultSet>,
    /// The columnar hot-path form: SoA coordinate columns, spatial
    /// micro-index, and the pre-serialized row slab. `None` when the
    /// entry has no declared coordinate columns or a coordinate cell is
    /// non-numeric (such entries fall back to row-major evaluation).
    pub columnar: Option<Arc<ColumnarRows>>,
    /// Serialized XML size — the unit the paper's cache-size fractions
    /// and the simulation's transfer cost model are defined in.
    pub bytes: usize,
    /// Whether the result may have been clipped by a `TOP` limit. A
    /// truncated entry can serve exact matches but must not answer
    /// subsumed queries: tuples inside the smaller region may have been
    /// among those clipped away.
    pub truncated: bool,
    /// Canonical SQL text that produced the entry (exact-match key).
    pub exact_sql: Arc<str>,
    /// Data-release epoch the entry was fetched under. An epoch bump
    /// retires every entry stamped with a lower value. `0` when the
    /// store has no lifecycle configured.
    pub epoch: u64,
    /// When the entry was inserted, on the store's injectable clock.
    /// `None` when the store is clock-free (lifecycle inactive).
    pub inserted_at: Option<Instant>,
    /// TTL deadline; past it the entry decays through the stale →
    /// grace → dead windows (see [`crate::lifecycle::Freshness`]).
    /// `None` = the entry never expires.
    pub expires_at: Option<Instant>,
}

/// The one definition of an entry's charged size: its result's XML size
/// plus the columnar form's heap (SoA columns, micro-index, row slab).
pub(crate) fn charged_bytes(bytes: usize, columnar: Option<&ColumnarRows>) -> usize {
    bytes + columnar.map_or(0, ColumnarRows::heap_bytes)
}

impl CacheEntry {
    /// Bytes charged against the cache capacity: the XML size plus the
    /// columnar form's heap (the store charges through the same function).
    pub fn footprint(&self) -> usize {
        charged_bytes(self.bytes, self.columnar.as_deref())
    }

    /// Indexes of the coordinate columns inside the result, in region
    /// dimension order.
    ///
    /// Returns `None` when any column is missing — which registration
    /// prevents, so callers treat `None` as "not locally evaluable".
    pub fn coord_indexes(&self, coord_columns: &[String]) -> Option<Vec<usize>> {
        coord_columns
            .iter()
            .map(|c| self.result.column_index(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_sqlmini::Value;

    #[test]
    fn coord_indexes_resolve_in_order() {
        let region = Region::Rect(HyperRect::new(vec![0.0], vec![1.0]).unwrap());
        let entry = CacheEntry {
            id: 1,
            residual_key: "k".into(),
            bbox: region.bounding_rect(),
            region,
            result: Arc::new(ResultSet {
                columns: vec!["objID".into(), "cz".into(), "cx".into(), "cy".into()],
                rows: vec![vec![
                    Value::Int(1),
                    Value::Float(3.0),
                    Value::Float(1.0),
                    Value::Float(2.0),
                ]],
            }),
            columnar: None,
            bytes: 10,
            truncated: false,
            exact_sql: "SELECT".into(),
            epoch: 0,
            inserted_at: None,
            expires_at: None,
        };
        assert_eq!(
            entry.coord_indexes(&["cx".into(), "cy".into(), "cz".into()]),
            Some(vec![2, 3, 1])
        );
        assert_eq!(entry.coord_indexes(&["missing".into()]), None);
        assert_eq!(entry.footprint(), 10);
    }
}
