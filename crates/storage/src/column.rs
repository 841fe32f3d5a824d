//! Columnar page segments.
//!
//! A [`ColumnSegment`] is one heap page transposed into per-column
//! vectors: column `j` of the segment holds the `j`-th value of every
//! live tuple on the page, in slot order. The batch executor scans these
//! instead of row-major `Vec<Tuple>` — a filter touches only the
//! predicate's column, a projection is `Arc` pointer selection, and a
//! hash join gathers keys from the key column alone.
//!
//! Columns are stored plain, as `Vec<Value>` in the page's exact
//! representation, so every executor mode stays identical to the
//! row-at-a-time oracle. Every segment also carries a per-column
//! [`ZoneMap`] (min/max over non-null values plus a null count) that the
//! executor consults before touching column data — a page whose zones
//! exclude a predicate is skipped whole.

use crate::error::{StorageError, StorageResult};
use crate::page::Page;
use crate::tuple::{Tuple, Value};
use std::sync::Arc;

/// One decoded column of a page segment, shared by reference between the
/// segment cache and the batches built over it.
pub type ColumnVec = Arc<Vec<Value>>;

/// Approximate resident bytes of one `Value` in a `Vec<Value>` (enum
/// header; string heap bytes are added separately).
const VALUE_BYTES: usize = std::mem::size_of::<Value>();

/// Per-column min/max/null summary, computed once at page-decode time.
///
/// `min`/`max` are taken over **non-null** values under [`Value`]'s
/// total order — the same order every filter kernel uses — so a page
/// whose zone excludes a predicate provably contains no matching row.
/// `None` bounds mean the column has no non-null values.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value on the page, if any.
    pub min: Option<Value>,
    /// Largest non-null value on the page, if any.
    pub max: Option<Value>,
    /// Number of NULLs on the page.
    pub null_count: u32,
}

impl ZoneMap {
    fn of(vals: &[Value]) -> ZoneMap {
        let mut min: Option<&Value> = None;
        let mut max: Option<&Value> = None;
        let mut null_count = 0u32;
        for v in vals {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            min = Some(match min {
                Some(m) if m.cmp(v).is_le() => m,
                _ => v,
            });
            max = Some(match max {
                Some(m) if m.cmp(v).is_ge() => m,
                _ => v,
            });
        }
        ZoneMap { min: min.cloned(), max: max.cloned(), null_count }
    }
}

fn values_bytes(vals: &[Value]) -> usize {
    let heap: usize = vals
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    vals.len() * VALUE_BYTES + heap
}

/// A heap page decoded into columnar form: `width` columns of `rows`
/// values each, in slot order, with per-column zone maps.
#[derive(Debug, Clone)]
pub struct ColumnSegment {
    cols: Vec<ColumnVec>,
    zones: Arc<Vec<ZoneMap>>,
    rows: usize,
    bytes: usize,
}

impl ColumnSegment {
    /// Transpose a page's live tuples into column vectors, decoding each
    /// tuple once. All tuples on a page share the arity of the first
    /// (heap files are per-table); decoding fails on a page that
    /// violates this.
    pub fn decode_page(page: &Page) -> StorageResult<ColumnSegment> {
        let mut cols: Vec<Vec<Value>> = Vec::new();
        let mut rows = 0usize;
        for (_, bytes) in page.iter() {
            // The first tuple sizes the columns; later ones fill them.
            let arity = Tuple::decode_each(bytes, |col, v| match cols.get_mut(col) {
                Some(c) => c.push(v),
                None if rows == 0 => cols.push(vec![v]),
                None => {}
            })?;
            if arity != cols.len() {
                return Err(StorageError::Corrupt(format!(
                    "page mixes tuple arities ({} vs {})",
                    arity,
                    cols.len()
                )));
            }
            rows += 1;
        }
        let zones: Vec<ZoneMap> = cols.iter().map(|c| ZoneMap::of(c)).collect();
        let bytes = cols.iter().map(|c| values_bytes(c)).sum();
        let cols = cols.into_iter().map(Arc::new).collect();
        Ok(ColumnSegment { cols, zones: Arc::new(zones), rows, bytes })
    }

    /// Number of rows (live tuples of the source page).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Every column, in schema order (shared handles, no copy).
    pub fn cols(&self) -> Vec<ColumnVec> {
        self.cols.clone()
    }

    /// One column.
    pub fn col(&self, idx: usize) -> &ColumnVec {
        &self.cols[idx]
    }

    /// Per-column zone maps, in schema order.
    pub fn zones(&self) -> &[ZoneMap] {
        &self.zones
    }

    /// Shared handle to the zone maps (retained by the segment cache
    /// even after the segment itself is evicted).
    pub fn zones_arc(&self) -> Arc<Vec<ZoneMap>> {
        Arc::clone(&self.zones)
    }

    /// Approximate resident bytes of the columns — the unit the segment
    /// cache budgets by.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.cols[col][row]
    }

    /// Gather one row back into a [`Tuple`] (materialization boundary).
    pub fn tuple(&self, row: usize) -> Tuple {
        Tuple::new(self.cols.iter().map(|c| c[row].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gather every row of `seg` back into row-major tuples.
    fn rows_of(seg: &ColumnSegment) -> Vec<Tuple> {
        (0..seg.rows()).map(|r| seg.tuple(r)).collect()
    }

    fn page_of(tuples: &[Tuple]) -> Page {
        let mut p = Page::new();
        for t in tuples {
            p.insert(&t.encode()).unwrap().expect("fits");
        }
        p
    }

    #[test]
    fn decode_transposes_rows_into_columns() {
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    if i % 2 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
                    Value::Str(format!("r{i}")),
                ])
            })
            .collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!((seg.rows(), seg.width()), (5, 3));
        assert_eq!(seg.col(0).as_slice(), &(0..5).map(Value::Int).collect::<Vec<_>>()[..]);
        assert_eq!(seg.value(2, 1), &Value::Null);
        assert_eq!(seg.tuple(3), tuples[3]);
        assert_eq!(rows_of(&seg), tuples);
    }

    #[test]
    fn empty_page_decodes_empty() {
        let seg = ColumnSegment::decode_page(&Page::new()).unwrap();
        assert_eq!((seg.rows(), seg.width()), (0, 0));
        assert!(rows_of(&seg).is_empty());
    }

    #[test]
    fn mixed_arity_page_is_corrupt() {
        let mut p = Page::new();
        p.insert(&Tuple::new(vec![Value::Int(1)]).encode()).unwrap();
        p.insert(&Tuple::new(vec![Value::Int(1), Value::Int(2)]).encode()).unwrap();
        assert!(ColumnSegment::decode_page(&p).is_err());
    }

    #[test]
    fn cross_type_equal_values_never_conflate() {
        // Int(3) == Float(3.0) under Value::eq; decode must keep the
        // exact variants or it diverges from the row oracle.
        let mut vals = Vec::new();
        for _ in 0..50 {
            vals.push(Value::Int(3));
            vals.push(Value::Float(3.0));
        }
        let tuples: Vec<Tuple> = vals.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!(rows_of(&seg), tuples, "variants must survive decode");
    }

    #[test]
    fn zone_maps_summarize_each_column() {
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(10 + i),
                    if i % 4 == 0 { Value::Null } else { Value::Str(format!("s{i:03}")) },
                ])
            })
            .collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        let z = &seg.zones()[0];
        assert_eq!((z.min.clone(), z.max.clone()), (Some(Value::Int(10)), Some(Value::Int(109))));
        assert_eq!(z.null_count, 0);
        let z = &seg.zones()[1];
        assert_eq!(z.null_count, 25);
        assert_eq!(z.min, Some(Value::Str("s001".into())));
    }

    #[test]
    fn tiny_page_round_trips() {
        let tuples: Vec<Tuple> = (0..8).map(|_| Tuple::new(vec![Value::Int(7)])).collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!(rows_of(&seg), tuples);
        assert_eq!(seg.bytes(), 8 * VALUE_BYTES);
    }
}
