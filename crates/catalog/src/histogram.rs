//! Equi-depth histograms.
//!
//! The paper's *histogram creation* manipulation builds one of these on a
//! column so the optimizer produces better selectivity estimates for
//! predicates on that column. Values are mapped to a numeric domain via
//! [`Value::as_numeric`] (strings use an order-preserving surrogate), and
//! the histogram stores bucket boundaries chosen so every bucket holds
//! roughly the same number of rows — which is what makes the estimates
//! robust to the heavy skew the paper's dataset was generated with.

use serde::{Deserialize, Serialize};
use specdb_storage::Value;

/// One equi-depth bucket over the numeric domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Bucket {
    /// Inclusive lower bound.
    lo: f64,
    /// Inclusive upper bound.
    hi: f64,
    /// Rows in the bucket.
    count: u64,
    /// Distinct values observed in the bucket.
    distinct: u64,
}

/// An equi-depth histogram over one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<Bucket>,
    total: u64,
    nulls: u64,
}

impl Histogram {
    /// Default bucket count (matches common DBMS defaults of the era).
    pub const DEFAULT_BUCKETS: usize = 50;

    /// Build from column values with the default bucket count.
    pub fn build(values: &[Value]) -> Self {
        Self::build_with(values, Self::DEFAULT_BUCKETS)
    }

    /// Build from column values with an explicit bucket count.
    pub fn build_with(values: &[Value], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let nulls = values.iter().filter(|v| v.is_null()).count() as u64;
        let mut nums: Vec<f64> =
            values.iter().filter(|v| !v.is_null()).map(Value::as_numeric).collect();
        nums.sort_by(|a, b| a.total_cmp(b));
        let total = nums.len() as u64;
        if nums.is_empty() {
            return Histogram { buckets: Vec::new(), total: 0, nulls };
        }
        let depth = (nums.len() as f64 / buckets as f64).ceil().max(1.0) as usize;
        // Group into runs of equal values, then pack runs into buckets.
        // A run at least as large as the target depth gets a singleton
        // bucket of its own (end-biased/hybrid histogram), which keeps
        // equality estimates accurate on the heavy hitters the paper's
        // skewed dataset is full of.
        let mut out: Vec<Bucket> = Vec::with_capacity(buckets);
        let mut cur: Option<Bucket> = None;
        let mut i = 0;
        while i < nums.len() {
            let mut j = i + 1;
            while j < nums.len() && nums[j] == nums[i] {
                j += 1;
            }
            let run = (j - i) as u64;
            let v = nums[i];
            if run as usize >= depth {
                if let Some(b) = cur.take() {
                    out.push(b);
                }
                out.push(Bucket { lo: v, hi: v, count: run, distinct: 1 });
            } else {
                let b = cur.get_or_insert(Bucket { lo: v, hi: v, count: 0, distinct: 0 });
                b.hi = v;
                b.count += run;
                b.distinct += 1;
                if b.count as usize >= depth {
                    out.push(cur.take().unwrap());
                }
            }
            i = j;
        }
        if let Some(b) = cur.take() {
            out.push(b);
        }
        Histogram { buckets: out, total, nulls }
    }

    /// Total non-null rows the histogram describes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated fraction of rows strictly less than `v`.
    pub fn fraction_lt(&self, v: &Value) -> f64 {
        self.fraction_below(v.as_numeric(), false)
    }

    /// Estimated fraction of rows less than or equal to `v`.
    pub fn fraction_le(&self, v: &Value) -> f64 {
        self.fraction_below(v.as_numeric(), true)
    }

    /// Estimated fraction of rows equal to `v`.
    pub fn fraction_eq(&self, v: &Value) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let x = v.as_numeric();
        for b in &self.buckets {
            if x >= b.lo && x <= b.hi {
                // Uniform-within-bucket over distinct values.
                return (b.count as f64 / b.distinct.max(1) as f64) / self.total as f64;
            }
        }
        0.0
    }

    /// Estimated fraction of rows in the closed range `[lo, hi]`.
    pub fn fraction_between(&self, lo: &Value, hi: &Value) -> f64 {
        (self.fraction_le(hi) - self.fraction_lt(lo)).max(0.0)
    }

    /// Estimated number of distinct values.
    pub fn distinct(&self) -> u64 {
        self.buckets.iter().map(|b| b.distinct).sum()
    }

    fn fraction_below(&self, x: f64, inclusive: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut below = 0.0;
        for b in &self.buckets {
            if x > b.hi || (inclusive && x == b.hi) {
                below += b.count as f64;
            } else if x >= b.lo {
                // Linear interpolation within the bucket.
                let width = (b.hi - b.lo).max(f64::MIN_POSITIVE);
                let mut frac = (x - b.lo) / width;
                if inclusive {
                    frac += 1.0 / b.distinct.max(1) as f64;
                }
                below += b.count as f64 * frac.clamp(0.0, 1.0);
            }
        }
        (below / self.total as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: impl IntoIterator<Item = i64>) -> Vec<Value> {
        vals.into_iter().map(Value::Int).collect()
    }

    #[test]
    fn uniform_range_estimates() {
        let h = Histogram::build(&ints(0..1000));
        assert!((h.fraction_lt(&Value::Int(500)) - 0.5).abs() < 0.05);
        assert!((h.fraction_lt(&Value::Int(100)) - 0.1).abs() < 0.05);
        assert!((h.fraction_between(&Value::Int(200), &Value::Int(400)) - 0.2).abs() < 0.05);
    }

    #[test]
    fn equality_on_uniform_data() {
        let h = Histogram::build(&ints(0..1000));
        let f = h.fraction_eq(&Value::Int(123));
        assert!((f - 0.001).abs() < 0.001, "got {f}");
    }

    #[test]
    fn skewed_heavy_hitter_equality() {
        // 900 copies of 7 plus 100 distinct values: eq(7) should be ~0.9.
        let mut vals = vec![7i64; 900];
        vals.extend(1000..1100);
        let h = Histogram::build(&ints(vals));
        let f = h.fraction_eq(&Value::Int(7));
        assert!(f > 0.5, "heavy hitter underestimated: {f}");
    }

    #[test]
    fn out_of_range_values() {
        let h = Histogram::build(&ints(100..200));
        assert_eq!(h.fraction_lt(&Value::Int(50)), 0.0);
        assert_eq!(h.fraction_le(&Value::Int(500)), 1.0);
        assert_eq!(h.fraction_eq(&Value::Int(5000)), 0.0);
    }

    #[test]
    fn empty_and_null_columns() {
        let h = Histogram::build(&[]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction_lt(&Value::Int(1)), 0.0);
        let h = Histogram::build(&[Value::Null, Value::Null]);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn distinct_estimate_reasonable() {
        let h = Histogram::build(&ints((0..500).map(|i| i % 50)));
        let d = h.distinct();
        assert!((40..=60).contains(&d), "distinct {d}");
    }

    #[test]
    fn string_columns_work() {
        let vals: Vec<Value> = ["alpha", "beta", "gamma", "delta", "epsilon"]
            .iter()
            .map(|&s| s.into())
            .collect();
        let h = Histogram::build(&vals);
        assert_eq!(h.total(), 5);
        assert!(h.fraction_le(&Value::Str("zzz".into())) > 0.99);
    }

    #[test]
    fn bucket_boundaries_do_not_split_equal_values() {
        let mut vals = vec![5i64; 100];
        vals.extend(ints(0..5).iter().map(|v| match v {
            Value::Int(i) => *i,
            _ => unreachable!(),
        }));
        let h = Histogram::build_with(&ints(vals), 10);
        // All 100 fives must land in one bucket: eq(5) ≈ 100/105.
        let f = h.fraction_eq(&Value::Int(5));
        assert!(f > 0.8, "got {f}");
    }
}
