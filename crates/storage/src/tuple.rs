//! Values, tuples, and their page encoding.
//!
//! The type system is the minimum needed for the paper's TPC-H subset
//! workload: 64-bit integers, 64-bit floats, strings, and null. Values
//! have a total order (used by indexes and selection predicates) in which
//! null sorts first and cross-type comparisons order by type tag, so the
//! order is total even on heterogeneous columns.

use crate::error::{StorageError, StorageResult};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (also used for dates as day numbers).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Variable-length string.
    Str(String),
}

impl Value {
    /// Stable type tag used for encoding and cross-type ordering.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Interpret as f64 for numeric comparisons and histogram bucketing.
    /// Strings hash to a stable numeric surrogate; null maps to -inf.
    pub fn as_numeric(&self) -> f64 {
        match self {
            Value::Null => f64::NEG_INFINITY,
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Str(s) => {
                // Order-preserving-ish surrogate: first eight bytes as a
                // big-endian integer, so lexicographic order is roughly
                // preserved for histogram purposes.
                let mut buf = [0u8; 8];
                for (i, b) in s.bytes().take(8).enumerate() {
                    buf[i] = b;
                }
                u64::from_be_bytes(buf) as f64
            }
        }
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Size of the encoded representation in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints and round floats identically so Int(3) == Float(3.0)
            // hash the same way they compare.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A tuple: an ordered list of values matching some schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Construct from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Consume the tuple, yielding its values in column order.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Concatenate two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Project to the given column indexes.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple { values: cols.iter().map(|&c| self.values[c].clone()).collect() }
    }

    /// Encoded size in bytes (2-byte arity header plus values).
    pub fn encoded_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Encode into a byte buffer suitable for a page slot.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0; self.encoded_len()];
        encode_values(self.values.len(), self.values.iter(), &mut buf);
        buf
    }

    /// Decode from page bytes.
    pub fn decode(buf: &[u8]) -> StorageResult<Tuple> {
        let mut values = Vec::new();
        Tuple::decode_each(buf, |_, v| values.push(v))?;
        Ok(Tuple { values })
    }

    /// Streaming decode: parse an encoded tuple and hand each value to
    /// `f` together with its column index, without materializing a
    /// `Tuple`. Returns the arity. This is how pages are transposed
    /// directly into column vectors (see `specdb_storage::column`).
    pub fn decode_each(buf: &[u8], mut f: impl FnMut(usize, Value)) -> StorageResult<usize> {
        let corrupt = |msg: &str| StorageError::Corrupt(msg.to_string());
        if buf.len() < 2 {
            return Err(corrupt("tuple shorter than header"));
        }
        let arity = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        let mut pos = 2;
        for col in 0..arity {
            let tag = *buf.get(pos).ok_or_else(|| corrupt("truncated value tag"))?;
            pos += 1;
            let value = match tag {
                0 => Value::Null,
                1 => {
                    let bytes: [u8; 8] = buf
                        .get(pos..pos + 8)
                        .ok_or_else(|| corrupt("truncated int"))?
                        .try_into()
                        .unwrap();
                    pos += 8;
                    Value::Int(i64::from_le_bytes(bytes))
                }
                2 => {
                    let bytes: [u8; 8] = buf
                        .get(pos..pos + 8)
                        .ok_or_else(|| corrupt("truncated float"))?
                        .try_into()
                        .unwrap();
                    pos += 8;
                    Value::Float(f64::from_le_bytes(bytes))
                }
                3 => {
                    let len_bytes: [u8; 4] = buf
                        .get(pos..pos + 4)
                        .ok_or_else(|| corrupt("truncated string length"))?
                        .try_into()
                        .unwrap();
                    pos += 4;
                    let len = u32::from_le_bytes(len_bytes) as usize;
                    let raw =
                        buf.get(pos..pos + len).ok_or_else(|| corrupt("truncated string body"))?;
                    pos += len;
                    Value::Str(
                        std::str::from_utf8(raw)
                            .map_err(|_| corrupt("invalid utf8 in string"))?
                            .to_string(),
                    )
                }
                t => return Err(corrupt(&format!("unknown value tag {t}"))),
            };
            f(col, value);
        }
        Ok(arity)
    }
}

/// Encode `arity` values as one tuple into `buf`, which must be exactly
/// their encoded length (2 bytes of arity plus each
/// [`Value::encoded_len`]) — the page format [`Tuple::decode`] reads.
/// Writing in place lets a loader fill a page slot straight from column
/// storage, without building a [`Tuple`] or cloning a value.
pub(crate) fn encode_values<'a>(
    arity: usize,
    values: impl Iterator<Item = &'a Value>,
    buf: &mut [u8],
) {
    let mut pos = 0;
    let mut put = |bytes: &[u8]| {
        buf[pos..pos + bytes.len()].copy_from_slice(bytes);
        pos += bytes.len();
    };
    put(&(arity as u16).to_le_bytes());
    for v in values {
        match v {
            Value::Null => put(&[0]),
            Value::Int(i) => {
                put(&[1]);
                put(&i.to_le_bytes());
            }
            Value::Float(f) => {
                put(&[2]);
                put(&f.to_le_bytes());
            }
            Value::Str(s) => {
                put(&[3]);
                put(&(s.len() as u32).to_le_bytes());
                put(s.as_bytes());
            }
        }
    }
    debug_assert_eq!(pos, buf.len(), "buffer length must equal the encoded length");
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new(vec![Value::Int(42), Value::Float(3.25), Value::Str("acme".into()), Value::Null])
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample();
        let decoded = Tuple::decode(&t.encode()).unwrap();
        assert_eq!(t, decoded);
    }

    #[test]
    fn encoded_len_matches_actual() {
        let t = sample();
        assert_eq!(t.encode().len(), t.encoded_len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = sample().encode();
        for cut in [0, 1, 3, enc.len() - 1] {
            assert!(Tuple::decode(&enc[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn value_ordering_is_total() {
        let vals = vec![
            Value::Null,
            Value::Int(-5),
            Value::Int(3),
            Value::Float(3.5),
            Value::Str("a".into()),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(sorted, vals);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn concat_and_project() {
        let a = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Tuple::new(vec![Value::Str("x".into())]);
        let joined = a.concat(&b);
        assert_eq!(joined.arity(), 3);
        let projected = joined.project(&[2, 0]);
        assert_eq!(projected.values(), &[Value::Str("x".into()), Value::Int(1)]);
    }

    #[test]
    fn as_numeric_preserves_string_prefix_order() {
        let a = Value::Str("apple".into()).as_numeric();
        let b = Value::Str("banana".into()).as_numeric();
        assert!(a < b);
    }

    #[test]
    fn hash_consistent_with_eq_across_types() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }
}
