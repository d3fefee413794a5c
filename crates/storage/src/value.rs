//! Scalar values and data types.
//!
//! A [`Value`] is a dynamically typed cell of a table. SafeBound's statistics
//! builders group, sort, and hash values, so `Value` provides a total order
//! (`NULL` sorts first, numbers compare numerically across `Int`/`Float`,
//! strings compare lexicographically) and a hash that is consistent with
//! equality.
//!
//! A mixed `Int`/`Float` comparison is **exact**: the integer is compared
//! with the float's integral part and then its fraction, never rounded to
//! `f64`. So `Int(2^53 + 1) > Float(2^53)`, unlike PostgreSQL's
//! `int8 = float8`, which widens the integer and calls them equal.
//! `Int(i) == Float(f)` exactly when `Float(f).normalized_int() ==
//! Some(i)`, so `Eq`, `Hash` and every byte encoding built on
//! [`Value::normalized_int`] agree with the exact-count oracle.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string (dictionary encoded in columns).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "TEXT"),
        }
    }
}

/// A single scalar value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL. Never equal to anything under SQL semantics, but for
    /// grouping/sorting purposes we treat NULL = NULL and NULL < everything.
    #[default]
    Null,
    /// Integer value.
    Int(i64),
    /// Float value. NaN is normalized to compare equal to itself and sort
    /// after all other floats.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The data type this value belongs to, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value (ints widen to f64), `None` for
    /// NULL/strings. Used by range predicates and histograms.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, `None` otherwise.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The canonical integer this value equals under the cross-type
    /// numeric comparison of [`Value::cmp`]: `Int(i)` and any finite,
    /// integral `Float` in `i64` range normalize to the same integer
    /// (`Int(2) == Float(2.0)`). **The** shared definition for every
    /// representation that must agree with `Value::eq` — `Hash`, Bloom
    /// byte encodings, and literal fingerprints all branch on this one
    /// helper, so the normalization can never drift between them.
    ///
    /// `Float(-0.0)` does **not** normalize: the total order says
    /// `-0.0 < 0.0`, so it is *unequal* to `Int(0)`/`Float(0.0)` — an
    /// encoding that merged them would let a byte-verified literal cache
    /// serve one query's bound for the other.
    pub fn normalized_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f)
                if f.fract() == 0.0
                    && f.is_finite()
                    && (*f != 0.0 || f.is_sign_positive())
                    && *f >= I64_LOWER
                    && *f < -I64_LOWER =>
            {
                Some(*f as i64)
            }
            _ => None,
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_cmp_f64(*a, *b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            // Numbers sort before strings; the ordering across types only
            // needs to be consistent, queries never compare across types.
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }
}

fn total_cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// `-2^63` (`i64::MIN`, exact in `f64`); `2^63` is its negation, the
/// first float above every `i64`.
const I64_LOWER: f64 = i64::MIN as f64;

/// Exact comparison of an integer with a float. NaN and ±∞ sit where
/// [`f64::total_cmp`] puts them (a NaN with its sign bit set below every
/// number, any other NaN above), and `-0.0` just below `0`, as it sits
/// just below `0.0` among floats.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    let t = f.trunc();
    if t < I64_LOWER {
        return Ordering::Greater; // also -∞
    }
    if t >= -I64_LOWER {
        return Ordering::Less; // also +∞
    }
    // `t` is integral and in `i64` range, so the cast is exact.
    i.cmp(&(t as i64)).then_with(|| {
        let frac = f - t; // exact
        if frac > 0.0 {
            Ordering::Less
        } else if frac < 0.0 || f.is_sign_negative() && f == 0.0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with Ord/Eq: Int(2) == Float(2.0), so values
        // with a normalized integer hash like that integer.
        if let Some(i) = self.normalized_int() {
            1u8.hash(state);
            i.hash(state);
            return;
        }
        match self {
            Value::Null => 0u8.hash(state),
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Int(_) => unreachable!("integers always normalize"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn int_float_hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
    }

    #[test]
    fn negative_zero_stays_distinct() {
        // total_cmp orders -0.0 < 0.0, so -0.0 is NOT equal to Int(0) and
        // must not normalize (byte-exact literal caches rely on this).
        assert!(Value::Float(-0.0) < Value::Float(0.0));
        assert_ne!(Value::Float(-0.0), Value::Int(0));
        assert_eq!(Value::Float(-0.0).normalized_int(), None);
        assert_eq!(Value::Float(0.0).normalized_int(), Some(0));
        assert_eq!(Value::Int(0).normalized_int(), Some(0));
    }

    #[test]
    fn mixed_comparison_is_exact_beyond_2_pow_53() {
        let two53 = 9_007_199_254_740_992i64;
        assert!(Value::Int(two53 + 1) > Value::Float(two53 as f64));
        assert!(Value::Float(two53 as f64) < Value::Int(two53 + 1));
        assert_eq!(Value::Int(two53), Value::Float(two53 as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(-1) < Value::Float(-0.5));
        assert!(Value::Int(0) > Value::Float(-0.5));
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert!(Value::Int(-1) < Value::Float(-0.0));
        assert!(Value::Int(0) < Value::Float(f64::from_bits(1)));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
    }

    #[test]
    fn normalized_int_never_saturates() {
        assert_eq!(
            Value::Float(9_223_372_036_854_775_808.0).normalized_int(),
            None
        );
        assert_eq!(
            Value::Float(i64::MIN as f64).normalized_int(),
            Some(i64::MIN)
        );
        assert_eq!(
            Value::Float(-9_223_372_036_854_777_856.0).normalized_int(),
            None
        );
    }

    #[test]
    fn string_ordering() {
        assert!(Value::from("abc") < Value::from("abd"));
        assert!(Value::Int(999) < Value::from(""));
    }

    #[test]
    fn nan_is_self_equal() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert!(Value::Float(f64::INFINITY) < Value::Float(f64::NAN));
    }

    #[test]
    fn display_roundtrip_shapes() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::from("x").to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(3.5).as_f64(), Some(3.5));
        assert_eq!(Value::from("a").as_f64(), None);
        assert_eq!(Value::from("a").as_str(), Some("a"));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
    }
}
