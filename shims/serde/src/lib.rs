//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! a compact serialization framework with the same *import surface* the
//! codebase uses (`serde::{Serialize, Deserialize}`, `serde::de::
//! DeserializeOwned`, `#[derive(Serialize, Deserialize)]` with the handful
//! of `#[serde(...)]` attributes present in the tree), but a much simpler
//! data model: values serialize to an owned [`Value`] tree and deserialize
//! from one. `serde_json` (also vendored) renders that tree to JSON text
//! and parses it back.
//!
//! Representation choices mirror real serde's external JSON conventions
//! where the repo depends on them (newtype structs are transparent, unit
//! enum variants are strings, data-carrying variants are single-key
//! objects). Maps with non-string keys serialize as arrays of `[k, v]`
//! pairs — the repo only round-trips those, never hand-writes them.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Mutex;

/// The serialized form: a JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / `None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (exact, full u64 range).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object fields, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrows the string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a field of an object by key.
    pub fn get_field<'a>(&'a self, key: &str) -> Option<&'a Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can serialize themselves into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self`.
    fn to_value(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes from `v`.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Serialization half under its serde path.
pub mod ser {
    pub use crate::Serialize;
}

/// Deserialization half under its serde path.
pub mod de {
    pub use crate::{DeError, Deserialize};

    /// Owned deserialization — with this crate's owned value model, every
    /// `Deserialize` type qualifies.
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: u64 = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    Value::Float(f) if f >= 0.0 && f.fract() == 0.0 => f as u64,
                    ref other => {
                        return Err(DeError::custom(format_args!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format_args!("integer {n} out of range")))
            }
        }
    )*};
}

uint_impl!(u8, u16, u32, u64, usize);

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::UInt(n as u64)
                } else {
                    Value::Int(n)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i64 = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => i64::try_from(n)
                        .map_err(|_| DeError::custom(format_args!("integer {n} out of range")))?,
                    Value::Float(f) if f.fract() == 0.0 => f as i64,
                    ref other => {
                        return Err(DeError::custom(format_args!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format_args!("integer {n} out of range")))
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    /// The `f64` nearest the shortest decimal that reads back as `self`
    /// (`0.1f32` renders as `0.1`, not `0.10000000149011612`), as real
    /// serde_json writes an `f32`.
    fn to_value(&self) -> Value {
        Value::Float(self.to_string().parse().expect("an f32 prints as a number"))
    }
}

// JSON has no NaN or infinity, so a non-finite float renders as `null`;
// reading `null` back as a float gives NaN, so such a document still parses.
macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::Float(f) => Ok(f as $t),
                    Value::Null => Ok(<$t>::NAN),
                    Value::UInt(n) => Ok(n as $t),
                    Value::Int(n) => Ok(n as $t),
                    ref other => Err(DeError::custom(format_args!(
                        "expected number, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

float_impl!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format_args!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::custom("expected string"))
    }
}

/// A `&'static str` (the tracer's reason and rule labels) reads back
/// interned: each distinct text is leaked once per process.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let s = v.as_str().ok_or_else(|| DeError::custom("expected string"))?;
        let mut interned = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&known) = interned.get(s) {
            return Ok(known);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        interned.insert(leaked);
        Ok(leaked)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::custom("expected char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom("expected single-character string")),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            other => Err(DeError::custom(format_args!("expected null, got {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! tuple_impl {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let a = v.as_array().ok_or_else(|| DeError::custom("expected tuple array"))?;
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                if a.len() != LEN {
                    return Err(DeError::custom(format_args!(
                        "expected array of length {LEN}, got {}", a.len()
                    )));
                }
                Ok(($($name::from_value(&a[$idx])?,)+))
            }
        }
    )*};
}

tuple_impl! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Renders map entries the way real serde's JSON convention does: maps whose
/// keys serialize to strings become objects, any other key type becomes an
/// array of `[k, v]` pairs.
fn map_to_value<'a>(entries: impl Iterator<Item = (Value, &'a dyn ErasedSerialize)>) -> Value {
    let pairs: Vec<(Value, Value)> = entries.map(|(k, v)| (k, v.to_value_dyn())).collect();
    if pairs.iter().all(|(k, _)| matches!(k, Value::Str(_))) {
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| match k {
                    Value::Str(s) => (s, v),
                    _ => unreachable!(),
                })
                .collect(),
        )
    } else {
        Value::Array(
            pairs
                .into_iter()
                .map(|(k, v)| Value::Array(vec![k, v]))
                .collect(),
        )
    }
}

/// Object-safe serialization hook for [`map_to_value`].
trait ErasedSerialize {
    fn to_value_dyn(&self) -> Value;
}

impl<T: Serialize> ErasedSerialize for T {
    fn to_value_dyn(&self) -> Value {
        self.to_value()
    }
}

/// Reads map entries from either representation accepted by [`map_to_value`].
fn map_entries<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, DeError> {
    match v {
        Value::Object(o) => o
            .iter()
            .map(|(k, val)| Ok((K::from_value(&Value::Str(k.clone()))?, V::from_value(val)?)))
            .collect(),
        Value::Array(a) => a.iter().map(<(K, V)>::from_value).collect(),
        other => Err(DeError::custom(format_args!(
            "expected map (object or pair array), got {other:?}"
        ))),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter().map(|(k, v)| (k.to_value(), v as &dyn ErasedSerialize)))
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(map_entries::<K, V>(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter().map(|(k, v)| (k.to_value(), v as &dyn ErasedSerialize)))
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(map_entries::<K, V>(v)?.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected set array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn u64_is_exact_beyond_f64() {
        let big = u64::MAX - 1;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn collections_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(3u32, "x".to_string());
        m.insert(9, "y".to_string());
        let back: BTreeMap<u32, String> = Deserialize::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);

        let s: BTreeSet<i32> = [-1, 4].into_iter().collect();
        let back: BTreeSet<i32> = Deserialize::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);

        let t = (1u32, -2i64, 0.5f64);
        let back: (u32, i64, f64) = Deserialize::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn f32_keeps_its_shortest_digits() {
        assert_eq!(0.1f32.to_value(), Value::Float(0.1));
        assert_eq!(f32::from_value(&0.1f32.to_value()).unwrap(), 0.1f32);
    }

    #[test]
    fn null_reads_back_as_nan() {
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        assert!(f32::from_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn static_strs_are_interned() {
        let a = <&'static str>::from_value(&Value::Str("killed".into())).unwrap();
        let b = <&'static str>::from_value(&Value::Str("killed".into())).unwrap();
        assert_eq!(a, "killed");
        assert!(std::ptr::eq(a, b), "one leak per distinct text");
    }

    #[test]
    fn wrong_shape_errors() {
        assert!(u32::from_value(&Value::Str("no".into())).is_err());
        assert!(<(u32, u32)>::from_value(&Value::Array(vec![Value::UInt(1)])).is_err());
        assert!(u8::from_value(&Value::UInt(300)).is_err());
    }
}
