//! Constructors for the vendored `serde_json::Value` tree, which has
//! no `From` impls of its own.

use serde_json::{Map, Number, Value};

pub fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

pub fn int(x: u64) -> Value {
    Value::Number(Number::PosInt(u128::from(x)))
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<Map>(),
    )
}

/// `v[path[0]][path[1]]…`, or `Null` where a step is missing.
pub fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, key| {
        v.as_object()
            .and_then(|m| m.get(*key))
            .unwrap_or(&Value::Null)
    })
}
