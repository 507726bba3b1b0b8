//! A `BENCH_*.json` regression artifact: the values a row mixes, where
//! the file goes and how a committed one is read back. [`crate::gate`]
//! compares two of them.

use llamatune_obs::json::{parse, write_f64, write_str, JsonValue};
use std::path::PathBuf;

/// One artifact value: rows mix labels with numbers.
pub enum Field<'a> {
    Flag(bool),
    Num(f64),
    Text(&'a str),
}

/// Appends `field` as JSON (the `value` callback of `json::write_object`).
pub fn write_field(out: &mut String, field: Field<'_>) {
    match field {
        Field::Flag(b) => out.push_str(if b { "true" } else { "false" }),
        Field::Num(v) => write_f64(out, v),
        Field::Text(s) => write_str(out, s),
    }
}

/// `v` to `places` decimals, as an artifact records it.
pub fn round(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// `file` at the workspace root, wherever cargo launched the bench from.
fn at_root(file: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
}

/// Writes `json` to `file` at the workspace root and returns the path.
pub fn record(file: &str, json: &str) -> PathBuf {
    let path = at_root(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    path
}

/// Parses `file` at the workspace root, where [`record`] wrote it; the
/// error names the file.
pub fn read(file: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(at_root(file)).map_err(|e| format!("read {file}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {file}: {e}"))
}
