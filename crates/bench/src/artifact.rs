//! The one `BENCH_*.json` writer. An [`Artifact`] is a config row plus
//! named tables; a table is a list of rows, and a [`Row`] is an ordered
//! list of `(key, Field)`. A layer bench builds each row once, with the
//! rounding its artifact records, and [`Artifact::show`] prints it
//! through `llamatune_obs::fmt::table` with the keys as column headers,
//! so what a run prints is what its artifact holds. The file always
//! reads
//!
//! ```text
//! {
//!   "config": {…},
//!   "<table>": [
//!     {…},
//!     {…}
//!   ]
//! }
//! ```
//!
//! A layer bench records only at full scale: a `LLAMATUNE_QUICK=1` run
//! prints its tables and records nothing ([`Artifact::record`]). The
//! paper bench writes one artifact per named scale through
//! [`Artifact::write`] (see [`crate::ExpScale::artifact`]).
//! [`crate::gate`] compares two artifacts.

use crate::ExpScale;
use llamatune_obs::fmt;
use llamatune_obs::json::{format_f64, parse, write_f64, write_object, write_str, JsonValue};
use std::path::PathBuf;

/// One artifact value: rows mix labels with numbers. A non-finite number
/// is written as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field<'a> {
    Flag(bool),
    Num(f64),
    Text(&'a str),
}

/// A row's members, in the order the artifact writes them.
pub type Row<'a> = Vec<(&'a str, Field<'a>)>;

fn write_field(out: &mut String, field: Field<'_>) {
    match field {
        Field::Flag(b) => out.push_str(if b { "true" } else { "false" }),
        Field::Num(v) => write_f64(out, v),
        Field::Text(s) => write_str(out, s),
    }
}

/// `rows` as a column-aligned table headed by the first row's keys; each
/// cell is the value as the artifact spells it (text unquoted).
fn table(rows: &[Row<'_>]) -> String {
    let headers: Vec<&str> = rows.first().map_or(vec![], |row| row.iter().map(|m| m.0).collect());
    let cell = |field: &Field<'_>| match *field {
        Field::Text(s) => s.to_string(),
        Field::Num(v) => format_f64(v),
        Field::Flag(b) => b.to_string(),
    };
    let cells: Vec<Vec<String>> =
        rows.iter().map(|row| row.iter().map(|m| cell(&m.1)).collect()).collect();
    fmt::table(&headers, &cells)
}

/// A config row plus named tables, written in one layout.
pub struct Artifact<'a> {
    config: Row<'a>,
    tables: Vec<(&'a str, Vec<Row<'a>>)>,
}

impl<'a> Artifact<'a> {
    pub fn new(config: Row<'a>) -> Self {
        Artifact { config, tables: Vec::new() }
    }

    /// Appends table `name`.
    pub(crate) fn push(&mut self, name: &'a str, rows: Vec<Row<'a>>) {
        self.tables.push((name, rows));
    }

    /// Prints `rows` under `caption`, then appends them as table `name`.
    pub fn show(&mut self, name: &'a str, caption: &str, rows: Vec<Row<'a>>) {
        print!("\n{name}: {caption}\n{}", table(&rows));
        self.push(name, rows);
    }

    /// The artifact's text.
    pub(crate) fn json(&self) -> String {
        let mut out = String::from("{\n  \"config\": ");
        write_object(&mut out, self.config.iter().copied(), write_field);
        for (name, rows) in &self.tables {
            out.push_str(",\n  ");
            write_str(&mut out, name);
            out.push_str(": [");
            for (i, row) in rows.iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                write_object(&mut out, row.iter().copied(), write_field);
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the artifact to `file` at the workspace root and returns the
    /// path.
    pub fn write(&self, file: &str) -> PathBuf {
        let path = at_root(file);
        std::fs::write(&path, self.json()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        path
    }

    /// A layer bench's closing step: writes `file` when the config records
    /// a full-scale run (`"quick": false`); a quick run's artifact would
    /// not be comparable with the committed baseline, so it records
    /// nothing. Says which, and returns the path written.
    pub fn record(&self, file: &str) -> Option<PathBuf> {
        if self.config.contains(&("quick", Field::Flag(true))) {
            println!("\nquick run: recorded nothing (only a full-scale run records {file})");
            return None;
        }
        let path = self.write(file);
        println!("\nrecorded {}", path.display());
        Some(path)
    }
}

/// Whether `LLAMATUNE_QUICK=1` asks for smoke-test scale, read as
/// [`ExpScale::from_env`] reads it.
pub fn quick() -> bool {
    ExpScale::from_env().quick
}

/// The number `row` records under `key`.
pub fn num(row: &Row<'_>, key: &str) -> f64 {
    match row.iter().find(|m| m.0 == key) {
        Some(&(_, Field::Num(v))) => v,
        _ => panic!("no number {key} in the row"),
    }
}

/// `v` to `places` decimals, as an artifact records it.
pub fn round(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// The median of `samples` (the upper one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `file` at the workspace root: two levels above the bench crate's
/// directory, which cargo names when it runs a bench or a test (outside
/// cargo, the current directory).
fn at_root(file: &str) -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../..").join(file),
        None => PathBuf::from(file),
    }
}

/// Parses `file` at the workspace root, where [`Artifact::write`] wrote
/// it; the error names the file.
pub fn read(file: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(at_root(file)).map_err(|e| format!("read {file}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {file}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(value: &JsonValue) -> Field<'_> {
        match value {
            JsonValue::Bool(b) => Field::Flag(*b),
            JsonValue::Num(v) => Field::Num(*v),
            JsonValue::Null => Field::Num(f64::NAN),
            JsonValue::Str(s) => Field::Text(s),
            other => panic!("no field is {other:?}"),
        }
    }

    fn row(value: &JsonValue) -> Row<'_> {
        let JsonValue::Obj(members) = value else { panic!("a row is an object") };
        members.iter().map(|(key, value)| (key.as_str(), field(value))).collect()
    }

    /// The artifact `doc` holds, rebuilt: every member but `config` is a
    /// table.
    fn rebuilt(doc: &JsonValue) -> Artifact<'_> {
        let JsonValue::Obj(members) = doc else { panic!("an artifact is an object") };
        let (config, tables) = members.split_first().expect("a config row");
        assert_eq!(config.0, "config");
        let mut artifact = Artifact::new(row(&config.1));
        for (name, rows) in tables {
            let rows = rows.as_array().expect("a table is an array");
            artifact.push(name, rows.iter().map(row).collect());
        }
        artifact
    }

    #[test]
    fn every_committed_artifact_is_rebuilt_byte_for_byte() {
        let root = at_root("");
        let mut files: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        files.sort();
        assert!(files.len() >= 7, "the seven committed artifacts, found {files:?}");
        for file in files {
            let text = std::fs::read_to_string(root.join(&file)).unwrap();
            let doc = parse(&text).unwrap();
            assert_eq!(rebuilt(&doc).json(), text, "{file}");
        }
    }

    #[test]
    fn a_quick_layer_artifact_records_nothing() {
        let path = std::env::temp_dir().join(format!("BENCH_quick.{}.json", std::process::id()));
        let file = path.to_str().unwrap();
        let rows = vec![vec![("n", Field::Num(3.0)), ("total_us", Field::Num(1.5))]];
        let mut quick =
            Artifact::new(vec![("quick", Field::Flag(true)), ("reps", Field::Num(1.0))]);
        quick.push("t", rows.clone());
        assert_eq!(quick.record(file), None);
        assert!(!path.exists(), "a quick run wrote {file}");

        let mut full =
            Artifact::new(vec![("quick", Field::Flag(false)), ("reps", Field::Num(1.0))]);
        full.push("t", rows);
        assert_eq!(full.record(file), Some(path.clone()));
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            written,
            "{\n  \"config\": {\"quick\":false,\"reps\":1},\n  \"t\": [\n    \
             {\"n\":3,\"total_us\":1.5}\n  ]\n}\n"
        );
    }

    #[test]
    fn a_table_prints_the_keys_over_the_recorded_values() {
        let rows = vec![
            vec![("suite", Field::Text("ycsb_a")), ("eval_us", Field::Num(14226.34))],
            vec![("suite", Field::Text("tpcc")), ("eval_us", Field::Num(f64::NAN))],
        ];
        assert_eq!(table(&rows), "suite    eval_us\nycsb_a  14226.34\ntpcc        null\n");
    }
}
