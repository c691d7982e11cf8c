//! The workspace's JSON layout, written and read in one place.
//!
//! Every JSON file the workspace writes — checker reports, explorer and
//! fuzzer summaries, the `BENCH_*.json` result files — has one shape: a
//! top-level object with one field per line, whose values are scalars,
//! one-line arrays and objects, or arrays of one-line flat objects, one
//! object per line. Floats carry a fixed number of decimals chosen per
//! field, so a regenerated file diffs line by line against the recorded
//! one. The workspace is offline and carries no serde_json.
//!
//! The reader is the matching half: [`field`] pulls one value out of a
//! document, a row or a Chrome trace line (which has no space after the
//! colon), and [`rows`] walks an array of one-line objects.

use std::path::Path;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, already formatted: integers via `From`, floats via
    /// [`Json::fixed`].
    Num(String),
    /// A string, escaped when written.
    Str(String),
    /// A one-line array: `[1, 2]`.
    List(Vec<Json>),
    /// A one-line object: `{"a": 1, "b": 2}`.
    Obj(Vec<(&'static str, Json)>),
    /// A top-level array of one-line objects, one per line.
    Rows(Vec<Vec<(&'static str, Json)>>),
}

impl Json {
    /// `x` with exactly `decimals` digits after the point.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}"))
    }

    fn render(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.clone(),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::List(items) => format!("[{}]", join(items.iter().map(Json::render), ", ")),
            Json::Obj(fields) => object(fields),
            Json::Rows(rows) => {
                let rows = rows.iter().map(|r| format!("\n    {}", object(r)));
                format!("[{}\n  ]", join(rows, ","))
            }
        }
    }
}

fn join(items: impl Iterator<Item = String>, sep: &str) -> String {
    items.collect::<Vec<_>>().join(sep)
}

fn object(fields: &[(&'static str, Json)]) -> String {
    let fields = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", v.render()));
    format!("{{{}}}", join(fields, ", "))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x.to_string())
            }
        })*
    };
}
json_int!(u32, u64, usize);

/// Render a whole document: the top-level object, one field per line.
pub fn document(fields: &[(&'static str, Json)]) -> String {
    let fields = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {}", v.render()));
    format!("{{\n{}\n}}\n", join(fields, ",\n"))
}

/// Write `text` to `path`, creating its directory first.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The value of the first `"key":` field in `text` (a document, a row, or
/// a Chrome trace line): a string's contents up to the next quote, or a
/// scalar's literal text. The fields the workspace reads back hold no
/// escaped quotes.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = text[text.find(&pat)? + pat.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The one-line objects of the top-level array `key`, in order.
pub fn rows<'a>(text: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let pat = format!("\"{key}\": [");
    let body = text.find(&pat).map_or("", |i| &text[i + pat.len()..]);
    body.lines()
        .skip(1)
        .map(str::trim)
        .take_while(|l| l.starts_with('{'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_layout_round_trips_through_the_reader() {
        let row = |name: &str, n: Option<u64>| vec![("name", name.into()), ("n", n.into())];
        let doc = document(&[
            (
                "grid",
                Json::Obj(vec![("w", 4u32.into()), ("h", 2u32.into())]),
            ),
            ("ms", Json::fixed(1.0 / 3.0, 3)),
            ("cores", Json::List(vec![0usize.into(), 1usize.into()])),
            ("note", "a\"b\n".into()),
            ("apps", Json::Rows(vec![row("x", None), row("y", Some(7))])),
            ("empty", Json::Rows(vec![])),
            ("ok", true.into()),
        ]);
        assert_eq!(
            doc,
            "{\n  \"grid\": {\"w\": 4, \"h\": 2},\n  \"ms\": 0.333,\n  \"cores\": [0, 1],\n  \
             \"note\": \"a\\\"b\\n\",\n  \"apps\": [\n    {\"name\": \"x\", \"n\": null},\n    \
             {\"name\": \"y\", \"n\": 7}\n  ],\n  \"empty\": [\n  ],\n  \"ok\": true\n}\n"
        );
        assert_eq!(field(&doc, "ms"), Some("0.333"));
        assert_eq!(field(&doc, "ok"), Some("true"));
        assert_eq!(field(&doc, "missing"), None);
        let apps: Vec<&str> = rows(&doc, "apps").collect();
        assert_eq!(apps.len(), 2);
        assert_eq!(
            (field(apps[0], "name"), field(apps[0], "n")),
            (Some("x"), Some("null"))
        );
        assert_eq!(field(apps[1], "n"), Some("7"));
        assert_eq!(rows(&doc, "empty").count(), 0);
    }
}
