//! A dependency-free JSON value with **byte-stable** serialization.
//!
//! Export determinism is a contract here: two same-seed runs must produce
//! byte-identical artifacts, so downstream tooling can diff them and CI can
//! assert reproducibility. The rules that guarantee it:
//!
//! - object fields serialize in **insertion order** (and builders insert in
//!   fixed program order), never hash order;
//! - floats use Rust's shortest-roundtrip `Display`, which is
//!   platform-independent; non-finite floats serialize as `null`;
//! - nothing here reads wall-clock time or process state.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized with shortest-roundtrip formatting).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("Json::field on non-object"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array from an iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Compact serialization (no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest-roundtrip, deterministic across platforms.
                    // Always keep a decimal point so the value reads back
                    // as a float.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Pretty serialization with two-space indentation (still byte-stable).
    pub(crate) fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad_in);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Pretty-printed document with a trailing newline (the artifact
    /// format experiments write to disk).
    pub fn to_pretty_string(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s.push('\n');
        s
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip_shapes() {
        let doc = Json::obj()
            .field("name", Json::str("fig7"))
            .field("n", Json::U64(3))
            .field("rate", Json::F64(0.25))
            .field("neg", Json::I64(-7))
            .field("ok", Json::Bool(true))
            .field("items", Json::arr([Json::U64(1), Json::U64(2)]))
            .field("none", Json::Null);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"fig7","n":3,"rate":0.25,"neg":-7,"ok":true,"items":[1,2],"none":null}"#
        );
    }

    #[test]
    fn floats_always_read_back_as_floats() {
        assert_eq!(Json::F64(2.0).to_string(), "2.0");
        assert_eq!(Json::F64(0.1).to_string(), "0.1");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
        // Huge magnitudes print as full decimal expansions (Rust's float
        // Display has no scientific form); the text must still round-trip.
        let s = Json::F64(1e300).to_string();
        assert!(s.contains('.'), "{s}");
        assert_eq!(s.trim_end_matches(".0").parse::<f64>().unwrap(), 1e300);
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn field_order_is_insertion_order() {
        let a = Json::obj()
            .field("z", Json::U64(1))
            .field("a", Json::U64(2));
        assert_eq!(a.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_is_stable_and_newline_terminated() {
        let doc = Json::obj().field("a", Json::arr([Json::U64(1)]));
        let s = doc.to_pretty_string();
        assert!(s.ends_with('\n'));
        assert_eq!(s, "{\n  \"a\": [\n    1\n  ]\n}\n");
    }
}
