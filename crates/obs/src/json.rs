//! The workspace's one JSON writer: string escaping plus a single layout.
//!
//! Every JSON document the workspace writes — the registry snapshot
//! (`streach_serve --metrics-json`), the perf-gate report
//! (`BENCH_quick.json`) and `streach_exp --json` tables — is built as a
//! [`Json`] value and rendered by [`Json::render`]: one member or element
//! per line, indented by two spaces per level, `"key": value` separators,
//! empty containers as `{}` / `[]`, and a trailing newline. Strings are
//! escaped by [`escape_into`].

/// A JSON value as the workspace writes it. Numbers are unsigned integers:
/// every counter, gauge and bucket bound is one, and table cells stay
/// strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// An unsigned integer.
    Uint(u64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members are written in the order given.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of strings.
    pub fn strings(items: &[String]) -> Json {
        Json::Array(items.iter().cloned().map(Json::Str).collect())
    }

    /// Renders the value as a document in the module's layout, ending with
    /// a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Uint(v) => out.push_str(&v.to_string()),
            Json::Str(s) => escape_into(out, s),
            Json::Array(items) => {
                write_block(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Object(members) => write_block(
                out,
                depth,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container: `open`, one indented entry per line, `close` at the
/// container's own depth.
fn write_block<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let n = entries.len();
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if n > 0 {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Appends `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// newline, carriage return and tab take their short escapes, other control
/// characters become `\u00XX`, and everything else (non-ASCII included) is
/// written as is.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_escaping() {
        let cells = Json::strings(&["1".into(), "line\nbreak".into(), "back\\slash\u{1}".into()]);
        let table = Json::object([
            ("id", Json::Str("Figure 0".into())),
            ("caption", Json::Str("quo\"te — em".into())),
            ("headers", Json::strings(&["a".into(), "b".into()])),
            ("rows", Json::Array(vec![cells])),
            ("empty", Json::Object(Vec::new())),
            ("count", Json::Uint(7)),
        ]);
        assert_eq!(
            table.render(),
            "{\n  \"id\": \"Figure 0\",\n  \"caption\": \"quo\\\"te — em\",\n  \
             \"headers\": [\n    \"a\",\n    \"b\"\n  ],\n  \
             \"rows\": [\n    [\n      \"1\",\n      \"line\\nbreak\",\n      \
             \"back\\\\slash\\u0001\"\n    ]\n  ],\n  \
             \"empty\": {},\n  \"count\": 7\n}\n"
        );
    }
}
