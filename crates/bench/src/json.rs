//! A JSON value and its writer — the one serializer behind every
//! `BENCH_*.json` report (the `serde` shim derives nothing).

/// A JSON value. Objects keep insertion order so reports diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number renders as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact count.
    Int(u64),
    /// A float in its shortest round-trip form.
    Num(f64),
    /// A float rounded to a fixed number of decimals.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// The value as text without string quotes — a CSV field.
    pub fn plain(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            Json::Null => String::new(),
            other => other.render(),
        }
    }

    /// Renders the value. Containers holding only scalars stay on one
    /// line (a report row reads as a row); anything deeper is indented.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) | Json::Fixed(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => out.push_str(&x.to_string()),
            Json::Fixed(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_members(out, depth, '[', ']', items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, '{', '}', members)
            }
        }
    }
}

/// Writes an array's items or an object's `key: value` members.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    out.push(open);
    let inline = members.clone().all(|(_, value)| value.is_scalar());
    for (i, (key, value)) in members.enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        if inline {
            out.push_str(if i > 0 { " " } else { "" });
        } else {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !inline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

macro_rules! json_from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}
json_from!(
    u64 => |v| Json::Int(v),
    usize => |v| Json::Int(v as u64),
    u32 => |v| Json::Int(v as u64),
    f64 => |v| Json::Num(v),
    bool => |v| Json::Bool(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a \"quoted\" \\ path\nnext\ttab\u{1}");
        assert_eq!(s.render(), r#""a \"quoted\" \\ path\nnext\ttab\u0001""#);
        // Keys go through the same escaping.
        let o = Json::obj([("k\"", Json::Int(1))]);
        assert_eq!(o.render(), r#"{"k\"": 1}"#);
        // Non-ASCII passes through: JSON text is UTF-8.
        assert_eq!(Json::from("π×2").render(), "\"π×2\"");
    }

    #[test]
    fn scalars_render_as_json_literals() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42usize).render(), "42");
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::from(6.5).render(), "6.5");
        assert_eq!(Json::from(13.0).render(), "13");
        assert_eq!(Json::Fixed(0.1234567, 6).render(), "0.123457");
        assert_eq!(Json::Fixed(2.0, 2).render(), "2.00");
        assert_eq!(Json::from(None::<u64>).render(), "null");
        assert_eq!(Json::from(Some(0.25)).render(), "0.25");
    }

    #[test]
    fn non_finite_floats_become_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).render(), "null");
            assert_eq!(Json::Fixed(x, 3).render(), "null");
        }
        assert_eq!(
            Json::obj([("fit", Json::Num(f64::NAN))]).render(),
            "{\"fit\": null}"
        );
    }

    #[test]
    fn nesting_inlines_rows_and_indents_containers() {
        let row = |level: &str, n: u64| Json::obj([("level", level.into()), ("stages", n.into())]);
        let doc = Json::obj([
            ("experiment", Json::from("demo")),
            ("empty", Json::Arr(vec![])),
            (
                "datasets",
                Json::Arr(vec![Json::obj([
                    ("dataset", Json::from("tiny")),
                    ("levels", Json::Arr(vec![row("none", 5), row("pre", 2)])),
                ])]),
            ),
        ]);
        let expect = r#"{
  "experiment": "demo",
  "empty": [],
  "datasets": [
    {
      "dataset": "tiny",
      "levels": [
        {"level": "none", "stages": 5},
        {"level": "pre", "stages": 2}
      ]
    }
  ]
}"#;
        assert_eq!(doc.render(), expect);
    }

    #[test]
    fn plain_text_drops_quotes_only() {
        assert_eq!(Json::from("1.2 MB").plain(), "1.2 MB");
        assert_eq!(Json::Fixed(1.25, 1).plain(), "1.2");
        assert_eq!(Json::Null.plain(), "");
        assert_eq!(Json::from(vec![1u64, 2]).plain(), "[1, 2]");
    }
}
