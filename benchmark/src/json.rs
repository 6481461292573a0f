//! The benchmark's own JSON writer (result line, Chrome trace, goldens) and
//! the one reader it needs: pulling a number out of a flat golden file.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN/inf; a non-finite measurement is a bug
            // upstream, surfaced as null rather than as invalid output.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("write to String"),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape_into(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The number stored under `"key":` in a flat JSON text, if any.
pub fn find_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every string stored under `"name":` in `text`, in order of appearance.
#[cfg(test)]
pub fn find_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + 6..];
        let Some(open) = rest.find('"') else { break };
        let Some(len) = rest[open + 1..].find('"') else {
            break;
        };
        names.push(rest[open + 1..open + 1 + len].to_string());
        rest = &rest[open + 1 + len..];
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\te\u{1}f".into());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    }

    #[test]
    fn renders_nested_values() {
        let j = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(18446744073709551615)),
            ("x", Json::Num(1.5)),
            ("bad", Json::Num(f64::NAN)),
            ("list", Json::Arr(vec![Json::Int(1), Json::Str("s".into())])),
        ]);
        assert_eq!(
            j.render(),
            "{\"ok\": true, \"n\": 18446744073709551615, \"x\": 1.5, \"bad\": null, \"list\": [1, \"s\"]}"
        );
    }

    #[test]
    fn floats_keep_all_digits() {
        let x = 5.812345678901234_f64;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn reads_numbers_and_names_back() {
        let text = "{\"end_time_ps\": 123456, \"x\": -1.5e3,\n \"name\": \"a\", \"b\": {\"name\" : \"c.d\"}}";
        assert_eq!(find_number(text, "end_time_ps"), Some(123456.0));
        assert_eq!(find_number(text, "x"), Some(-1500.0));
        assert_eq!(find_number(text, "missing"), None);
        assert_eq!(find_names(text), vec!["a".to_string(), "c.d".to_string()]);
    }
}
