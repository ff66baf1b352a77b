//! A JSON writer that keeps object keys in insertion order (the
//! `serde_json` shim sorts them, which would scramble `BENCHMARK.json`).
//! Reading goes through the shim's parser.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Int(i64),
    /// Printed with Rust's shortest round-trip formatting, so a measured
    /// value keeps every digit it has. Non-finite values print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl AsRef<str>) -> J {
        J::Str(s.as_ref().to_string())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn strs<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> J {
        J::Arr(items.into_iter().map(J::str).collect())
    }

    /// One line, no spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, one key or element per line, trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(n) => write!(out, "{n}").expect("write to string"),
            J::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to string"),
            J::Num(_) => out.push_str("null"),
            J::Str(s) => escape(out, s),
            J::Arr(items) if items.is_empty() => out.push_str("[]"),
            J::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            J::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty.
                let flat = items.iter().all(|i| !matches!(i, J::Arr(_) | J::Obj(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat {
                    newline(out, depth);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    escape(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_key_order_and_all_digits() {
        let doc = J::obj([
            ("zeta", J::Num(1.2034567890123)),
            ("alpha", J::Int(-3)),
            ("list", J::Arr(vec![J::Num(1.0), J::Num(0.5)])),
            ("nested", J::Arr(vec![J::obj([("k", J::str("a\"b\n"))])])),
            ("nan", J::Num(f64::NAN)),
            ("empty", J::Arr(vec![])),
        ]);
        let compact = doc.compact();
        assert_eq!(
            compact,
            r#"{"zeta":1.2034567890123,"alpha":-3,"list":[1,0.5],"nested":[{"k":"a\"b\n"}],"nan":null,"empty":[]}"#
        );
        let pretty = doc.pretty();
        assert!(pretty.starts_with(
            "{\n  \"zeta\": 1.2034567890123,\n  \"alpha\": -3,\n  \"list\": [1, 0.5],"
        ));
        assert!(pretty.ends_with("}\n"));
        // Both forms parse back to the same document.
        let a = serde_json::from_str(&compact).expect("compact parses");
        let b = serde_json::from_str(&pretty).expect("pretty parses");
        assert_eq!(a, b);
        assert_eq!(a["nested"][0]["k"].as_str(), Some("a\"b\n"));
    }
}
