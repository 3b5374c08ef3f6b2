//! A minimal JSON writer for the harness's report line.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written exactly.
    Int(u64),
    /// A float, written with every digit Rust's shortest round-trip form
    /// keeps; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object, in insertion order.
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Val {
        Val::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Val); N]) -> Val {
        Val::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Val::Null => out.push_str("null"),
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Int(n) => out.push_str(&n.to_string()),
            Val::Num(x) if x.is_finite() => {
                let s = format!("{x:?}");
                out.push_str(&s);
            }
            Val::Num(_) => out.push_str("null"),
            Val::Str(s) => write_str(s, out),
            Val::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Val::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
    fn renders_compact_json() {
        let v = Val::obj([
            ("a", Val::Int(3)),
            ("b", Val::Num(0.1)),
            ("c", Val::Arr(vec![Val::Bool(true), Val::Null])),
            ("d", Val::str("x\"y\n")),
            ("e", Val::Num(f64::NAN)),
            ("f", Val::Num(2.0)),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"a":3,"b":0.1,"c":[true,null],"d":"x\"y\n","e":null,"f":2.0}"#
        );
    }
}
