//! Result records: a tiny JSON writer plus the metric and detail sets a
//! workload fills in.

use std::fmt::Write;

#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            // JSON has no NaN or infinity; a metric that cannot be computed
            // is left out rather than written as one.
            Json::Num(v) if v.is_finite() => write!(out, "{v:?}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => write!(out, "{v}").expect("write to String"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and call errors, first few verbatim.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts, counters with their spread, configuration.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// Record a failed call or oracle mismatch.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(u.to_string()))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_result_line() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("ops_s", 12.5, "1/s");
        o.metric("skipped", f64::NAN, "ms");
        assert_eq!(
            o.result_line(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"ops_s": {"value": 12.5, "unit": "1/s"}}}"#
        );
        o.fail("tile mismatch".into());
        assert!(!o.correct());
        assert_eq!(Json::Str("a\"b\n".into()).render(), r#""a\"b\u000a""#);
    }
}
