//! The result formats: a small JSON value with a writer and a parser (the
//! workspace builds offline, without serde), the contract's result line,
//! and `BENCH_e21.json`.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so files diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Writes the value; `indent` is the nesting depth when pretty-printing.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        // The text after an opening bracket, between items, and before the
        // closing bracket.
        let breaks = || match indent {
            Some(depth) => (
                format!("\n{}", "  ".repeat(depth + 1)),
                format!(",\n{}", "  ".repeat(depth + 1)),
                format!("\n{}", "  ".repeat(depth)),
            ),
            None => (String::new(), ", ".to_owned(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // Non-finite numbers have no JSON spelling.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                let (open, sep, close) = breaks();
                out.push('[');
                out.push_str(&open);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&sep);
                    }
                    item.write(out, indent.map(|d| d + 1));
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                let (open, sep, close) = breaks();
                out.push('{');
                out.push_str(&open);
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&sep);
                    }
                    out.push_str(&json_string(k));
                    out.push_str(": ");
                    v.write(out, indent.map(|d| d + 1));
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }

    /// One line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at).ok_or("unexpected end of input")? {
            b'{' => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Json::Int(n));
                }
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
        }
    }
}

/// One metric reading.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One reading per listed `(name, unit)`, in the list's order. A metric
/// the benchmark's table names but the pass did not measure is a bug.
pub fn readings<'a>(
    metrics: impl Iterator<Item = (&'a str, &'a str)>,
    value: impl Fn(&str) -> Option<f64>,
) -> Vec<Reading> {
    metrics
        .map(|(name, unit)| Reading {
            name: name.to_owned(),
            value: value(name).unwrap_or_else(|| panic!("metric {name} was not measured")),
            unit: unit.to_owned(),
        })
        .collect()
}

/// What one contract run reports on its last line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reading>,
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", readings_json(self)),
        ])
    }

    /// Reads a result line back, as `run` and `repeat` do with a child's
    /// last line of output.
    pub fn from_line(line: &str) -> Result<RunResult, String> {
        let json = Json::parse(line)?;
        let field = |k: &str| {
            json.get(k)
                .ok_or_else(|| format!("result line lacks `{k}`"))
        };
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("`metrics` is not an object".to_owned());
        };
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("`attempted` is not whole")?,
            failed: field("failed")?.as_u64().ok_or("`failed` is not whole")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Ok(Reading {
                        name: name.clone(),
                        value: m
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("metric {name} has no value"))?,
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("metric {name} has no unit"))?
                            .to_owned(),
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Both passes of one workload, as `run` collected them.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    pub workload: String,
    pub end_to_end: RunResult,
    pub per_layer: RunResult,
    pub trace_file: String,
}

fn readings_json(result: &RunResult) -> Json {
    Json::Obj(
        result
            .metrics
            .iter()
            .map(|m| {
                let reading = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), reading)
            })
            .collect(),
    )
}

/// The `BENCH_e21.json` document.
pub fn bench_json(seed: u64, seconds: u64, trace_seconds: u64, reports: &[WorkloadReport]) -> Json {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("bench", Json::Str("e21_layers".to_owned())),
        ("seed", Json::Int(seed)),
        ("window_seconds", Json::Int(seconds)),
        ("trace_seconds", Json::Int(trace_seconds)),
        ("available_parallelism", Json::Int(threads)),
        (
            "workloads",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::Str(r.workload.clone())),
                            (
                                "correct",
                                Json::Bool(r.end_to_end.correct && r.per_layer.correct),
                            ),
                            ("attempted", Json::Int(r.end_to_end.attempted)),
                            (
                                "failed",
                                Json::Int(r.end_to_end.failed + r.per_layer.failed),
                            ),
                            ("end_to_end", readings_json(&r.end_to_end)),
                            ("per_layer", readings_json(&r.per_layer)),
                            ("trace", Json::Str(r.trace_file.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Reading {
                    name: "read_p50_us".to_owned(),
                    value: 5120.25,
                    unit: "us".to_owned(),
                },
                Reading {
                    name: "setup_s".to_owned(),
                    value: 0.8127,
                    unit: "s".to_owned(),
                },
            ],
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_round_trips() {
        let line = result().to_json().compact();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"read_p50_us\": {\"value\": 5120.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_line(&line).unwrap(), result());
        assert!(RunResult::from_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let nasty = "a \"quoted\" \\ line\nwith\ttabs and \u{1} control";
        let doc = Json::obj([("k", Json::Str(nasty.to_owned())), ("n", Json::Null)]);
        for text in [doc.compact(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert_eq!(
            Json::parse("[-1.5e3, 7]").unwrap(),
            Json::Arr(vec![Json::Num(-1500.0), Json::Int(7)])
        );
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn bench_document_lists_every_workload_with_both_passes() {
        let report = WorkloadReport {
            workload: "point_read".to_owned(),
            end_to_end: result(),
            per_layer: RunResult {
                failed: 2,
                ..result()
            },
            trace_file: "trace_point_read.json".to_owned(),
        };
        let text = bench_json(7, 12, 5, &[report]).pretty();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("e21_layers"));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads in {text}");
        };
        let w = &workloads[0];
        assert_eq!(w.get("workload").and_then(Json::as_str), Some("point_read"));
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(2));
        let p50 = w
            .get("end_to_end")
            .and_then(|m| m.get("read_p50_us"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(5120.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));
        assert!(w.get("per_layer").and_then(|m| m.get("setup_s")).is_some());
        assert_eq!(
            w.get("trace").and_then(Json::as_str),
            Some("trace_point_read.json")
        );
    }
}
