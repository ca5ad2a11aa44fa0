//! A JSON value, its renderer and its parser.
//!
//! The repo has no JSON dependency (see `bench::report`), and the
//! benchmark needs both directions: cells report to the parent process
//! and `compare` reads result files back. Objects keep insertion order
//! so result files diff cleanly.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    /// Counts in this benchmark stay far below 2^53, so `f64` is exact.
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self, key: &str) -> Option<&[Json]> {
        match self.get(key)? {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numbers of the array under `key` (empty when there is none).
    pub fn num_array(&self, key: &str) -> Vec<f64> {
        self.arr(key)
            .unwrap_or_default()
            .iter()
            .filter_map(|x| match x {
                Json::Num(x) => Some(*x),
                _ => None,
            })
            .collect()
    }

    /// The numeric fields of this object.
    pub fn numbers(&self) -> Vec<(String, f64)> {
        self.fields()
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(x) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect()
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Render with one line per field down to `depth` levels of objects
    /// and everything below inline: result files diff by workload.
    pub fn pretty(&self, depth: usize) -> String {
        fn go(v: &Json, depth: usize, indent: usize, out: &mut String) {
            match v {
                Json::Obj(fields) if depth > 0 && !fields.is_empty() => {
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        out.push_str(&" ".repeat(indent + 2));
                        out.push_str(&format!("{}: ", Json::from(k.as_str())));
                        go(v, depth - 1, indent + 2, out);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&" ".repeat(indent));
                    out.push('}');
                }
                other => out.push_str(&other.to_string()),
            }
        }
        let mut out = String::new();
        go(self, depth, 0, &mut out);
        out.push('\n');
        out
    }

    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest string that round-trips, which is
            // "all its digits" and valid JSON for every finite value.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::from(k.as_str()))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let Some(&c) = self.s.get(self.i) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b'n' if self.eat("null") => Ok(Json::Null),
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(v));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at byte {}", self.i));
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    fields.push((k, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at byte {}", self.i));
                    }
                }
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("unexpected character at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_keeps_order_and_digits() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("events", Json::from(3_052_756u64)),
            ("wall_s", Json::Num(1.2034567891234)),
            ("digest", Json::from("5f2d80d924b039ca")),
            ("note", Json::from("a \"quoted\"\nline\\")),
            ("reps", Json::nums(&[0.1, 2.5e-7])),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        assert!(text.starts_with("{\"correct\": true, \"events\": 3052756, "));
        assert!(text.contains("1.2034567891234"));
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors_and_errors() {
        let v = Json::parse(" {\"a\": [1, -2.5e3, {}], \"b\": \"x\\u0041\"} ").unwrap();
        assert_eq!(v.arr("a").unwrap().len(), 3);
        assert_eq!(v.arr("a").unwrap()[1], Json::Num(-2500.0));
        assert_eq!(v.str("b"), Some("xA"));
        assert_eq!(v.num("b"), None);
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn pretty_breaks_lines_to_a_depth_and_still_parses() {
        let v = Json::parse("{\"a\": {\"b\": {\"c\": 1}, \"d\": [1, 2]}, \"e\": {}}").unwrap();
        let text = v.pretty(2);
        assert_eq!(
            text,
            "{\n  \"a\": {\n    \"b\": {\"c\": 1},\n    \"d\": [1, 2]\n  },\n  \"e\": {}\n}\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
