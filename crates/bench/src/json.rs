//! The one JSON codec of the bench bins: a value type, a writer with a
//! single layout rule, a parser, and the tolerant structural diff that
//! gates every committed report and golden.
//!
//! * [`Json`] keeps object fields in order and stores each number as its
//!   formatted token (`Json::fixed(2.11, 3)` is the token `2.110`), so
//!   `Json::parse(&v.write()) == v` and re-writing a parsed file
//!   reproduces its bytes.
//! * [`Json::write`] lays a container out on one line when none of its
//!   members is a container; any other container puts each member on its
//!   own line, indented two spaces per level.
//! * [`diff_json`] walks two values. Numbers — bare, or embedded in a
//!   string like `"45.7%"` or `"knee at 3208829 qps"` — compare within a
//!   relative tolerance; everything else, including keys and shapes, must
//!   match exactly.

use std::fmt::Write as _;

/// The diff tolerance of the committed-file gates: it absorbs
/// cross-platform libm jitter in the last formatted digit, while real
/// regressions move numbers far beyond it.
pub const DEFAULT_TOL: f64 = 0.01;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, held as its formatted token.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `x` with `decimals` fraction digits.
    pub fn fixed(x: f64, decimals: usize) -> Self {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of strings.
    pub fn strings(items: &[String]) -> Self {
        Json::Arr(items.iter().map(|s| s.as_str().into()).collect())
    }

    /// The value of `key` when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// The document text, newline-terminated.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(token) => return out.push_str(token),
            Json::Str(s) => return write_string(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        // The layout rule: a container of scalars on one line, any other
        // container one member per line.
        let nested = members.iter().any(|(_, v)| v.is_container());
        let (sep, indent) = if nested { (",", "  ") } else { (", ", "") };
        let (open, close) = match self {
            Json::Arr(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i > 0 { sep } else { "" });
            if nested {
                out.push('\n');
                out.push_str(&indent.repeat(depth + 1));
            }
            if let Some(key) = key {
                write_string(out, key);
                out.push_str(": ");
            }
            value.write_into(out, depth + 1);
        }
        if nested {
            out.push('\n');
            out.push_str(&indent.repeat(depth));
        }
        out.push(close);
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at == p.src.len() {
            Ok(value)
        } else {
            Err(p.error("trailing content"))
        }
    }
}

macro_rules! json_from {
    ($($t:ty => $make:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                $make(v)
            }
        }
    )*};
}

json_from! {
    bool => Json::Bool,
    &str => |s: &str| Json::Str(s.to_string()),
    u32 => |n: u32| Json::Num(n.to_string()),
    u64 => |n: u64| Json::Num(n.to_string()),
    usize => |n: usize| Json::Num(n.to_string()),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Consumes `byte` (after whitespace) if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.src.get(self.at) == Some(&byte);
        self.at += usize::from(hit);
        hit
    }

    /// Comma-separated members up to and including `close`.
    fn members<T>(
        &mut self,
        close: u8,
        member: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        while !self.eat(close) {
            if !out.is_empty() && !self.eat(b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
            out.push(member(self)?);
        }
        Ok(out)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.src[self.at..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => {
                let len = rest
                    .iter()
                    .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    .count();
                let token = String::from_utf8_lossy(&rest[..len]).into_owned();
                if token.ends_with('.') || token.parse::<f64>().is_err() {
                    return Err(self.error(&format!("bad number `{token}`")));
                }
                self.at += len;
                Ok(Json::Num(token))
            }
            Some(b'[') => {
                self.at += 1;
                self.members(b']', Self::value).map(Json::Arr)
            }
            Some(b'{') => {
                self.at += 1;
                let field = |p: &mut Self| {
                    p.skip_ws();
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    Ok((key, p.value()?))
                };
                self.members(b'}', field).map(Json::Obj)
            }
            _ => Err(self.error("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.src.get(self.at) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        let mut bytes = Vec::new();
        loop {
            self.at += 1;
            let c = match self.src.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    match self.src.get(self.at) {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        Some(b'u') => {
                            let hex = self.src.get(self.at + 1..self.at + 5).unwrap_or_default();
                            self.at += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(&b) => {
                    bytes.push(b);
                    continue;
                }
            };
            bytes.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
        self.at += 1;
        String::from_utf8(bytes).map_err(|_| self.error("invalid UTF-8 in string"))
    }
}

/// One segment of a string: literal text or an embedded number.
#[derive(Debug, PartialEq)]
enum Seg {
    Text(String),
    Num(f64),
}

/// Splits a string into alternating text and number segments, so numbers
/// embedded anywhere — a bare cell like `"3.21"`, a suffixed one like
/// `"45.7%"`, or a prose note like `"knee at 3208829 qps (util 0.9)"` —
/// can be compared with tolerance while the surrounding text stays exact.
fn segments(s: &str) -> Vec<Seg> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut text = String::new();
    let mut i = 0;
    while i < chars.len() {
        let negative = chars[i] == '-' && chars.get(i + 1).is_some_and(char::is_ascii_digit);
        if chars[i].is_ascii_digit() || negative {
            let start = i;
            if negative {
                i += 1;
            }
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || (chars[i] == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
            let num: String = chars[start..i].iter().collect();
            if !text.is_empty() {
                out.push(Seg::Text(std::mem::take(&mut text)));
            }
            out.push(Seg::Num(num.parse().expect("scanned a valid number")));
        } else {
            text.push(chars[i]);
            i += 1;
        }
    }
    if !text.is_empty() {
        out.push(Seg::Text(text));
    }
    out
}

/// Whether two strings are equivalent under the numeric tolerance:
/// identical text with every embedded number within `tol`.
fn strings_close(a: &str, b: &str, tol: f64) -> bool {
    if a == b {
        return true;
    }
    let (sa, sb) = (segments(a), segments(b));
    sa.len() == sb.len()
        && sa.iter().zip(&sb).all(|(x, y)| match (x, y) {
            (Seg::Num(m), Seg::Num(n)) => numbers_close(*m, *n, tol),
            (x, y) => x == y,
        })
}

/// Relative comparison with an absolute floor: values at or above 1.0
/// compare within `tol` relative; below 1.0 the allowance bottoms out at
/// an absolute `tol`, matching the two-decimal formatting granularity of
/// experiment cells (a cell printed "0.31" only carries ±0.005 of real
/// information, so a pure relative check would flag formatting jitter).
fn numbers_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Mismatches reported before the rest are suppressed.
const MAX_MISMATCHES: usize = 8;

/// Structurally compares a committed document against the current one
/// with numeric tolerance `tol`. Returns the first few mismatches, each
/// naming its field path; empty when equivalent.
pub fn diff_json(committed: &Json, current: &Json, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("(root)", committed, current, tol, &mut out);
    if out.len() > MAX_MISMATCHES {
        out.truncate(MAX_MISMATCHES);
        out.push("  ... further mismatches suppressed".into());
    }
    out
}

fn diff_at(path: &str, a: &Json, b: &Json, tol: f64, out: &mut Vec<String>) {
    if out.len() > MAX_MISMATCHES {
        return;
    }
    let ok = match (a, b) {
        (Json::Num(x), Json::Num(y)) => match (x.parse(), y.parse()) {
            (Ok(x), Ok(y)) => numbers_close(x, y, tol),
            _ => x == y,
        },
        (Json::Str(x), Json::Str(y)) => strings_close(x, y, tol),
        (Json::Arr(xs), Json::Arr(ys)) => {
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                diff_at(&format!("{path}[{i}]"), x, y, tol, out);
            }
            xs.len() == ys.len()
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            let same_keys = xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.0 == y.0);
            if same_keys {
                for ((key, x), (_, y)) in xs.iter().zip(ys) {
                    let child = if path == "(root)" {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    diff_at(&child, x, y, tol, out);
                }
            }
            same_keys
        }
        (a, b) => a == b,
    };
    if !ok {
        out.push(format!(
            "  {path}: committed {} vs current {}",
            brief(a),
            brief(b)
        ));
    }
}

/// A one-line rendering of a value for mismatch messages: scalars in
/// full, containers by their size and keys.
fn brief(v: &Json) -> String {
    match v {
        Json::Arr(items) => format!("[{} item(s)]", items.len()),
        Json::Obj(fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            format!("{{{}}}", keys.join(", "))
        }
        scalar => scalar.write().trim_end().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diff(a: &str, b: &str, tol: f64) -> Vec<String> {
        diff_json(&Json::parse(a).unwrap(), &Json::parse(b).unwrap(), tol)
    }

    #[test]
    fn numbers_within_tolerance_pass_and_outside_fail() {
        assert!(diff(r#"{"x": 100.0}"#, r#"{"x": 100.9}"#, 0.01).is_empty());
        let m = diff(r#"{"x": 100.0}"#, r#"{"x": 102.0}"#, 0.01);
        assert_eq!(m, ["  x: committed 100.0 vs current 102.0"]);
        assert!(!diff("[1.0]", "[1.5]", 0.01).is_empty());
    }

    #[test]
    fn small_values_use_an_absolute_floor() {
        // 0.31 vs 0.316 is a 1.9% relative change but within the ±0.01
        // floor.
        assert!(numbers_close(0.31, 0.316, 0.01));
        assert!(!numbers_close(0.31, 0.33, 0.01));
        assert!(diff("[0.31]", "[0.316]", 0.01).is_empty());
        assert!(!diff("[100.0]", "[102.6]", 0.01).is_empty());
    }

    #[test]
    fn zero_tolerance_is_exact_but_ignores_the_token_spelling() {
        assert!(diff("[2.5]", "[2.50]", 0.0).is_empty());
        assert!(!diff("[2.5]", "[2.5000001]", 0.0).is_empty());
    }

    #[test]
    fn embedded_numbers_compare_with_tolerance() {
        assert!(strings_close("45.7%", "45.9%", 0.01));
        assert!(!strings_close("45.7%", "47.0%", 0.01));
        assert!(strings_close(
            "knee at 3208829 qps",
            "knee at 3209000 qps",
            0.01
        ));
        assert!(!strings_close(
            "knee at 3208829 qps",
            "knee at 3208829 QPS",
            0.01
        ));
        assert!(strings_close("-3.2x", "-3.21x", 0.01));
        assert_eq!(
            segments("a-1.5b"),
            vec![Seg::Text("a".into()), Seg::Num(-1.5), Seg::Text("b".into())]
        );
    }

    #[test]
    fn changed_keys_and_shapes_are_mismatches() {
        let m = diff(r#"{"a": 1}"#, r#"{"b": 1}"#, 0.01);
        assert_eq!(m, ["  (root): committed {a} vs current {b}"]);
        let m = diff(r#"{"a": {"b": true}}"#, r#"{"a": {"b": false}}"#, 0.01);
        assert_eq!(m, ["  a.b: committed true vs current false"]);
        assert!(!diff(r#"{"a": [1]}"#, r#"{"a": {"x": 1}}"#, 0.01).is_empty());
        assert!(!diff(r#"{"a": 1}"#, r#"{"a": "1"}"#, 0.01).is_empty());
        assert!(!diff(r#"{"a": null}"#, r#"{"a": 0}"#, 0.01).is_empty());
    }

    #[test]
    fn length_changes_are_mismatches() {
        let m = diff(r#"{"c": [1, 2, 3]}"#, r#"{"c": [1, 2]}"#, 0.01);
        assert_eq!(m, ["  c: committed [3 item(s)] vs current [2 item(s)]"]);
        let m = diff(
            r#"{"c": [{"k": 1}]}"#,
            r#"{"c": [{"k": 9}, {"k": 1}]}"#,
            0.01,
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], "  c[0].k: committed 1 vs current 9");
    }

    #[test]
    fn mismatch_lists_are_capped() {
        let a = Json::Arr((0..20).map(|i| Json::from(i as u64)).collect());
        let b = Json::Arr((0..20).map(|i| Json::from(i as u64 + 100)).collect());
        let m = diff_json(&a, &b, 0.01);
        assert_eq!(m.len(), MAX_MISMATCHES + 1);
        assert!(m.last().unwrap().contains("suppressed"));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote \" backslash \\ newline \n tab \t bell \u{7} é";
        let text = Json::from(s).write();
        assert_eq!(
            text,
            "\"quote \\\" backslash \\\\ newline \\n tab \\u0009 bell \\u0007 é\"\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), Json::from(s));
        assert_eq!(
            Json::parse(r#""\/\b\f\r\u00e9""#).unwrap(),
            Json::from("/\u{8}\u{c}\ré")
        );
    }

    #[test]
    fn layout_puts_flat_containers_on_one_line() {
        let v = Json::obj([
            ("schema", "x/1".into()),
            (
                "shape",
                Json::obj([("a", 1u64.into()), ("b", Json::fixed(1.5, 2))]),
            ),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![Json::strings(&["a".into(), "b".into()]), Json::Null]),
            ),
        ]);
        assert_eq!(
            v.write(),
            "{\n  \"schema\": \"x/1\",\n  \"shape\": {\"a\": 1, \"b\": 1.50},\n  \"empty\": [],\n  \
             \"rows\": [\n    [\"a\", \"b\"],\n    null\n  ]\n}\n"
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "[1] x",
            "\"open",
            "[1.]",
            "[-]",
            "[tru]",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn accessors_read_fields() {
        let v = Json::parse(r#"{"mode": "full", "n": 3, "xs": [1]}"#).unwrap();
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("full"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            v.get("xs").and_then(Json::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }

    /// Every committed report and golden is already in the writer's
    /// layout: parsing and re-writing reproduces its bytes.
    #[test]
    fn committed_files_round_trip_byte_identically() {
        macro_rules! files {
            ($($path:literal),* $(,)?) => {
                [$(($path, include_str!(concat!("../../../", $path)))),*]
            };
        }
        let files = files![
            "BENCH_caching.json",
            "BENCH_fleet.json",
            "BENCH_placement.json",
            "BENCH_resilience.json",
            "BENCH_serving.json",
            "BENCH_throughput.json",
            "BENCH_tiering.json",
            "goldens/fig01_footprint.json",
            "goldens/fig01_roofline_lift.json",
            "goldens/fig04_breakdown.json",
            "goldens/fig05_roofline.json",
            "goldens/fig06_bw_saturation.json",
            "goldens/fig07_locality.json",
            "goldens/fig12_hitrate.json",
            "goldens/fig14_scaling.json",
            "goldens/fig15_opt.json",
            "goldens/fig16_comparison.json",
            "goldens/fig17_fc_colocation.json",
            "goldens/fig18_end2end.json",
            "goldens/fig18_tail_latency.json",
            "goldens/fig19_placement.json",
            "goldens/fig_cache_serving.json",
            "goldens/fig_capacity.json",
            "goldens/fig_fleet.json",
            "goldens/fig_resilience.json",
            "goldens/tab01_config.json",
            "goldens/tab02_overhead.json",
        ];
        for (path, text) in files {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(v.write(), text, "{path} is not in the writer's layout");
        }
    }

    /// Generated values: scalars at the leaves, nested up to `depth`.
    fn value(depth: u32) -> Box<dyn Strategy<Value = Json>> {
        let text = prop::collection::vec(
            prop_oneof![
                Just('a'),
                Just('"'),
                Just('\\'),
                Just('\n'),
                Just('\u{1}'),
                Just('é'),
                Just(' ')
            ],
            0..6,
        )
        .prop_map(|cs| cs.into_iter().collect::<String>());
        let scalar = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<u64>().prop_map(Json::from),
            (-1e6f64..1e6, 0usize..4).prop_map(|(x, d)| Json::fixed(x, d)),
            text.prop_map(Json::Str),
        ];
        if depth == 0 {
            return Box::new(scalar);
        }
        let key = (0u8..5).prop_map(|k| format!("k{k}"));
        Box::new(prop_oneof![
            scalar,
            prop::collection::vec(value(depth - 1), 0..4).prop_map(Json::Arr),
            prop::collection::vec((key, value(depth - 1)), 0..4).prop_map(Json::Obj),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn write_then_parse_is_lossless(v in value(3)) {
            let text = v.write();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert_eq!(&back, &v);
            prop_assert_eq!(back.write(), text);
            prop_assert!(diff_json(&v, &back, 0.0).is_empty());
        }
    }
}
