//! A minimal TOML-subset parser for campaign configs.
//!
//! The offline build carries no serde/toml dependency, so this is a
//! hand-rolled reader of exactly the grammar the shipped configs use:
//!
//! * `# comment` lines and trailing comments outside strings;
//! * `[table]` headers and `[[array-of-tables]]` headers;
//! * `key = value` pairs with bare keys;
//! * values: `"string"`, integer (with `_` separators), float, boolean,
//!   and flat arrays of those scalars.
//!
//! Nested inline tables, dotted keys, datetimes, and multi-line strings
//! are intentionally out of scope; encountering anything outside the
//! subset is a hard [`TomlError`], never a silent skip — a config typo
//! must not quietly drop an axis from a sweep.

use std::fmt;

/// A scalar or flat-array TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer (underscore separators accepted).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A flat array of scalars.
    Array(Vec<Value>),
}

/// One `[section]` (or `[[section]]` element): its key/value pairs in
/// file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// `key = value` pairs, in file order.
    pub entries: Vec<(String, Value)>,
}

/// A parsed document: named sections in file order. Keys that appear
/// before any header land in a section named `""`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// `(name, is_array_element, table)` triples in file order.
    pub sections: Vec<(String, bool, Table)>,
}

/// A parse failure with the offending line.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// What was expected.
    pub what: &'static str,
    /// 1-based line number.
    pub line_no: usize,
    /// The offending line text.
    pub line: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "toml parse error at line {}: expected {} in {:?}",
            self.line_no, self.what, self.line
        )
    }
}

impl std::error::Error for TomlError {}

impl Table {
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the table carries `key` at all.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// A string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// An integer value (floats are not coerced).
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        match self.get(key) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// A float value (integers coerce).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Float(v)) => Some(*v),
            Some(Value::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// A boolean value.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// An array of strings (a bare string coerces to a one-element
    /// list, so `workload = "spell"` and `workload = ["spell"]` mean
    /// the same axis).
    pub fn get_strs(&self, key: &str) -> Option<Vec<String>> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(vec![s.clone()]),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }

    /// An array of unsigned integers (a bare integer coerces).
    pub fn get_u64s(&self, key: &str) -> Option<Vec<u64>> {
        let as_u64 = |v: &Value| match v {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        };
        match self.get(key) {
            Some(v @ Value::Int(_)) => Some(vec![as_u64(v)?]),
            Some(Value::Array(items)) => items.iter().map(as_u64).collect(),
            _ => None,
        }
    }
}

impl Document {
    /// The single section with this name, if present (first match).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.sections
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, t)| t)
    }

    /// Every `[[name]]` element, in file order.
    pub fn array_tables(&self, name: &str) -> Vec<&Table> {
        self.sections
            .iter()
            .filter(|(n, is_array, _)| n == name && *is_array)
            .map(|(_, _, t)| t)
            .collect()
    }
}

/// Parse a document in the supported subset.
pub fn parse(input: &str) -> Result<Document, TomlError> {
    let mut doc = Document::default();
    let mut current: Option<usize> = None;
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &'static str| TomlError {
            what,
            line_no,
            line: raw.trim().to_owned(),
        };
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest.strip_suffix("]]").ok_or_else(|| err("']]'"))?.trim();
            if name.is_empty() {
                return Err(err("section name"));
            }
            doc.sections.push((name.to_owned(), true, Table::default()));
            current = Some(doc.sections.len() - 1);
        } else if let Some(rest) = line.strip_prefix('[') {
            let name = rest.strip_suffix(']').ok_or_else(|| err("']'"))?.trim();
            if name.is_empty() {
                return Err(err("section name"));
            }
            doc.sections
                .push((name.to_owned(), false, Table::default()));
            current = Some(doc.sections.len() - 1);
        } else {
            let (key, value) = line.split_once('=').ok_or_else(|| err("key = value"))?;
            let key = key.trim();
            if key.is_empty()
                || !key
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(err("bare key"));
            }
            let value = parse_value(value.trim()).ok_or_else(|| err("scalar or array value"))?;
            let section = match current {
                Some(i) => i,
                None => {
                    doc.sections.push((String::new(), false, Table::default()));
                    current = Some(doc.sections.len() - 1);
                    doc.sections.len() - 1
                }
            };
            doc.sections[section]
                .2
                .entries
                .push((key.to_owned(), value));
        }
    }
    Ok(doc)
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Option<Value> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest.strip_suffix(']')?;
        let mut items = Vec::new();
        for part in split_array(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let item = parse_value(part)?;
            if matches!(item, Value::Array(_)) {
                return None; // nested arrays are out of subset
            }
            items.push(item);
        }
        return Some(Value::Array(items));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest.strip_suffix('"')?;
        if inner.contains('"') || inner.contains('\\') {
            return None; // escapes are out of subset
        }
        return Some(Value::Str(inner.to_owned()));
    }
    match text {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    let plain = text.replace('_', "");
    if let Ok(v) = plain.parse::<i64>() {
        return Some(Value::Int(v));
    }
    // Floats must look like floats (digit-dot-digit or exponent), so
    // stray words never parse as numbers.
    if plain.contains('.') || plain.contains('e') || plain.contains('E') {
        if let Ok(v) = plain.parse::<f64>() {
            return Some(Value::Float(v));
        }
    }
    None
}

/// Split an array body on top-level commas (strings may contain commas).
fn split_array(inner: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_scalars() {
        let doc = parse(
            r#"
# top comment
[campaign]
name = "smoke"  # trailing comment
jobs = 4
strict = true

[matrix]
policy = ["clusters", "rate-limit"]
seed = [1, 2, 3]
enclave_size = 192
growth = 10.5
gap = 200_000

[[suite]]
kind = "bench"

[[suite]]
kind = "replay"
"#,
        )
        .expect("parses");
        let campaign = doc.table("campaign").expect("campaign section");
        assert_eq!(campaign.get_str("name"), Some("smoke"));
        assert_eq!(campaign.get_i64("jobs"), Some(4));
        assert_eq!(campaign.get_bool("strict"), Some(true));
        let matrix = doc.table("matrix").expect("matrix section");
        assert_eq!(
            matrix.get_strs("policy"),
            Some(vec!["clusters".to_owned(), "rate-limit".to_owned()])
        );
        assert_eq!(matrix.get_u64s("seed"), Some(vec![1, 2, 3]));
        assert_eq!(matrix.get_u64s("enclave_size"), Some(vec![192]));
        assert_eq!(matrix.get_f64("growth"), Some(10.5));
        assert_eq!(matrix.get_i64("gap"), Some(200_000));
        let suites = doc.array_tables("suite");
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].get_str("kind"), Some("bench"));
        assert_eq!(suites[1].get_str("kind"), Some("replay"));
    }

    #[test]
    fn string_coerces_to_one_element_axis() {
        let doc = parse("[m]\nworkload = \"spell\"\n").expect("parses");
        assert_eq!(
            doc.table("m").unwrap().get_strs("workload"),
            Some(vec!["spell".to_owned()])
        );
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = parse("[m]\nname = \"a # b\"\n").expect("parses");
        assert_eq!(doc.table("m").unwrap().get_str("name"), Some("a # b"));
    }

    #[test]
    fn rejects_out_of_subset_lines() {
        assert!(parse("[m]\nkey\n").is_err(), "bare word");
        assert!(parse("[m\nk = 1\n").is_err(), "unterminated header");
        assert!(parse("[m]\nk = [[1]]\n").is_err(), "nested array");
        assert!(parse("[m]\nk = {a = 1}\n").is_err(), "inline table");
        assert!(parse("[m]\nk = maybe\n").is_err(), "stray word value");
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse("[m]\nok = 1\nbad line\n").unwrap_err();
        assert_eq!(err.line_no, 3);
        assert!(err.to_string().contains("line 3"));
    }
}
