//! A minimal TOML-subset parser for job files.
//!
//! The workspace is offline and vendors no TOML or JSON crate, so the
//! `runq` CLI reads a deliberately small TOML dialect — flat key/value
//! pairs, a `[defaults]` table, and repeated `[[job]]` tables:
//!
//! ```toml
//! # Two jobs sharing defaults.
//! cores = 4            # top-level keys also land in the defaults
//!
//! [defaults]
//! mesh = 4
//! warmup = 100
//!
//! [[job]]
//! name = "wh"
//! router = "wormhole"
//! loads = [0.1, 0.2]
//!
//! [[job]]
//! name = "specvc"
//! loads = [0.3]
//! seeds = 2
//! ```
//!
//! Values are numbers, `true`/`false`, double-quoted strings, or
//! flat numeric arrays. `#` starts a comment outside quotes. Every
//! `[[job]]` table inherits the defaults; its own keys win.

use std::collections::BTreeMap;
use std::fmt;

/// A job-file value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number (integers parse as exact floats well past any field we
    /// use).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A double-quoted string.
    Str(String),
    /// A flat array of numbers.
    List(Vec<f64>),
    /// A flat array of double-quoted strings.
    StrList(Vec<String>),
}

impl Value {
    /// The value as a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a numeric list.
    #[must_use]
    pub fn as_list(&self) -> Option<&[f64]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string list.
    #[must_use]
    pub fn as_str_list(&self) -> Option<&[String]> {
        match self {
            Value::StrList(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::List(v) => write!(f, "{v:?}"),
            Value::StrList(v) => write!(f, "{v:?}"),
        }
    }
}

/// A flat key → value table.
pub type Table = BTreeMap<String, Value>;

/// A parsed job file: shared defaults plus one table per `[[job]]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobFile {
    /// Top-level and `[defaults]` keys.
    pub defaults: Table,
    /// One table per `[[job]]`, *not* yet merged with the defaults.
    pub jobs: Vec<Table>,
}

impl JobFile {
    /// The jobs with defaults applied (a job's own keys win).
    #[must_use]
    pub fn merged_jobs(&self) -> Vec<Table> {
        self.jobs
            .iter()
            .map(|job| {
                let mut t = self.defaults.clone();
                for (k, v) in job {
                    t.insert(k.clone(), v.clone());
                }
                t
            })
            .collect()
    }
}

/// Parses a job file.
///
/// # Errors
///
/// Returns a message naming the offending line for anything outside the
/// subset.
pub fn parse(text: &str) -> Result<JobFile, String> {
    enum Section {
        Defaults,
        Job,
    }
    let mut file = JobFile::default();
    let mut section = Section::Defaults;
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("job file line {}: {msg}: `{}`", i + 1, raw.trim());
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            if header.trim() != "job" {
                return Err(err("only [[job]] tables are supported"));
            }
            file.jobs.push(Table::new());
            section = Section::Job;
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if header.trim() != "defaults" {
                return Err(err("only the [defaults] table is supported"));
            }
            section = Section::Defaults;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(err("bad key"));
            }
            let value = parse_value(value.trim()).ok_or_else(|| err("bad value"))?;
            let table = match section {
                Section::Defaults => &mut file.defaults,
                Section::Job => file.jobs.last_mut().expect("entered [[job]]"),
            };
            table.insert(key.to_string(), value);
        } else {
            return Err(err("expected `key = value` or a table header"));
        }
    }
    Ok(file)
}

/// Strips a `#` comment, respecting double quotes.
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

fn parse_value(s: &str) -> Option<Value> {
    if s == "true" {
        return Some(Value::Bool(true));
    }
    if s == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        if inner.contains('"') {
            return None;
        }
        return Some(Value::Str(inner.to_string()));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']')?.trim();
        if inner.is_empty() {
            return Some(Value::List(Vec::new()));
        }
        // A leading quote makes it a string list.
        if inner.starts_with('"') {
            return parse_str_list(inner).map(Value::StrList);
        }
        let items: Option<Vec<f64>> = inner
            .split(',')
            .map(|item| item.trim().parse::<f64>().ok())
            .collect();
        return items.map(Value::List);
    }
    s.parse::<f64>().ok().map(Value::Num)
}

/// Parses the inside of a string list, `"a", "b"`: quoted items
/// separated by commas, whitespace allowed around each item. Items are
/// read quote to quote, so they may hold commas, brackets and
/// surrounding whitespace — anything but a double quote.
fn parse_str_list(mut rest: &str) -> Option<Vec<String>> {
    let mut items = Vec::new();
    loop {
        let body = rest.trim_start().strip_prefix('"')?;
        let end = body.find('"')?;
        items.push(body[..end].to_string());
        rest = body[end + 1..].trim_start();
        if rest.is_empty() {
            return Some(items);
        }
        rest = rest.strip_prefix(',')?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a comment
cores = 4

[defaults]
mesh = 4           # trailing comment
warmup = 100
pattern = "uniform"

[[job]]
name = "wh"
router = "wormhole"
loads = [0.1, 0.2]
torus = false

[[job]]
name = "specvc"
loads = [0.3]
seeds = 2
"#;

    #[test]
    fn sample_parses_with_inheritance() {
        let f = parse(SAMPLE).expect("parses");
        assert_eq!(f.defaults["cores"].as_u64(), Some(4));
        assert_eq!(f.jobs.len(), 2);
        let merged = f.merged_jobs();
        assert_eq!(merged[0]["mesh"].as_u64(), Some(4), "default inherited");
        assert_eq!(merged[0]["name"].as_str(), Some("wh"));
        assert_eq!(merged[0]["loads"].as_list(), Some(&[0.1, 0.2][..]));
        assert_eq!(merged[0]["torus"].as_bool(), Some(false));
        assert_eq!(merged[1]["seeds"].as_u64(), Some(2));
        assert_eq!(merged[1]["pattern"].as_str(), Some("uniform"));
    }

    #[test]
    fn job_keys_override_defaults() {
        let f = parse("[defaults]\nmesh = 8\n[[job]]\nmesh = 4\nname = \"x\"\n").unwrap();
        assert_eq!(f.merged_jobs()[0]["mesh"].as_u64(), Some(4));
    }

    #[test]
    fn errors_name_the_line() {
        for (text, what) in [
            ("[weird]\n", "only the [defaults]"),
            ("[[sweep]]\n", "only [[job]]"),
            ("mesh : 4\n", "expected"),
            ("mesh = \n", "bad value"),
            ("loads = [1, oops]\n", "bad value"),
            ("bad key = 1\n", "bad key"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.contains("line 1"), "{err}");
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let f = parse("name = \"a#b\"\n").unwrap();
        assert_eq!(f.defaults["name"].as_str(), Some("a#b"));
    }

    #[test]
    fn string_lists_parse() {
        let f = parse("faults = [\"link:5:0:dead@100\", \"router:3:flaky@40/10\"]\n").unwrap();
        assert_eq!(
            f.defaults["faults"].as_str_list(),
            Some(
                &[
                    "link:5:0:dead@100".to_string(),
                    "router:3:flaky@40/10".to_string()
                ][..]
            )
        );
        // Items may contain commas and `#` without confusing the parser.
        let f = parse("xs = [\"a,b\", \"c#d\"]\n").unwrap();
        assert_eq!(
            f.defaults["xs"].as_str_list(),
            Some(&["a,b".to_string(), "c#d".to_string()][..])
        );
        assert_eq!(f.defaults["xs"].as_list(), None, "not a numeric list");
        // Items are read quote to quote: a leading comma and surrounding
        // whitespace belong to the item.
        let f = parse("xs = [\",a\", \" b \"]\n").unwrap();
        assert_eq!(
            f.defaults["xs"].as_str_list(),
            Some(&[",a".to_string(), " b ".to_string()][..])
        );
        for bad in [
            "xs = [\"a\", 1]\n", // mixed
            "xs = [\"a]\n",      // unterminated string
            "xs = [\"a\"b\"]\n", // stray quote inside an item
        ] {
            assert!(parse(bad).expect_err(bad).contains("bad value"), "{bad}");
        }
    }

    #[test]
    fn value_accessors_reject_wrong_types() {
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Str("x".into()).as_num(), None);
        assert_eq!(Value::Bool(true).as_str(), None);
        assert_eq!(Value::List(vec![]).as_list(), Some(&[][..]));
    }
}
