//! The job-file parser against generated and hostile input: a generated
//! job file gives back exactly the tables it was written from — numbers,
//! bools, strings, number lists and string lists, in `[defaults]` and in
//! every `[[job]]` — and the parser never panics on arbitrary bytes.

use proptest::collection::vec;
use proptest::prelude::*;
use runqueue::spec::{parse, JobFile, Table, Value};

/// Key names: plain, numeric, and ones that look like other syntax.
const KEYS: [&str; 10] = [
    "name", "loads", "mesh", "K9", "a_1", "_", "job", "defaults", "true", "0",
];

/// String fragments: whitespace, comment and separator characters,
/// brackets, unicode — anything but a double quote or a line break.
const PIECES: [&str; 14] = [
    "a", "wh", " ", "\t", "#", "=", ",", "[", "]", "[[job]]", "'", "é", "\\", "@",
];

/// A finite `f64` from arbitrary bits (non-finite bit patterns fold to
/// their integer value), so `PartialEq` round trips are meaningful.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        bits as f64
    }
}

fn string() -> impl Strategy<Value = String> {
    vec(0usize..PIECES.len(), 0..6).prop_map(|ix| ix.iter().map(|&i| PIECES[i]).collect())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(|w| Value::Num(finite(w))),
        any::<bool>().prop_map(Value::Bool),
        string().prop_map(Value::Str),
        vec(any::<u64>(), 0..4).prop_map(|ws| Value::List(ws.into_iter().map(finite).collect())),
        // An empty list reads back as a number list, so string lists
        // carry at least one item.
        vec(string(), 1..4).prop_map(Value::StrList),
    ]
}

fn table() -> impl Strategy<Value = Table> {
    vec((0usize..KEYS.len(), value()), 0..6).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(k, v)| (KEYS[k].to_string(), v))
            .collect()
    })
}

/// Writes `v` in the job-file dialect.
fn write_value(v: &Value) -> String {
    let quote = |s: &String| format!("\"{s}\"");
    match v {
        Value::Num(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => quote(s),
        Value::List(v) => {
            let items: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("[{}]", items.join(", "))
        }
        Value::StrList(v) => {
            let items: Vec<String> = v.iter().map(quote).collect();
            format!("[{}]", items.join(", "))
        }
    }
}

fn write_file(file: &JobFile) -> String {
    let write_table = |out: &mut String, t: &Table| {
        for (k, v) in t {
            out.push_str(&format!("{k} = {}  # comment\n", write_value(v)));
        }
    };
    let mut out = String::from("# generated\n[defaults]\n");
    write_table(&mut out, &file.defaults);
    for job in &file.jobs {
        out.push_str("\n[[job]]\n");
        write_table(&mut out, job);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_job_files_parse_back_to_their_tables(
        defaults in table(),
        jobs in vec(table(), 0..4),
    ) {
        let file = JobFile { defaults, jobs };
        let text = write_file(&file);
        prop_assert_eq!(parse(&text), Ok(file), "{}", text);
    }

    #[test]
    fn parse_never_panics_on_raw_bytes(bytes in vec(any::<u8>(), 0..96)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_near_miss_lines(
        lines in vec((0usize..KEYS.len(), string(), 0u8..6), 0..8),
    ) {
        // Lines built from dialect fragments with one part missing or
        // doubled, so the parser's error paths run, not just its first
        // check.
        let text: Vec<String> = lines
            .iter()
            .map(|(k, s, shape)| match shape {
                0 => format!("{} = \"{s}", KEYS[*k]),
                1 => format!("{} = [\"{s}\", ", KEYS[*k]),
                2 => format!("[{s}"),
                3 => format!("[[{s}]]"),
                4 => format!("= {s}"),
                _ => format!("{} = [{s}]", KEYS[*k]),
            })
            .collect();
        let _ = parse(&text.join("\n"));
    }
}
