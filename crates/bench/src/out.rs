//! Result formatting. One [`Table`] holds a bench's rows under named
//! columns and renders them three ways: an aligned text table for
//! stdout, a CSV and JSON. A [`Report`] gathers fields, tables and
//! sections into the one JSON document a bench writes under `results/`.

use std::path::PathBuf;

/// Directory results are written to (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FD_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).ok();
    p
}

/// Write plain text to `results/<name>`.
pub fn write_text(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let path = results_dir().join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// One cell of a row, or one report field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(u64),
    /// A number in its shortest exact decimal form.
    Float(f64),
    /// A number with a fixed count of decimals (see [`num`]).
    Fixed(f64, usize),
    Str(String),
    Bool(bool),
    List(Vec<Value>),
}

/// `value` printed with `places` decimals.
pub fn num(value: f64, places: usize) -> Value {
    Value::Fixed(value, places)
}

impl Value {
    /// The cell as the text table and the CSV show it.
    fn text(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => v.to_string(),
            Value::Fixed(v, places) => format!("{v:.places$}"),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::List(items) => {
                ["[", &items.iter().map(Value::text).collect::<Vec<_>>().join(", "), "]"].concat()
            }
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Float(v) | Value::Fixed(v, _) => {
                assert!(v.is_finite(), "JSON has no {v}");
                self.text()
            }
            Value::Str(s) => quote(s),
            Value::List(items) => {
                ["[", &items.iter().map(Value::json).collect::<Vec<_>>().join(", "), "]"].concat()
            }
            _ => self.text(),
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(u64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

/// A row of [`Value`]s from expressions of mixed types:
/// `row!["open", num(rps, 1), batched, served]`.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::out::Value::from($cell)),*]
    };
}

/// Rows under named columns.
#[derive(Debug, Clone)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    pub fn new(columns: &[&str]) -> Self {
        Self { columns: columns.iter().map(|c| c.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row, one cell per column in column order.
    pub fn push<V: Into<Value>>(&mut self, row: impl IntoIterator<Item = V>) {
        let row: Vec<Value> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.columns.len(), "one cell per column");
        self.rows.push(row);
    }

    /// The aligned text table: header, a rule, one line per row.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Value::text).collect()).collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, &w)| format!("{c:<w$}")).collect();
            padded.join("  ") + "\n"
        };
        let mut out = line(&self.columns);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&line(row));
        }
        out
    }

    /// The CSV: the header and every row, cells joined by commas (no
    /// quoting — cells hold no commas).
    pub fn csv(&self) -> String {
        let mut out = self.columns.join(",") + "\n";
        for row in &self.rows {
            out.push_str(&row.iter().map(Value::text).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write [`Self::csv`] to `results/<name>`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        write_text(name, &self.csv())
    }

    /// A JSON array with one object per row, one row per line.
    fn json(&self, indent: usize) -> String {
        if self.rows.is_empty() {
            return "[]".into();
        }
        let pad = " ".repeat(indent + 2);
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| quote(c) + ": " + &v.json())
                    .collect();
                [&pad, "{", &fields.join(", "), "}"].concat()
            })
            .collect();
        ["[\n", &rows.join(",\n"), "\n", &" ".repeat(indent), "]"].concat()
    }
}

#[derive(Debug, Clone)]
enum Entry {
    Value(Value),
    Table(Table),
    Section(Report),
}

/// A JSON document: named fields, tables and nested sections, in the
/// order they were added.
#[derive(Debug, Clone, Default)]
pub struct Report {
    entries: Vec<(String, Entry)>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.entries.push((name.to_string(), Entry::Value(value.into())));
        self
    }

    pub fn table(mut self, name: &str, table: Table) -> Self {
        self.entries.push((name.to_string(), Entry::Table(table)));
        self
    }

    pub fn section(mut self, name: &str, section: Report) -> Self {
        self.entries.push((name.to_string(), Entry::Section(section)));
        self
    }

    /// The document, two-space indented.
    pub fn json(&self) -> String {
        self.render(0) + "\n"
    }

    fn render(&self, indent: usize) -> String {
        let pad = " ".repeat(indent + 2);
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|(name, entry)| {
                let value = match entry {
                    Entry::Value(v) => v.json(),
                    Entry::Table(t) => t.json(indent + 2),
                    Entry::Section(s) => s.render(indent + 2),
                };
                [&pad, &quote(name), ": ", &value].concat()
            })
            .collect();
        ["{\n", &entries.join(",\n"), "\n", &" ".repeat(indent), "}"].concat()
    }

    /// Write [`Self::json`] to `results/<name>`.
    pub fn write(&self, name: &str) -> std::io::Result<PathBuf> {
        write_text(name, &self.json())
    }
}

/// Parse a `--flag value` style argument from `std::env::args`.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Check for a boolean `--flag`.
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_set_renders_as_text_csv_and_json() {
        let mut t = Table::new(&["name", "value", "ok"]);
        t.push(row!["a", num(1.0, 1), true]);
        t.push(row!["say \"hi\" \\ bye", num(2.5, 1), 7u64]);

        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[3][col..col + 3], "2.5");

        // The header and each row joined by commas, one per line: the
        // format of every CSV `repro_all` writes.
        assert_eq!(t.csv(), "name,value,ok\na,1.0,true\nsay \"hi\" \\ bye,2.5,7\n");

        let json = Report::new().field("bench", "t").table("rows", t).json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"t\",\n  \"rows\": [\n    \
             {\"name\": \"a\", \"value\": 1.0, \"ok\": true},\n    \
             {\"name\": \"say \\\"hi\\\" \\\\ bye\", \"value\": 2.5, \"ok\": 7}\n  ]\n}\n"
        );
    }

    #[test]
    fn csv_roundtrip() {
        std::env::set_var("FD_RESULTS_DIR", std::env::temp_dir().join("fd_out_test"));
        let mut t = Table::new(&["x", "y"]);
        t.push(["1", "2"]);
        let p = t.write_csv("t.csv").unwrap();
        let text = std::fs::read_to_string(p).unwrap();
        assert_eq!(text, "x,y\n1,2\n");
        std::env::remove_var("FD_RESULTS_DIR");
    }
}
