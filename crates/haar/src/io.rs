//! Plain-text cascade serialization, and the line reader every text
//! format of the workspace parses through.
//!
//! A simple line-oriented format (one token stream per line) keeps the
//! workspace dependency-free while making trained cascades diffable and
//! hand-inspectable:
//!
//! ```text
//! cascade v1
//! name ours-gentle
//! window 24
//! stages 25
//! stage 0 0.125 3
//! stump 0 6 4 6 8 1234 -0.5 0.5
//! ...
//! ```
//!
//! [`LineReader`] reads such "key value…" lines (the stream checkpoint
//! of fd-detector is the other format built on it), and [`ParseError`]
//! is the one error either reports.

use std::fmt::Write as _;
use std::path::Path;
use std::str::FromStr;

use crate::cascade::{Cascade, Stage};
use crate::feature::{FeatureKind, HaarFeature};
use crate::stump::Stump;

/// A text that is not the format, with the 1-based line at fault: one
/// past the last line when the input ends early, 0 when the text parsed
/// but its content failed validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Reads a text as a fixed sequence of "key value…" lines. Blank lines
/// and lines starting with `#` are skipped.
pub struct LineReader<'a> {
    text: &'a str,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

/// One line of a [`LineReader`], its key already matched.
pub struct KeyLine<'a> {
    /// 1-based line number in the text.
    number: usize,
    key: &'a str,
    rest: &'a str,
}

impl<'a> LineReader<'a> {
    pub fn new(text: &'a str) -> Self {
        Self { text, lines: text.lines().enumerate() }
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        self.lines
            .by_ref()
            .map(|(i, l)| (i + 1, l.trim()))
            .find(|(_, l)| !l.is_empty() && !l.starts_with('#'))
    }

    /// The next line, which must start with `key`.
    pub fn expect(&mut self, key: &str) -> Result<KeyLine<'a>, ParseError> {
        let Some((number, line)) = self.next_line() else {
            return Err(ParseError {
                line: self.text.lines().count() + 1,
                message: format!("unexpected end of input (expected `{key}`)"),
            });
        };
        let (found, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        if found != key {
            let message = format!("expected `{key}`, found `{found}`");
            return Err(ParseError { line: number, message });
        }
        Ok(KeyLine { number, key: found, rest: rest.trim_start() })
    }

    /// Succeeds when no line is left.
    pub fn end(mut self) -> Result<(), ParseError> {
        self.next_line().map_or(Ok(()), |(line, _)| {
            Err(ParseError { line, message: "text after the last field".to_string() })
        })
    }
}

impl<'a> KeyLine<'a> {
    /// An error at this line.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.number, message: message.into() }
    }

    /// Everything after the key, without surrounding whitespace.
    pub fn rest(&self) -> &'a str {
        self.rest
    }

    /// The values after the key, which must be exactly `N`.
    pub fn values<const N: usize>(&self) -> Result<[&'a str; N], ParseError> {
        let found = self.rest.split_whitespace().count();
        if found != N {
            return Err(self.error(format!("`{}` needs {N} value(s), found {found}", self.key)));
        }
        let mut values = self.rest.split_whitespace();
        Ok([(); N].map(|_| values.next().unwrap_or_default()))
    }

    /// `tok` parsed as a `T`; `what` names it in the error.
    pub fn parse<T: FromStr>(&self, tok: &str, what: &str) -> Result<T, ParseError> {
        tok.parse().map_err(|_| self.error(format!("bad {what} `{tok}`")))
    }
}

/// Render a cascade to the text format.
pub fn to_text(c: &Cascade) -> String {
    let mut out = String::new();
    out.push_str("cascade v1\n");
    let _ = writeln!(out, "name {}", c.name);
    let _ = writeln!(out, "window {}", c.window);
    let _ = writeln!(out, "stages {}", c.stages.len());
    for (i, st) in c.stages.iter().enumerate() {
        let _ = writeln!(out, "stage {} {} {}", i, st.threshold, st.stumps.len());
        for s in &st.stumps {
            let f = &s.feature;
            let _ = writeln!(
                out,
                "stump {} {} {} {} {} {} {} {}",
                f.kind.id(),
                f.x,
                f.y,
                f.w,
                f.h,
                s.threshold,
                s.left,
                s.right
            );
        }
    }
    out
}

/// Parse the text format back into a cascade.
pub fn from_text(text: &str) -> Result<Cascade, ParseError> {
    let mut lines = LineReader::new(text);
    let head = lines.expect("cascade")?;
    if head.values()? != ["v1"] {
        return Err(head.error("unsupported cascade version"));
    }
    let name = lines.expect("name")?.rest().to_string();
    let l = lines.expect("window")?;
    let window: u32 = l.parse(l.values::<1>()?[0], "window")?;
    let l = lines.expect("stages")?;
    let n_stages: usize = l.parse(l.values::<1>()?[0], "stage count")?;

    let mut cascade = Cascade::new(name, window);
    for k in 0..n_stages {
        let l = lines.expect("stage")?;
        let [idx, threshold, n_stumps] = l.values()?;
        let idx: usize = l.parse(idx, "stage index")?;
        if idx != k {
            return Err(l.error(format!("stage index {idx}, expected {k}")));
        }
        let threshold: f32 = l.parse(threshold, "stage threshold")?;
        if !threshold.is_finite() {
            return Err(l.error("non-finite stage threshold"));
        }
        let n_stumps: usize = l.parse(n_stumps, "stump count")?;
        // The count comes from the text, so it sizes no allocation: an
        // absurd one fails at the first missing line instead.
        let mut stumps = Vec::new();
        for _ in 0..n_stumps {
            let l = lines.expect("stump")?;
            let [kind, x, y, w, h, threshold, left, right] = l.values()?;
            let kind = FeatureKind::from_id(l.parse(kind, "kind")?)
                .ok_or_else(|| l.error("unknown feature kind"))?;
            let [x, y, w, h]: [u8; 4] = [
                l.parse(x, "geometry")?,
                l.parse(y, "geometry")?,
                l.parse(w, "geometry")?,
                l.parse(h, "geometry")?,
            ];
            let threshold: i32 = l.parse(threshold, "threshold")?;
            let left: f32 = l.parse(left, "left leaf")?;
            let right: f32 = l.parse(right, "right leaf")?;
            if !(left.is_finite() && right.is_finite()) {
                return Err(l.error("non-finite leaf value"));
            }
            if w == 0 || h == 0 {
                return Err(l.error("zero-area feature"));
            }
            // Bounds-check the extent *before* constructing the feature:
            // `from_params` lays out rectangles with u8 coordinate
            // arithmetic, which overflows on absurd (but parseable)
            // geometry like x=200 w=200.
            let (fw, fh) = kind.extent_of(w, h);
            if x as u32 + fw > window || y as u32 + fh > window {
                return Err(l.error("feature escapes the window"));
            }
            let feature = HaarFeature::from_params(kind, x, y, w, h);
            if !feature.fits(window) {
                return Err(l.error("feature escapes the window"));
            }
            stumps.push(Stump { feature, threshold, left, right });
        }
        cascade.stages.push(Stage { stumps, threshold });
    }
    lines.end()?;
    // Parsing checked token shapes line by line; the semantic pass rejects
    // whatever a well-formed file can still get wrong (empty cascade,
    // absurd thresholds, unsatisfiable stages) before the cascade can
    // reach any evaluation path.
    cascade
        .validate()
        .map_err(|e| ParseError { line: 0, message: format!("cascade validation: {e}") })?;
    Ok(cascade)
}

/// Save to a file.
pub fn save(c: &Cascade, path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, to_text(c))
}

/// Load from a file.
pub fn load(path: impl AsRef<Path>) -> std::io::Result<Cascade> {
    let text = std::fs::read_to_string(path)?;
    from_text(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cascade() -> Cascade {
        let mut c = Cascade::new("unit test", 24);
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 1000, left: -0.5, right: 0.5 }],
            threshold: 0.25,
        });
        let g = HaarFeature::from_params(FeatureKind::CenterSurround, 3, 3, 4, 4);
        c.stages.push(Stage {
            stumps: vec![
                Stump { feature: g, threshold: -42, left: 0.125, right: -0.125 },
                Stump { feature: f, threshold: 7, left: 1.0, right: -1.0 },
            ],
            threshold: -0.75,
        });
        c
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let c = sample_cascade();
        let back = from_text(&to_text(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn file_roundtrip() {
        let c = sample_cascade();
        let dir = std::env::temp_dir().join("fd_haar_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.cascade");
        save(&c, &path).unwrap();
        assert_eq!(load(&path).unwrap(), c);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# trained cascade\n\n{}", to_text(&sample_cascade()));
        assert!(from_text(&text).is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut text = to_text(&sample_cascade());
        text = text.replace("stump 0 6 4 6 8 1000", "stump 9 6 4 6 8 1000");
        let e = from_text(&text).unwrap_err();
        assert!(e.message.contains("unknown feature kind"));
        assert!(e.line > 0);
    }

    #[test]
    fn rejects_out_of_window_features() {
        let mut text = to_text(&sample_cascade());
        // Move the EdgeH feature so 2w overflows the window.
        text = text.replace("stump 0 6 4 6 8", "stump 0 20 4 6 8");
        assert!(from_text(&text).unwrap_err().message.contains("escapes"));
    }

    #[test]
    fn an_early_end_is_one_past_the_last_line_and_trailing_text_its_own() {
        let text = to_text(&sample_cascade());
        let cut: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        let e = from_text(&cut).unwrap_err();
        assert_eq!(e.line, 6, "{e}");
        assert!(e.message.contains("unexpected end"), "{e}");
        let e = from_text(&format!("{text}\n# note\nstage 2 0.5 0\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (12, "text after the last field"));
    }

    #[test]
    fn key_lines_check_arity_and_keep_the_rest() {
        let mut lines = LineReader::new("  # header\nname two  words \nstage 0 1\n");
        assert_eq!(lines.expect("name").unwrap().rest(), "two  words");
        let stage = lines.expect("stage").unwrap();
        assert_eq!(stage.values::<2>().unwrap(), ["0", "1"]);
        assert_eq!(stage.values::<3>().unwrap_err().line, 3);
        assert_eq!(stage.parse::<u8>("x", "index").unwrap_err().message, "bad index `x`");
        lines.end().unwrap();
    }

    #[test]
    fn rejects_wrong_version() {
        assert!(from_text("cascade v2\nname x\nwindow 24\nstages 0\n").is_err());
    }
}
