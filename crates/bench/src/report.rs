//! Uniform experiment-report structure: a titled table plus free-form
//! notes and stage-timing histograms, printable as aligned text and
//! dumpable as CSV/JSON.

use std::fmt::Write as _;

use canti_obs::ndjson::escape;
use canti_obs::HistogramSnapshot;

/// One reproduced experiment's results.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id from the DESIGN.md index (e.g. `"F1"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form observations, including the paper-vs-measured verdicts
    /// recorded in EXPERIMENTS.md.
    pub notes: Vec<String>,
    /// Named stage-timing histograms (ns), e.g. bench kernels or the
    /// sensor farm's per-stage telemetry, in insertion order.
    pub timings: Vec<(String, HistogramSnapshot)>,
}

impl ExperimentReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// Appends a named timing histogram (ns).
    pub fn push_timing(&mut self, name: &str, snapshot: HistogramSnapshot) -> &mut Self {
        self.timings.push((name.to_owned(), snapshot));
        self
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count — a
    /// programming error in an experiment module.
    pub fn push_row(&mut self, row: Vec<String>) -> &mut Self {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Renders the report as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let mut header_line = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(header_line, "  {h:>w$}");
        }
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{}", "-".repeat(header_line.len().max(4)));
        for row in &self.rows {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "  {cell:>w$}");
            }
            let _ = writeln!(out);
        }
        for (name, s) in &self.timings {
            let _ = writeln!(
                out,
                "  ~ {name}: n={} p50={} ns p95={} ns p99={} ns max={} ns",
                s.count, s.p50, s.p95, s.p99, s.max
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  * {note}");
        }
        out
    }

    /// Renders the report as a pretty-printed JSON object (hand-rolled —
    /// the offline build has no serde — with strings escaped by
    /// [`canti_obs::ndjson::escape`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn arr(items: &[String]) -> String {
            format!("[{}]", items.join(", "))
        }
        let headers: Vec<String> = self.headers.iter().map(|h| escape(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| arr(&r.iter().map(|c| escape(c)).collect::<Vec<_>>()))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| escape(n)).collect();
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(name, s)| {
                format!(
                    "{{\"name\": {}, \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \
                     \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                    escape(name),
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    s.p50,
                    s.p95,
                    s.p99
                )
            })
            .collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"headers\": {},\n  \"rows\": {},\n  \"notes\": {},\n  \"timings\": {}\n}}",
            escape(&self.id),
            escape(&self.title),
            arr(&headers),
            arr(&rows),
            arr(&notes),
            arr(&timings)
        )
    }

    /// Renders the table as CSV (headers + rows; notes as `#` comments).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a float compactly for a table cell.
#[must_use]
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut r = ExperimentReport::new("F0", "test", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.note("hello");
        let text = r.render();
        assert!(text.contains("== F0"));
        assert!(text.contains("hello"));
        let csv = r.to_csv();
        assert!(csv.contains("a,b"));
        assert!(csv.contains("1,2"));
        assert!(csv.contains("# hello"));
    }

    #[test]
    fn timings_flow_into_render_and_json() {
        let mut r = ExperimentReport::new("F0", "test", &["a"]);
        r.push_row(vec!["1".into()]);
        r.push_timing(
            "solve",
            HistogramSnapshot {
                count: 3,
                sum: 300,
                min: 90,
                max: 120,
                p50: 100,
                p95: 120,
                p99: 120,
            },
        );
        let text = r.render();
        assert!(
            text.contains("~ solve: n=3 p50=100 ns p95=120 ns p99=120 ns max=120 ns"),
            "{text}"
        );
        let json = r.to_json();
        assert!(json.contains("\"timings\""), "{json}");
        assert!(json.contains("\"name\": \"solve\""), "{json}");
        assert!(json.contains("\"p95_ns\": 120"), "{json}");
        assert!(json.contains("\"p99_ns\": 120"), "{json}");
        // reports without timings still produce the (empty) section
        let bare = ExperimentReport::new("F1", "t", &["a"]).to_json();
        assert!(bare.contains("\"timings\": []"), "{bare}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut r = ExperimentReport::new("F0", "test", &["a", "b"]);
        r.push_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.5000");
        assert_eq!(fmt(1.23e-7), "1.230e-7");
        assert_eq!(fmt(2.5e6), "2.500e6");
    }
}
