//! Small table-formatting helpers shared by the experiments.

use std::fmt::Write as _;

/// Render an ASCII table with a title, header and rows.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ", w = w);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Format a float with the given decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format a rate as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Time a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}
