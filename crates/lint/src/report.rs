//! Findings and their human/machine renderings.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Short rule code (`L1`..`L6`, `L0` for the allow meta-rule).
    pub code: &'static str,
    /// Stable kebab-case rule id (what `lint:allow(...)` names).
    pub id: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what the discipline demands instead.
    pub msg: String,
}

impl Finding {
    /// `path:line: [L2 panic-free-decode] message` — the clickable
    /// human rendering.
    pub fn human(&self) -> String {
        format!("{}:{}: [{} {}] {}", self.file, self.line, self.code, self.id, self.msg)
    }

    /// One self-contained JSON object (the machine-readable report is
    /// one such object per line).
    pub fn json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"msg\":\"{}\"}}",
            esc(self.code),
            esc(self.id),
            esc(&self.file),
            self.line,
            esc(&self.msg)
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_are_stable() {
        let f = Finding {
            code: "L2",
            id: "panic-free-decode",
            file: "crates/store/src/wal.rs".into(),
            line: 7,
            msg: "\"unwrap\" in the fallible decode surface".into(),
        };
        assert_eq!(
            f.human(),
            "crates/store/src/wal.rs:7: [L2 panic-free-decode] \"unwrap\" in the fallible decode surface"
        );
        assert!(f.json().starts_with("{\"code\":\"L2\""));
        assert!(f.json().contains("\\\"unwrap\\\""), "quotes must be escaped: {}", f.json());
    }
}
