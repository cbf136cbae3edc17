//! Minimal JSON emission for `--json` (machine-readable findings for the
//! CI artifact). Hand-rolled because the workspace builds offline; the
//! output shape is stable and documented here:
//!
//! ```json
//! {
//!   "findings": [
//!     {"rule": "...", "file": "...", "line": 1, "message": "...", "status": "failing"}
//!   ],
//!   "summary": {"failing": 1, "suppressed": 0}
//! }
//! ```

use crate::rules::Finding;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"status\": \"failing\"}}",
        escape(f.rule),
        escape(&f.file),
        f.line,
        escape(&f.message),
    )
}

/// Renders the full report document.
pub fn report(failing: &[Finding], suppressed: usize) -> String {
    let rows: Vec<String> = failing.iter().map(finding_json).collect();
    format!(
        "{{\n  \"findings\": [\n{}\n  ],\n  \"summary\": {{\"failing\": {}, \"suppressed\": {}}}\n}}\n",
        rows.join(",\n"),
        failing.len(),
        suppressed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_shapes() {
        let f = Finding {
            rule: "panic-free",
            file: "a\"b.rs".into(),
            line: 3,
            message: "line1\nline2".into(),
        };
        let doc = report(std::slice::from_ref(&f), 2);
        assert!(doc.contains("\\\"b.rs"));
        assert!(doc.contains("line1\\nline2"));
        assert!(doc.contains("\"failing\": 1"));
        assert!(doc.contains("\"suppressed\": 2"));
    }
}
