//! Compact text serialization of MI-digraphs.
//!
//! [`MiDigraph`] also implements `serde::{Serialize, Deserialize}` for JSON
//! and friends (rejecting inconsistent input with a `serde::Error`); the
//! format here is a minimal, human-readable line format that is
//! convenient for golden-file tests and for pasting networks into issue
//! reports:
//!
//! ```text
//! mi-digraph v1 stages=3 width=4
//! 0 0 -> 0 2
//! 0 1 -> 0 2
//! …
//! ```
//!
//! Each arc line is `STAGE FROM -> CHILD CHILD …` (children of one node on a
//! single line, omitted when the node has none).

use crate::digraph::MiDigraph;
use std::fmt::Write as _;

/// Error produced when parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where the problem was found.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a digraph to the line format.
pub fn to_text(g: &MiDigraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mi-digraph v1 stages={} width={}",
        g.stages(),
        g.width()
    );
    for s in 0..g.stages().saturating_sub(1) {
        for v in 0..g.width() as u32 {
            let kids = g.children(s, v);
            if kids.is_empty() {
                continue;
            }
            let list = kids
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "{s} {v} -> {list}");
        }
    }
    out
}

/// Parses the line format back into a digraph.
pub fn from_text(text: &str) -> Result<MiDigraph, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ParseError {
        line: 1,
        message: "empty input".into(),
    })?;
    let header_err = |msg: &str| ParseError {
        line: 1,
        message: msg.to_string(),
    };
    let mut stages = None;
    let mut width = None;
    if !header.starts_with("mi-digraph v1") {
        return Err(header_err("missing `mi-digraph v1` header"));
    }
    for token in header.split_whitespace().skip(2) {
        if let Some(v) = token.strip_prefix("stages=") {
            stages = Some(v.parse::<usize>().map_err(|_| header_err("bad stages="))?);
        } else if let Some(v) = token.strip_prefix("width=") {
            width = Some(v.parse::<usize>().map_err(|_| header_err("bad width="))?);
        }
    }
    let stages = stages.ok_or_else(|| header_err("missing stages="))?;
    let width = width.ok_or_else(|| header_err("missing width="))?;
    let mut g = MiDigraph::new(stages, width);
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| ParseError {
            line: line_no,
            message: msg.to_string(),
        };
        let (lhs, rhs) = line.split_once("->").ok_or_else(|| err("missing `->`"))?;
        let mut lhs_iter = lhs.split_whitespace();
        let s: usize = lhs_iter
            .next()
            .ok_or_else(|| err("missing stage"))?
            .parse()
            .map_err(|_| err("bad stage"))?;
        let v: u32 = lhs_iter
            .next()
            .ok_or_else(|| err("missing node"))?
            .parse()
            .map_err(|_| err("bad node"))?;
        if s + 1 >= stages || (v as usize) >= width {
            return Err(err("stage or node out of range"));
        }
        for tok in rhs.split_whitespace() {
            let c: u32 = tok.parse().map_err(|_| err("bad child"))?;
            if (c as usize) >= width {
                return Err(err("child out of range"));
            }
            g.add_arc(s, v, c);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline8() -> MiDigraph {
        let mut g = MiDigraph::new(3, 4);
        for v in 0..4u32 {
            g.add_arc(0, v, v >> 1);
            g.add_arc(0, v, (v >> 1) | 2);
        }
        for v in 0..4u32 {
            let high = v & 2;
            g.add_arc(1, v, high);
            g.add_arc(1, v, high | 1);
        }
        g
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = baseline8();
        let text = to_text(&g);
        let back = from_text(&text).expect("round trip parses");
        assert_eq!(back, g, "arcs come back in their order");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "mi-digraph v1 stages=2 width=2\n\n# comment\n0 0 -> 0 1\n0 1 -> 0 1\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.arc_count(), 4);
    }

    #[test]
    fn header_errors_are_reported() {
        assert!(from_text("").is_err());
        assert!(from_text("garbage").is_err());
        assert!(from_text("mi-digraph v1 width=2").is_err());
        assert!(from_text("mi-digraph v1 stages=2").is_err());
    }

    #[test]
    fn body_errors_carry_line_numbers() {
        let text = "mi-digraph v1 stages=2 width=2\n0 0 -> 9\n";
        let err = from_text(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("out of range"));

        let text = "mi-digraph v1 stages=2 width=2\n1 0 -> 0\n";
        assert!(from_text(text).is_err(), "arcs cannot leave the last stage");
    }

    #[test]
    fn serde_json_round_trip() {
        let g = baseline8();
        let json = serde_json::to_string(&g).unwrap();
        let back: MiDigraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
