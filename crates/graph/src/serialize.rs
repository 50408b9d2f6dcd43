//! Compact text rendering of MI-digraphs.
//!
//! The format is write-only: a minimal, human-readable line format for
//! golden files and for pasting networks into bug reports. The one reader
//! of a digraph is the checked `serde::Deserialize` of [`MiDigraph`], which
//! rejects inconsistent input with a typed error.
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
    fn text_lists_the_header_and_one_line_per_parent() {
        let expected = "mi-digraph v1 stages=3 width=4\n\
                        0 0 -> 0 2\n0 1 -> 0 2\n0 2 -> 1 3\n0 3 -> 1 3\n\
                        1 0 -> 0 1\n1 1 -> 0 1\n1 2 -> 2 3\n1 3 -> 2 3\n";
        assert_eq!(to_text(&baseline8()), expected);
        assert_eq!(
            to_text(&MiDigraph::new(2, 3)),
            "mi-digraph v1 stages=2 width=3\n"
        );
    }

    #[test]
    fn serde_json_round_trip() {
        let g = baseline8();
        let json = serde_json::to_string(&g).unwrap();
        let back: MiDigraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
