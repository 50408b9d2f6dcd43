//! Agrawal's buddy property.
//!
//! The paper's introduction recalls that Agrawal \[8\] proposed to
//! characterize the class of Baseline-equivalent networks by "Buddy
//! Properties", and that \[10\] showed the characterization to be
//! insufficient. We implement the property so the insufficiency can be
//! demonstrated experimentally (experiment E10): networks exist that are
//! Banyan and satisfy the buddy property in both directions yet are *not*
//! Baseline-equivalent.
//!
//! **Definition used here** (the standard formulation of Agrawal's property
//! for 2×2 cells): *the two children of any cell have exactly the same set of
//! parents* — equivalently, the two cells of stage `i+1` reached from a cell
//! of stage `i` are also both reached from exactly one other common cell of
//! stage `i`. The paper's own Lemma 2 uses the same notion: "two nodes `y`
//! and `y'` are buddy if they have the same father".
//!
//! Both checks read a network's connection tables and the parents of each
//! cell, found in one pass over a connection; the reverse check runs on the
//! reverse network without building it.

use crate::network::ConnectionNetwork;
use min_labels::Label;

/// Outcome of a buddy-property check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuddyReport {
    /// `true` when the property holds at every stage.
    pub holds: bool,
    /// First violation found, as `(stage, node)` of the offending parent.
    pub violation: Option<(usize, u32)>,
}

/// Checks the buddy property on the network: the children of every cell are
/// two distinct cells with the same two parents.
pub fn buddy_property(net: &ConnectionNetwork) -> BuddyReport {
    first_violation(net.connections().iter().map(|conn| {
        let arcs = conn.in_arcs();
        (0..conn.cells() as Label).position(|x| {
            let [a, b] = conn.children(x).map(|y| arcs[y as usize].parents());
            a.is_none() || a != b || conn.f(x) == conn.g(x)
        })
    }))
}

/// Checks the buddy property on the reverse network (`G⁻¹`): the parents of
/// every cell are two distinct cells with the same two children. Stage `s`
/// of `G⁻¹` is the target stage of connection `stages - 2 - s`.
pub fn reverse_buddy_property(net: &ConnectionNetwork) -> BuddyReport {
    first_violation(net.connections().iter().rev().map(|conn| {
        let children = |x: Label| {
            let [a, b] = conn.children(x);
            (a.min(b), a.max(b))
        };
        let arcs = conn.in_arcs();
        arcs.iter().position(|a| match a.parents() {
            Some([p, q]) => p == q || children(p.into()) != children(q.into()),
            None => true,
        })
    }))
}

/// The report of the first stage with a violating cell; later stages are
/// not checked.
fn first_violation(stages: impl Iterator<Item = Option<usize>>) -> BuddyReport {
    let violation = stages
        .enumerate()
        .find_map(|(s, cell)| Some((s, cell? as u32)));
    BuddyReport {
        holds: violation.is_none(),
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_iso::baseline_digraph;
    use crate::connection::Connection;
    use min_labels::{IndexPermutation, Permutation};

    fn omega(n: usize) -> ConnectionNetwork {
        let sigma = IndexPermutation::perfect_shuffle(n);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        ConnectionNetwork::new(n - 1, vec![conn; n - 1])
    }

    #[test]
    fn classical_networks_satisfy_both_buddy_properties() {
        for n in 2..=6 {
            let b = ConnectionNetwork::from_digraph(&baseline_digraph(n)).unwrap();
            assert!(buddy_property(&b).holds, "baseline forward n={n}");
            assert!(reverse_buddy_property(&b).holds, "baseline reverse n={n}");
            let o = omega(n);
            assert!(buddy_property(&o).holds, "omega forward n={n}");
            assert!(reverse_buddy_property(&o).holds, "omega reverse n={n}");
        }
    }

    #[test]
    fn parallel_links_violate_the_buddy_property() {
        let degenerate = Connection::from_fn(2, |x| x, |x| x);
        let c0 = Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 0b10);
        let net = ConnectionNetwork::new(2, vec![c0, degenerate]);
        let report = buddy_property(&net);
        assert!(!report.holds);
        assert_eq!(
            report.violation.unwrap().0,
            1,
            "violation is in the degenerate stage"
        );
    }

    #[test]
    fn crossed_wiring_without_shared_parents_is_rejected() {
        // Stage where cell x's children are {x, x+1 mod 4}: children's parent
        // sets are shifted, not equal.
        let shifted = Connection::from_fn(2, |x| x, |x| (x + 1) & 0b11);
        let c1 = Connection::from_fn(2, |x| x & 0b10, |x| (x & 0b10) | 1);
        let net = ConnectionNetwork::new(2, vec![shifted, c1]);
        let report = buddy_property(&net);
        assert!(!report.holds);
        assert!(report.violation.is_some());
    }

    #[test]
    fn buddy_violation_reports_a_real_parent() {
        let shifted = Connection::from_fn(2, |x| x, |x| (x + 1) & 0b11);
        let net = ConnectionNetwork::new(2, vec![shifted]);
        let report = buddy_property(&net);
        let (s, v) = report.violation.unwrap();
        assert_eq!(s, 0);
        assert!(v < 4);
    }

    #[test]
    fn forward_and_reverse_buddy_are_computed_on_their_own_graphs() {
        // Sanity check that the two predicates are evaluated on the forward
        // and reversed digraphs respectively and both terminate on a wiring
        // with non-trivial sibling structure.
        let c0 = Connection::from_fn(2, |x| x & 0b10, |x| (x & 0b10) | 1);
        let skew = Connection::from_fn(2, |x| x, |x| x ^ 0b11);
        let net = ConnectionNetwork::new(2, vec![c0, skew]);
        let fwd = buddy_property(&net);
        let rev = reverse_buddy_property(&net);
        // `skew` sends x to {x, x^3}: children x and x^3 have parent sets
        // {x, x^3} — equal, so forward holds; reverse of stage `skew` also
        // pairs the same way. The point of this test is simply that forward
        // and reverse are computed on the right graphs and both terminate.
        assert!(fwd.holds);
        assert!(rev.holds);
    }
}
