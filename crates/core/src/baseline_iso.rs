//! Constructive, certified isomorphism onto the Baseline MI-digraph.
//!
//! The Section 2 theorem says that Banyan + `P(1,*)` + `P(*,n)` forces a
//! digraph to be isomorphic to the Baseline MI-digraph; the proof lives in
//! the companion paper \[12\]. For the library we want more than a yes/no
//! answer: we want the explicit node bijection, produced in near-linear time
//! and **verified** before being handed to the caller. The construction used
//! here makes the "easy characterization" executable:
//!
//! * In the Baseline network, the connected component of a stage-`i` node
//!   inside the *suffix* `(G)_{i,n}` determines the `i-1` high-order bits of
//!   its label (the left-recursive construction splits the tail of the
//!   network into nested halves), and the component inside the *prefix*
//!   `(G)_{1,i}` determines the `n-i` low-order bits.
//! * For an arbitrary digraph satisfying the characterization, the nested
//!   suffix components form a binary trie (each component of `(G)_{i,n}`
//!   splits into exactly two components of `(G)_{i+1,n}`), and likewise for
//!   prefixes. Numbering the tries top-down assigns every node a
//!   `(high, low)` pair; the concatenated label is the image of the node
//!   under an isomorphism onto the Baseline — *by construction* the arcs
//!   land correctly, and the final verification makes the certificate
//!   unconditional.
//!
//! Two paths compute that certificate.
//!
//! * [`baseline_isomorphism`] reads any [`MiView`]. It finds the components
//!   with two union-find sweeps, builds both tries over the arcs and
//!   checks for label collisions. It never backtracks. Any failure
//!   (component count off, trie not binary, label collision, verification
//!   mismatch) is reported as a specific [`EquivalenceError`], which doubles
//!   as a non-equivalence diagnosis. It is the general path and the oracle.
//! * [`affine_baseline_isomorphism`] is Theorem 3's construction, for a
//!   network whose every stage is an independent connection
//!   `f(x) = Mx ⊕ t`, `g = f ⊕ c`. There the stage-`j` nodes of one prefix
//!   component are a coset of `P_j = M_{j-1}P_{j-1} + ⟨c_{j-1}⟩`, and those
//!   of one suffix component a coset of `T_i = M_i⁻¹(T_{i+1} + ⟨c_i⟩)`. A
//!   sweep numbers components in order of their smallest node, which is the
//!   order of the reduced coset representatives, and a trie orders two
//!   sibling cosets by the top bit of their difference. So every trie value
//!   is an affine function of the node label and every stage of the
//!   certificate is one affine map ([`AffineCertificate`]), whose table
//!   costs one XOR per node. The result is the sweep's certificate bit for
//!   bit. It is still verified arc by arc. When the network is not proper,
//!   a count is off or the verification fails, it declines and the caller
//!   runs the sweep, which names the violated condition.
//!
//! Everything reads the network through [`MiView`], so a
//! [`crate::ConnectionNetwork`] is certified on its own `f`/`g` tables and
//! no [`MiDigraph`] is built. The other side of the verification is
//! [`BaselineView`], the Baseline's arc formula evaluated on demand;
//! [`baseline_digraph`] only materializes that same view, so the formula
//! has one home.

use crate::affine_form::AffineForm;
use crate::error::EquivalenceError;
use crate::network::ConnectionNetwork;
use min_graph::components::{prefix_sweep, suffix_sweep};
use min_graph::iso::{verify_stage_mapping, StageMapping};
use min_graph::{MiDigraph, MiView};
use min_labels::bitmat::affine_cell_table;
use min_labels::{bit, leading_bit, AffineMap, Label, LinearMap, Subspace};

/// The canonical left-recursive Baseline MI-digraph in closed form (paper,
/// §2 and Fig. 1): every arc is computed from its formula, nothing is
/// stored.
///
/// Stage `s` (0-based) connects cell `x` to the two cells obtained by
/// shifting the low `n-1-s` bits of `x` right by one position and setting
/// the vacated bit (position `n-2-s`) to 0 (`f`) or 1 (`g`); the high `s`
/// bits are left untouched. This is precisely the "nodes `2i` and `2i+1` of
/// stage 1 are connected to the `i`-th nodes of the two subnetworks"
/// recursion, applied within ever smaller halves. Each stage is a linear
/// bit-shift map, the same maps as the fundamental arrangements of
/// arXiv:1012.5597.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineView {
    stages: usize,
}

impl BaselineView {
    /// The `stages`-stage Baseline.
    pub fn new(stages: usize) -> Self {
        assert!(stages >= 1, "a network needs at least one stage");
        assert!(
            stages <= 33,
            "2^{} cells per stage would not fit in memory",
            stages - 1
        );
        BaselineView { stages }
    }
}

impl MiView for BaselineView {
    fn stage_count(&self) -> usize {
        self.stages
    }

    fn nodes_per_stage(&self) -> usize {
        1 << (self.stages - 1)
    }

    #[inline]
    fn children_of(&self, stage: usize, x: u32) -> impl AsRef<[u32]> {
        let low_bits = self.stages - 1 - stage; // bits still being consumed
        let new_bit = 1u32 << (low_bits - 1);
        let low_mask = (new_bit << 1).wrapping_sub(1);
        let f = (x & !low_mask) | ((x & low_mask) >> 1);
        [f, f | new_bit]
    }

    fn is_proper(&self) -> bool {
        true
    }
}

/// The canonical Baseline MI-digraph with `stages` stages: [`BaselineView`]
/// materialized, for callers that need the digraph itself.
pub fn baseline_digraph(stages: usize) -> MiDigraph {
    MiDigraph::from_view(&BaselineView::new(stages))
}

/// A verified isomorphism certificate onto the Baseline MI-digraph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaselineIsomorphism {
    /// Number of stages of the network.
    pub stages: usize,
    /// `mapping[stage][node]` = label of the node's image in the canonical
    /// Baseline digraph of the same size.
    pub mapping: StageMapping,
}

impl BaselineIsomorphism {
    /// Re-verifies the certificate against `g` (O(E)), checking every arc
    /// against the closed-form [`BaselineView`].
    pub fn verify<G: MiView>(&self, g: &G) -> bool {
        g.stage_count() == self.stages
            && verify_stage_mapping(g, &BaselineView::new(self.stages), &self.mapping)
    }

    /// FNV-1a fingerprint of the full relabelling, stage by stage.
    ///
    /// Classification reports record this per equivalent network: two runs
    /// that produce the same checksum produced the same certificate, so the
    /// JSON carries a compact, diffable witness instead of the
    /// `O(n·2^{n-1})` mapping itself.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.stages as u64);
        for (s, stage_map) in self.mapping.iter().enumerate() {
            mix(s as u64);
            for &img in stage_map {
                mix(u64::from(img));
            }
        }
        h
    }
}

/// Computes the certified constructive isomorphism of `g` onto the Baseline
/// MI-digraph, or explains why none exists.
///
/// `g` is any [`MiView`]: an [`MiDigraph`], or a
/// [`crate::ConnectionNetwork`] read through its own tables. Both give the
/// same certificate or the same error.
pub fn baseline_isomorphism<G: MiView>(g: &G) -> Result<BaselineIsomorphism, EquivalenceError> {
    let n = g.stage_count();
    let width = g.nodes_per_stage();
    if crate::properties::baseline_width(n) != Some(width) {
        return Err(EquivalenceError::WrongWidth { stages: n, width });
    }
    if !g.is_proper() && n > 1 {
        return Err(EquivalenceError::NotTwoRegular);
    }
    let width_bits = n - 1;

    // suffix.stage_ids[i][v] = component of node v of stage i inside (G)_{i,n};
    // its trie value is the i high bits of the node's label.
    let suffix = suffix_sweep(g);
    for (i, &count) in suffix.counts.iter().enumerate() {
        let expected = crate::properties::expected_components(width, i, n - 1);
        if count != expected {
            return Err(EquivalenceError::SuffixComponentCount {
                stage: i,
                expected,
                actual: count,
            });
        }
    }
    let comp_high = component_trie(g, &suffix.stage_ids, true)?;

    // prefix.stage_ids[j][v] = component of node v of stage j inside (G)_{1,j};
    // its trie value is the width_bits - j low bits of the node's label.
    let prefix = prefix_sweep(g);
    for (j, &count) in prefix.counts.iter().enumerate() {
        let expected = crate::properties::expected_components(width, 0, j);
        if count != expected {
            return Err(EquivalenceError::PrefixComponentCount {
                stage: j,
                expected,
                actual: count,
            });
        }
    }
    let comp_low = component_trie(g, &prefix.stage_ids, false)?;

    // ---- Assemble labels ---------------------------------------------------
    let mut mapping: StageMapping = Vec::with_capacity(n);
    for s in 0..n {
        let low_bits = width_bits - s;
        let mut stage_map = Vec::with_capacity(width);
        let mut seen = vec![false; width];
        for v in 0..width {
            let high = comp_high[s][suffix.stage_ids[s][v] as usize];
            let low = comp_low[s][prefix.stage_ids[s][v] as usize];
            let label = (high << low_bits) | low;
            let label_usize = label as usize;
            if label_usize >= width || seen[label_usize] {
                return Err(EquivalenceError::LabelCollision { stage: s });
            }
            seen[label_usize] = true;
            stage_map.push(label as u32);
        }
        mapping.push(stage_map);
    }

    // ---- Verify -------------------------------------------------------------
    let certificate = BaselineIsomorphism { stages: n, mapping };
    if !certificate.verify(g) {
        return Err(EquivalenceError::VerificationFailed);
    }
    Ok(certificate)
}

/// A Baseline certificate in the closed form Theorem 3 gives it: stage `s`
/// relabels node `x` to `maps()[s].apply(x)`.
///
/// At `n` stages it holds `n` maps of `n - 1` columns each, about 2 KB at
/// `n = 16`, where the tables take `n · 2^{n-1}` labels (2 MB).
/// [`affine_certificate`] builds it unverified; [`AffineCertificate::expand`]
/// gives the tables, which [`BaselineIsomorphism::verify`] checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineCertificate {
    maps: Vec<AffineMap>,
}

impl AffineCertificate {
    /// One affine map per stage, each on `n - 1` bits.
    pub fn maps(&self) -> &[AffineMap] {
        &self.maps
    }

    /// The certificate's tables: `mapping[s][x] = maps()[s].apply(x)`,
    /// written by the `u32` table kernel, one XOR per node.
    pub fn expand(&self) -> BaselineIsomorphism {
        let mut tables = BaselineIsomorphism::default();
        self.expand_into(&mut tables);
        tables
    }

    /// [`AffineCertificate::expand`] into `tables`, reusing its stage
    /// tables' allocations.
    pub fn expand_into(&self, tables: &mut BaselineIsomorphism) {
        tables.stages = self.maps.len();
        tables.mapping.resize_with(self.maps.len(), Vec::new);
        for (table, map) in tables.mapping.iter_mut().zip(&self.maps) {
            let reused = std::mem::take(table);
            *table = affine_cell_table(map.linear().columns(), map.offset(), reused);
        }
    }
}

/// Theorem 3's construction: the certificate of a network whose every stage
/// is an independent connection, computed from the stage affine forms
/// (`forms[j]` is the [`crate::affine_form()`] of connection `j`).
///
/// Returns exactly the certificate [`baseline_isomorphism`] returns, without
/// sweeping (see the module documentation). Returns `None` when the forms
/// do not fit the network, the network is not proper, a component count is
/// off or the certificate does not verify; [`baseline_isomorphism`] then
/// gives the diagnosis.
pub fn affine_baseline_isomorphism(
    net: &ConnectionNetwork,
    forms: &[AffineForm],
) -> Option<BaselineIsomorphism> {
    let certificate = affine_certificate(net, forms)?.expand();
    certificate.verify(net).then_some(certificate)
}

/// [`affine_baseline_isomorphism`] before expansion and verification: the
/// per-stage affine maps, or `None` when the forms do not fit the network,
/// the network is not proper or a component count is off.
///
/// The maps are not checked against the network here; expand them and
/// [`BaselineIsomorphism::verify`] the tables before trusting them.
pub fn affine_certificate(
    net: &ConnectionNetwork,
    forms: &[AffineForm],
) -> Option<AffineCertificate> {
    let w = net.width();
    if net.stages() != w + 1 || forms.len() != w || !forms.iter().all(|f| is_proper_form(f, w)) {
        return None;
    }
    let linear = |j: usize| forms[j].f.linear();

    // suffix[j]: the stage-j nodes of one component of (G)_{j,n} form a
    // coset of it. prefix[j]: the same for (G)_{1,j}.
    let mut suffix = vec![Subspace::zero(w); w + 1];
    for j in (0..w).rev() {
        let onto = suffix[j + 1].sum(&Subspace::from_generators(w, [forms[j].difference]));
        let columns = linear(j).columns().iter().map(|&col| onto.reduce(col));
        suffix[j] = LinearMap::from_columns(w, w, columns.collect()).kernel();
        if suffix[j].dim() != w - j {
            return None;
        }
    }
    let mut prefix = vec![Subspace::zero(w); w + 1];
    for j in 0..w {
        let images = prefix[j].basis().iter().map(|&b| linear(j).apply(b));
        prefix[j + 1] = Subspace::from_generators(w, images.chain([forms[j].difference]));
        if prefix[j + 1].dim() != j + 1 {
            return None;
        }
    }

    // high[s]: the suffix trie value of a stage-s node (s bits). The parent
    // component of a stage-(j+1) node `y` is the one of any of its arc
    // tails, so `parent(y) = high[j](x)` for a solution of `Mx ⊕ εc = y ⊕ t`.
    let mut high = vec![AffineMap::new(LinearMap::zero(w, 0), 0)];
    for j in 0..w {
        let mut columns = linear(j).columns().to_vec();
        columns.push(forms[j].difference);
        let arcs = LinearMap::from_columns(w + 1, w, columns);
        let tail_value = high[j].linear();
        let parent_columns: Option<Vec<Label>> = (0..w)
            .map(|k| arcs.solve(1 << k).map(|x| tail_value.apply(x)))
            .collect();
        let parent = LinearMap::from_columns(w, j, parent_columns?);
        let offset = parent.apply(forms[j].f.offset()) ^ high[j].offset();
        let parent = AffineMap::new(parent, offset);
        high.push(descend(&parent, &suffix[j + 1], forms[j].difference)?);
    }
    // low[s]: the prefix trie value of a stage-s node (w - s bits). The
    // parent of a stage-j node's component holds its arc heads; the two
    // children differ by any `d` with `Md ∈ P_{j+1}` outside `P_j`.
    let mut low = vec![AffineMap::new(LinearMap::zero(w, 0), 0); w + 1];
    for j in (0..w).rev() {
        let heads = linear(j)
            .columns()
            .iter()
            .map(|&col| prefix[j + 1].reduce(col));
        let siblings = LinearMap::from_columns(w, w, heads.collect()).kernel();
        let d = *siblings.basis().iter().find(|&&d| !prefix[j].contains(d))?;
        low[j] = descend(&low[j + 1].compose(&forms[j].f), &prefix[j], d)?;
    }

    let maps = high
        .iter()
        .zip(&low)
        .map(|(high, low)| {
            let low_bits = low.width_out();
            let columns: Vec<Label> = high
                .linear()
                .columns()
                .iter()
                .zip(low.linear().columns())
                .map(|(&h, &l)| (h << low_bits) | l)
                .collect();
            let offset = (high.offset() << low_bits) | low.offset();
            AffineMap::new(LinearMap::from_columns(w, w, columns), offset)
        })
        .collect();
    Some(AffineCertificate { maps })
}

/// `true` when `form` is a `w`-bit connection that is 2-regular: every
/// target cell has two arcs in when `M` is invertible, or when `M` has rank
/// `w - 1` and `g`'s image is the other coset of `f`'s.
fn is_proper_form(form: &AffineForm, w: usize) -> bool {
    let rank = form.rank();
    form.f.width_in() == w
        && (rank == w || (rank + 1 == w && !form.f.linear().image().contains(form.difference)))
}

/// One trie level down: `x ↦ (parent(x) << 1) | b(x)`, where `b(x)` tells
/// which of the two cosets `x + space` and `x + sibling + space` holds `x`.
/// The one whose smallest member is smaller gets 0. The two reduced
/// representatives differ by `space.reduce(sibling)`, so `b` is that
/// difference's top bit of `space.reduce(x)`. `None` when `sibling` is in
/// `space`.
fn descend(parent: &AffineMap, space: &Subspace, sibling: Label) -> Option<AffineMap> {
    let order = leading_bit(space.reduce(sibling))?;
    let columns = parent
        .linear()
        .columns()
        .iter()
        .enumerate()
        .map(|(k, &col)| (col << 1) | bit(space.reduce(1 << k), order))
        .collect();
    let width_out = parent.width_out() + 1;
    let linear = LinearMap::from_columns(parent.width_in(), width_out, columns);
    Some(AffineMap::new(linear, parent.offset() << 1))
}

/// Numbers the nested components of a sweep as a binary trie:
/// `values[s][c]` is the trie value of component `c` of stage `s`.
///
/// The suffix trie (`suffix = true`) grows from stage 0 to the last stage,
/// the prefix trie the other way. The arcs `s → s+1` nest every component
/// of the finer stage inside one component of the coarser stage: the tail
/// side is the parent in the suffix trie, the head side in the prefix trie.
/// The two children of a parent with value `h` get `2h` and `2h+1` in
/// ascending child-id order; any other split is
/// [`EquivalenceError::ComponentTreeNotBinary`] at the child's stage.
fn component_trie<G: MiView>(
    g: &G,
    stage_ids: &[Vec<u32>],
    suffix: bool,
) -> Result<Vec<Vec<u64>>, EquivalenceError> {
    let n = stage_ids.len();
    let root = if suffix { 0 } else { n - 1 };
    let mut values: Vec<Vec<u64>> = vec![Vec::new(); n];
    values[root] = vec![0; component_count(&stage_ids[root])];
    for step in 0..n - 1 {
        let s = if suffix { step } else { n - 2 - step };
        let (parent, child) = if suffix { (s, s + 1) } else { (s + 1, s) };
        let not_binary = || EquivalenceError::ComponentTreeNotBinary {
            stage: child,
            suffix,
        };
        // Which parent component contains each child component?
        let mut parent_of: Vec<Option<u32>> = vec![None; component_count(&stage_ids[child])];
        let head_ids = &stage_ids[s + 1];
        for (v, &tail) in stage_ids[s].iter().enumerate() {
            for &c in g.children_of(s, v as u32).as_ref() {
                let head = head_ids[c as usize];
                let (pc, cc) = if suffix { (tail, head) } else { (head, tail) };
                match parent_of[cc as usize] {
                    None => parent_of[cc as usize] = Some(pc),
                    // A child component reachable from two distinct parent
                    // components contradicts connectivity.
                    Some(existing) if existing != pc => return Err(not_binary()),
                    _ => {}
                }
            }
        }
        let mut next_bit: Vec<u64> = vec![0; values[parent].len()];
        let mut child_values = Vec::with_capacity(parent_of.len());
        for pc in parent_of {
            let pc = pc.ok_or_else(not_binary)? as usize;
            if next_bit[pc] > 1 {
                return Err(not_binary());
            }
            child_values.push((values[parent][pc] << 1) | next_bit[pc]);
            next_bit[pc] += 1;
        }
        values[child] = child_values;
    }
    Ok(values)
}

fn component_count(ids: &[u32]) -> usize {
    ids.iter().copied().max().map_or(0, |m| m as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine_form::random_proper_independent_connection;
    use crate::connection::Connection;
    use crate::network::ConnectionNetwork;
    use iso_search::find_isomorphism;
    use min_graph::paths::is_banyan;
    use min_labels::{IndexPermutation, Permutation};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn omega(n: usize) -> MiDigraph {
        let sigma = IndexPermutation::perfect_shuffle(n);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        ConnectionNetwork::new(n - 1, vec![conn; n - 1]).to_digraph()
    }

    #[test]
    fn baseline_digraph_has_the_paper_shape() {
        for n in 1..=6 {
            let g = baseline_digraph(n);
            assert_eq!(g.stages(), n);
            assert_eq!(g.width(), 1usize << (n - 1));
            assert!(g.is_proper());
            if n >= 2 {
                assert!(is_banyan(&g), "baseline n={n} must be Banyan");
                let net = ConnectionNetwork::from_digraph(&g).unwrap();
                assert!(!net.has_parallel_links());
            }
        }
    }

    #[test]
    fn baseline_digraph_matches_the_left_recursive_definition() {
        // "nodes 2i and 2i+1 of stage 1 are connected to the i-th nodes of
        // the two subnetworks"
        let n = 4;
        let g = baseline_digraph(n);
        let half = 1u32 << (n - 2);
        for i in 0..half {
            for &node in &[2 * i, 2 * i + 1] {
                let mut kids = g.children(0, node).to_vec();
                kids.sort_unstable();
                assert_eq!(kids, vec![i, i + half]);
            }
        }
    }

    #[test]
    fn baseline_maps_onto_itself_with_the_identity() {
        for n in 2..=7 {
            let g = baseline_digraph(n);
            let cert = baseline_isomorphism(&g).expect("baseline is baseline-equivalent");
            assert!(cert.verify(&g));
            // The canonical labelling of the Baseline must be the identity:
            // the construction mirrors exactly how the Baseline is built.
            for (s, stage_map) in cert.mapping.iter().enumerate() {
                for (v, &img) in stage_map.iter().enumerate() {
                    assert_eq!(img as usize, v, "stage {s} node {v} should map to itself");
                }
            }
        }
    }

    #[test]
    fn omega_gets_a_valid_certificate() {
        for n in 2..=7 {
            let g = omega(n);
            let cert = baseline_isomorphism(&g).expect("omega is baseline-equivalent");
            assert!(cert.verify(&g));
        }
    }

    #[test]
    fn certificate_agrees_with_exhaustive_search_on_small_instances() {
        for n in 2..=4 {
            let g = omega(n);
            let cert = baseline_isomorphism(&g).unwrap();
            let outcome = find_isomorphism(&g, &baseline_digraph(n), 10_000_000);
            assert!(outcome.is_isomorphic());
            assert!(cert.verify(&g));
        }
    }

    #[test]
    fn random_independent_banyan_networks_are_certified() {
        // Theorem 3 seen constructively: assemble networks from random
        // proper independent connections, keep the Banyan ones, and check
        // that every one of them receives a valid certificate.
        let mut rng = ChaCha8Rng::seed_from_u64(109);
        let width_bits = 3usize;
        let stages = width_bits + 1;
        let mut certified = 0;
        for _ in 0..60 {
            let connections: Vec<Connection> = (0..stages - 1)
                .map(|_| random_proper_independent_connection(width_bits, rng.gen(), &mut rng))
                .collect();
            let net = ConnectionNetwork::new(width_bits, connections);
            let g = net.to_digraph();
            if !is_banyan(&g) {
                continue;
            }
            let cert = baseline_isomorphism(&g).expect("Theorem 3");
            assert!(cert.verify(&g));
            certified += 1;
        }
        assert!(
            certified >= 1,
            "expected at least one Banyan sample, got {certified}"
        );
    }

    #[test]
    fn wrong_width_is_rejected() {
        let g = MiDigraph::new(3, 5);
        assert_eq!(
            baseline_isomorphism(&g),
            Err(EquivalenceError::WrongWidth {
                stages: 3,
                width: 5
            })
        );
    }

    #[test]
    fn a_width_past_the_label_range_is_rejected_not_shifted() {
        // 2^64 nodes per stage does not fit a usize: the width check must
        // refuse it instead of overflowing the shift.
        let g = MiDigraph::new(65, 1);
        assert_eq!(
            baseline_isomorphism(&g),
            Err(EquivalenceError::WrongWidth {
                stages: 65,
                width: 1
            })
        );
    }

    #[test]
    fn irregular_graphs_are_rejected() {
        let mut g = MiDigraph::new(2, 2);
        g.add_arc(0, 0, 0);
        assert_eq!(
            baseline_isomorphism(&g),
            Err(EquivalenceError::NotTwoRegular)
        );
    }

    #[test]
    fn parallel_link_networks_are_rejected_with_a_component_diagnosis() {
        let c0 = Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 0b10);
        let degenerate = Connection::from_fn(2, |x| x, |x| x);
        let g = ConnectionNetwork::new(2, vec![c0, degenerate]).to_digraph();
        let err = baseline_isomorphism(&g).unwrap_err();
        assert!(
            matches!(
                err,
                EquivalenceError::SuffixComponentCount { .. }
                    | EquivalenceError::PrefixComponentCount { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn non_equivalent_random_networks_are_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(113);
        let mut rejections = 0;
        for _ in 0..10 {
            let connections: Vec<Connection> = (0..3)
                .map(|_| {
                    let p = Permutation::random(4, &mut rng);
                    Connection::from_link_permutation(&p)
                })
                .collect();
            let g = ConnectionNetwork::new(3, connections).to_digraph();
            if baseline_isomorphism(&g).is_err() {
                rejections += 1;
            }
        }
        assert!(rejections >= 8);
    }

    #[test]
    fn the_affine_path_maps_the_baseline_to_itself_and_declines_foreign_forms() {
        let forms_of = |net: &ConnectionNetwork| -> Vec<AffineForm> {
            let forms = net.connections().iter().map(crate::affine_form);
            forms
                .collect::<Option<_>>()
                .expect("Baseline stages are independent")
        };
        for n in 1..=7 {
            let net = ConnectionNetwork::from_digraph(&baseline_digraph(n)).unwrap();
            let cert = affine_baseline_isomorphism(&net, &forms_of(&net)).expect("Theorem 3");
            assert_eq!(Ok(cert.clone()), baseline_isomorphism(&net), "n={n}");
            for (s, stage_map) in cert.mapping.iter().enumerate() {
                assert!(
                    stage_map
                        .iter()
                        .enumerate()
                        .all(|(v, &img)| img as usize == v),
                    "{s}"
                );
            }
        }
        // Forms of another width, or too few of them, decline instead of
        // panicking.
        let net = ConnectionNetwork::from_digraph(&baseline_digraph(4)).unwrap();
        let narrow = ConnectionNetwork::from_digraph(&baseline_digraph(3)).unwrap();
        let mut foreign = forms_of(&narrow);
        assert_eq!(affine_baseline_isomorphism(&net, &foreign), None);
        foreign.push(foreign[0].clone());
        assert_eq!(affine_baseline_isomorphism(&net, &foreign), None);
    }

    #[test]
    fn single_stage_network_is_trivially_equivalent() {
        let g = MiDigraph::new(1, 1);
        let cert = baseline_isomorphism(&g).expect("the one-node network");
        assert_eq!(cert.mapping, vec![vec![0]]);
    }
}
