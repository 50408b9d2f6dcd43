//! `NetworkSpec` — a serializable, versioned description of any network the
//! campaign runners can build.
//!
//! Before this type, the simulation and classification grids threaded
//! `(ClassicalNetwork, usize)` tuples everywhere, which hard-assumed the
//! unique-path catalog. [`NetworkSpec`] names a network *declaratively* —
//! catalog member, Benes, the 2024 shuffle-based variant, or a
//! fundamental-arrangement rewrite of a catalog member — so rearrangeable
//! and transformed fabrics flow through `CampaignConfig`,
//! `ClassificationGrid` and the report JSON with no special cases.
//!
//! ## Wire format and versioning
//!
//! A [`NetworkSpec::Catalog`] cell serializes **exactly** like the old
//! tuple — a 2-element sequence `["Omega", 3]` — so every report produced
//! before the redesign parses unchanged and old-style grids keep producing
//! byte-identical JSON (pinned by the workspace compatibility tests). The
//! new variants use the derive-style tagged-map encoding, e.g.
//! `{"Benes": {"n": 3}}`: adding a variant never perturbs the bytes of
//! existing ones, which is the versioning contract.
//!
//! ## Migration from the tuple API
//!
//! Grid builders take `Vec<NetworkSpec>`; the `(ClassicalNetwork, usize)`
//! tuple survives only as the catalog cell's wire format:
//!
//! * `config.with_cells(vec![(ClassicalNetwork::Omega, 3)])` becomes
//!   `config.with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 3)])`.
//! * `catalog_grid(3..=5)` now returns `Vec<NetworkSpec>`; code that matched
//!   on the tuple can compare against [`NetworkSpec::catalog`] values or
//!   match on [`NetworkSpec::Catalog`].
//! * Code that did `kind.build(stages)` calls [`NetworkSpec::build`]; the
//!   stage count lives in the spec ([`NetworkSpec::stages`]), and — new with
//!   the rearrangeable members — the cell count is **not** always
//!   `2^(stages-1)`-terminals-style derivable from the stage count alone, so
//!   use [`NetworkSpec::cells_per_stage`] / [`NetworkSpec::terminals`]
//!   instead of `1 << stages`.

use crate::catalog::ClassicalNetwork;
use crate::rearrangeable::{benes, benes_variant, Rewrite};
use min_core::ConnectionNetwork;
use serde::{map_get, Deserialize, Error, Serialize, Value};

/// A buildable network description: the unit of the campaign grid axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkSpec {
    /// An `stages`-stage member of the classical unique-path catalog.
    Catalog {
        /// The catalog family.
        family: ClassicalNetwork,
        /// Stage count `n` (the network has `2^n` terminals).
        stages: usize,
    },
    /// The Benes network over `2^n` terminals (`2n - 1` stages).
    Benes {
        /// Half-depth parameter: the network is Baseline(n) ++ Reverse
        /// Baseline(n) sharing the middle stage.
        n: usize,
    },
    /// The shuffle-based Benes variant (Omega half ++ Flip half).
    BenesVariant {
        /// Half-depth parameter, as in [`NetworkSpec::Benes`].
        n: usize,
    },
    /// A fundamental-arrangement rewrite of a catalog member.
    Rewritten {
        /// The catalog family being redrawn.
        family: ClassicalNetwork,
        /// Stage count of the underlying member.
        stages: usize,
        /// The rewrite applied to it.
        rewrite: Rewrite,
    },
}

impl NetworkSpec {
    /// Shorthand for a catalog cell.
    pub fn catalog(family: ClassicalNetwork, stages: usize) -> Self {
        NetworkSpec::Catalog { family, stages }
    }

    /// Shorthand for the Benes network over `2^n` terminals.
    pub fn benes(n: usize) -> Self {
        NetworkSpec::Benes { n }
    }

    /// Shorthand for the shuffle-based Benes variant.
    pub fn benes_variant(n: usize) -> Self {
        NetworkSpec::BenesVariant { n }
    }

    /// Shorthand for a rewritten catalog member.
    pub fn rewritten(family: ClassicalNetwork, stages: usize, rewrite: Rewrite) -> Self {
        NetworkSpec::Rewritten {
            family,
            stages,
            rewrite,
        }
    }

    /// The actual stage count of the built network (for the Benes family
    /// this is `2n - 1`, not `n`), saturating so that validation refuses a
    /// deserialized `n = 0` or huge `n` instead of overflowing.
    pub fn stages(&self) -> usize {
        match *self {
            NetworkSpec::Catalog { stages, .. } | NetworkSpec::Rewritten { stages, .. } => stages,
            NetworkSpec::Benes { n } | NetworkSpec::BenesVariant { n } => {
                n.saturating_mul(2).saturating_sub(1)
            }
        }
    }

    /// Cells per stage. **Not** `1 << (stages - 1)` for the Benes family —
    /// a Benes has `2^(n-1)` cells across `2n - 1` stages.
    pub fn cells_per_stage(&self) -> usize {
        match *self {
            NetworkSpec::Catalog { stages, .. } | NetworkSpec::Rewritten { stages, .. } => {
                1 << (stages - 1)
            }
            NetworkSpec::Benes { n } | NetworkSpec::BenesVariant { n } => 1 << (n - 1),
        }
    }

    /// Terminals on each side (`2 ×` cells per stage).
    pub fn terminals(&self) -> usize {
        2 * self.cells_per_stage()
    }

    /// Display name used in report tables and subject labels.
    pub fn name(&self) -> String {
        match *self {
            NetworkSpec::Catalog { family, .. } => family.name().to_string(),
            NetworkSpec::Benes { .. } => "Benes".to_string(),
            NetworkSpec::BenesVariant { .. } => "Benes-variant".to_string(),
            NetworkSpec::Rewritten {
                family, rewrite, ..
            } => format!("{}+{}", family.name(), rewrite.label()),
        }
    }

    /// Builds the described network.
    pub fn build(&self) -> ConnectionNetwork {
        match *self {
            NetworkSpec::Catalog { family, stages } => family.build(stages),
            NetworkSpec::Benes { n } => benes(n),
            NetworkSpec::BenesVariant { n } => benes_variant(n),
            NetworkSpec::Rewritten {
                family,
                stages,
                rewrite,
            } => rewrite.apply(&family.build(stages)),
        }
    }
}

impl std::fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl Serialize for NetworkSpec {
    fn to_value(&self) -> Value {
        match *self {
            // Byte-for-byte the encoding of the legacy tuple.
            NetworkSpec::Catalog { family, stages } => {
                Value::Seq(vec![family.to_value(), stages.to_value()])
            }
            NetworkSpec::Benes { n } => Value::Map(vec![(
                "Benes".to_string(),
                Value::Map(vec![("n".to_string(), n.to_value())]),
            )]),
            NetworkSpec::BenesVariant { n } => Value::Map(vec![(
                "BenesVariant".to_string(),
                Value::Map(vec![("n".to_string(), n.to_value())]),
            )]),
            NetworkSpec::Rewritten {
                family,
                stages,
                rewrite,
            } => Value::Map(vec![(
                "Rewritten".to_string(),
                Value::Map(vec![
                    ("family".to_string(), family.to_value()),
                    ("stages".to_string(), stages.to_value()),
                    ("rewrite".to_string(), rewrite.to_value()),
                ]),
            )]),
        }
    }
}

impl Deserialize for NetworkSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if let Some(seq) = v.as_seq() {
            // The legacy `(ClassicalNetwork, usize)` tuple form.
            let [family, stages] = seq else {
                return Err(Error::custom(
                    "a catalog network spec is a 2-element [family, stages] sequence",
                ));
            };
            return Ok(NetworkSpec::Catalog {
                family: ClassicalNetwork::from_value(family)?,
                stages: usize::from_value(stages)?,
            });
        }
        let entries = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a network spec"))?;
        let [(variant, payload)] = entries else {
            return Err(Error::custom("a network spec map has exactly one variant"));
        };
        let fields = payload
            .as_map()
            .ok_or_else(|| Error::custom("expected a network spec payload map"))?;
        match variant.as_str() {
            "Benes" => Ok(NetworkSpec::Benes {
                n: usize::from_value(map_get(fields, "n")?)?,
            }),
            "BenesVariant" => Ok(NetworkSpec::BenesVariant {
                n: usize::from_value(map_get(fields, "n")?)?,
            }),
            "Rewritten" => Ok(NetworkSpec::Rewritten {
                family: ClassicalNetwork::from_value(map_get(fields, "family")?)?,
                stages: usize::from_value(map_get(fields, "stages")?)?,
                rewrite: Rewrite::from_value(map_get(fields, "rewrite")?)?,
            }),
            other => Err(Error::custom(format!("unknown network spec `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benes_stage_counts_saturate_instead_of_overflowing() {
        for spec in [
            NetworkSpec::Benes { n: 0 },
            NetworkSpec::BenesVariant { n: 0 },
        ] {
            assert_eq!(spec.stages(), 0);
        }
        let huge = usize::MAX / 2 + 1;
        for spec in [
            NetworkSpec::Benes { n: huge },
            NetworkSpec::BenesVariant { n: huge },
        ] {
            assert_eq!(spec.stages(), usize::MAX - 1);
        }
        assert_eq!(NetworkSpec::Benes { n: 3 }.stages(), 5);
    }

    #[test]
    fn catalog_specs_serialize_exactly_like_the_legacy_tuples() {
        for family in ClassicalNetwork::ALL {
            for stages in 2..=5 {
                assert_eq!(
                    serde_json::to_string(&NetworkSpec::catalog(family, stages)).unwrap(),
                    serde_json::to_string(&(family, stages)).unwrap(),
                );
            }
        }
    }

    #[test]
    fn every_spec_round_trips_through_json() {
        let specs = [
            NetworkSpec::catalog(ClassicalNetwork::Omega, 4),
            NetworkSpec::benes(3),
            NetworkSpec::benes_variant(4),
            NetworkSpec::rewritten(ClassicalNetwork::Baseline, 4, Rewrite::BitReversal),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: NetworkSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn legacy_tuple_json_parses_as_a_catalog_spec() {
        let spec: NetworkSpec = serde_json::from_str("[\"Omega\",3]").unwrap();
        assert_eq!(spec, NetworkSpec::catalog(ClassicalNetwork::Omega, 3));
    }

    #[test]
    fn sizes_come_from_the_construction_not_the_stage_count() {
        let spec = NetworkSpec::benes(4);
        assert_eq!(spec.stages(), 7);
        assert_eq!(spec.cells_per_stage(), 8);
        assert_eq!(spec.terminals(), 16);
        // The naive 1 << (stages - 1) would claim 64 cells.
        assert_ne!(spec.cells_per_stage(), 1 << (spec.stages() - 1));
        let cat = NetworkSpec::catalog(ClassicalNetwork::Flip, 4);
        assert_eq!(cat.cells_per_stage(), 1 << (cat.stages() - 1));
    }

    #[test]
    fn build_matches_the_declared_shape() {
        let specs = [
            NetworkSpec::catalog(ClassicalNetwork::ModifiedDataManipulator, 3),
            NetworkSpec::benes(3),
            NetworkSpec::benes_variant(3),
            NetworkSpec::rewritten(ClassicalNetwork::Omega, 3, Rewrite::Reverse),
        ];
        for spec in specs {
            let net = spec.build();
            assert_eq!(net.stages(), spec.stages(), "{spec}");
            assert_eq!(net.cells_per_stage(), spec.cells_per_stage(), "{spec}");
            assert_eq!(net.terminals(), spec.terminals(), "{spec}");
        }
    }

    #[test]
    fn names_are_distinct_and_stable() {
        assert_eq!(NetworkSpec::benes(3).name(), "Benes");
        assert_eq!(NetworkSpec::benes_variant(3).name(), "Benes-variant");
        assert_eq!(
            NetworkSpec::rewritten(ClassicalNetwork::Omega, 3, Rewrite::VerticalFlip).name(),
            "Omega+vflip"
        );
        assert_eq!(
            NetworkSpec::catalog(ClassicalNetwork::Baseline, 5).name(),
            "Baseline"
        );
        assert!(NetworkSpec::benes(3).to_string().contains("Benes"));
    }

    #[test]
    fn unknown_spec_variants_are_rejected() {
        assert!(serde_json::from_str::<NetworkSpec>("{\"Clos\":{\"n\":3}}").is_err());
        assert!(serde_json::from_str::<NetworkSpec>("[\"Omega\"]").is_err());
        assert!(serde_json::from_str::<NetworkSpec>("7").is_err());
    }
}
