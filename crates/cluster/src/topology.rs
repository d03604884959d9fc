//! The cluster layout: rows, columns, TLAs, and node numbering — plus the
//! heterogeneous box shapes a production fleet mixes.

use serde::{Deserialize, Serialize};
use simcpu::MachineConfig;
use simnet::NodeId;

/// The cluster shape (paper default: 22 columns × 2 rows + 31 TLAs = 75).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Topology {
    /// Index partitions per row.
    pub columns: u32,
    /// Replicated rows.
    pub rows: u32,
    /// Top-level aggregator machines.
    pub tlas: u32,
}

impl Topology {
    /// Most columns a cluster can have: the cluster loop's message tokens
    /// carry a column index in a 16-bit field.
    pub(crate) const MAX_COLUMNS: u32 = 1 << 16;

    /// The paper's 75-machine cluster.
    pub fn paper_cluster() -> Self {
        Topology {
            columns: 22,
            rows: 2,
            tlas: 31,
        }
    }

    /// A small topology for tests.
    pub fn small() -> Self {
        Topology {
            columns: 4,
            rows: 2,
            tlas: 2,
        }
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// Returns a message for degenerate shapes, for shapes whose machine
    /// count overflows the `u32` node numbering, and for more than 65,536
    /// columns.
    pub fn validate(&self) -> Result<(), String> {
        if self.columns == 0 || self.rows == 0 || self.tlas == 0 {
            return Err("topology needs at least one column, row, and TLA".into());
        }
        if self
            .columns
            .checked_mul(self.rows)
            .and_then(|n| n.checked_add(self.tlas))
            .is_none()
        {
            return Err(format!(
                "{} columns x {} rows + {} TLAs overflows the u32 machine numbering",
                self.columns, self.rows, self.tlas
            ));
        }
        if self.columns > Self::MAX_COLUMNS {
            return Err(format!(
                "{} columns exceed the {} a cluster message can address",
                self.columns,
                Self::MAX_COLUMNS
            ));
        }
        Ok(())
    }

    /// Total index-serving machines.
    pub fn index_machines(&self) -> u32 {
        self.columns * self.rows
    }

    /// Total machines (index + TLA).
    pub fn total_machines(&self) -> u32 {
        self.index_machines() + self.tlas
    }

    /// Network node id of the index machine at `(row, column)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn index_node(&self, row: u32, column: u32) -> NodeId {
        assert!(
            row < self.rows && column < self.columns,
            "({row},{column}) out of range"
        );
        NodeId(row * self.columns + column)
    }

    /// Network node id of TLA machine `t`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn tla_node(&self, t: u32) -> NodeId {
        assert!(t < self.tlas, "tla {t} out of range");
        NodeId(self.index_machines() + t)
    }

    /// Reverse lookup: `(row, column)` of an index node id.
    pub fn index_position(&self, node: NodeId) -> Option<(u32, u32)> {
        if node.0 < self.index_machines() {
            Some((node.0 / self.columns, node.0 % self.columns))
        } else {
            None
        }
    }

    /// Index-machine flat id (0-based over all index machines).
    pub fn index_flat(&self, row: u32, column: u32) -> usize {
        (row * self.columns + column) as usize
    }
}

/// One hardware generation in a heterogeneous fleet.
///
/// Production fleets are never uniform: machines are bought in waves, so
/// at any moment several shapes coexist. A shape's `weight` is its share
/// of the fleet; [`BoxShape::roster`] expands a shape list into a
/// deterministic weighted round-robin of [`MachineConfig`]s for the fleet
/// driver to deal out across machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoxShape {
    /// Human-readable generation label.
    pub name: &'static str,
    /// Logical cores (1..=64).
    pub cores: u32,
    /// Memory in GiB.
    pub memory_gb: u64,
    /// Relative share of the fleet.
    pub weight: u32,
}

impl BoxShape {
    /// The machine this shape describes: the paper server's kernel-cost
    /// model with this generation's core count and memory.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig {
            cores: self.cores,
            memory_bytes: self.memory_gb << 30,
            ..MachineConfig::paper_server()
        }
    }

    /// A production-like mix of three hardware generations: the paper's
    /// 48-core/128 GB workhorse dominating, a trailing wave of smaller
    /// 32-core boxes, and a leading wave of 64-core/256 GB machines.
    pub fn production_shapes() -> Vec<BoxShape> {
        vec![
            BoxShape {
                name: "std-48",
                cores: 48,
                memory_gb: 128,
                weight: 3,
            },
            BoxShape {
                name: "small-32",
                cores: 32,
                memory_gb: 64,
                weight: 2,
            },
            BoxShape {
                name: "big-64",
                cores: 64,
                memory_gb: 256,
                weight: 1,
            },
        ]
    }

    /// Expands a weighted shape list into one weighted cycle of machine
    /// configs (each shape repeated `weight` times, in list order). The
    /// fleet driver indexes into this cycle to assign a deterministic
    /// shape per machine.
    ///
    /// # Panics
    ///
    /// Panics when every weight is zero.
    pub fn roster(shapes: &[BoxShape]) -> Vec<MachineConfig> {
        let cycle: Vec<MachineConfig> = shapes
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.machine(), s.weight as usize))
            .collect();
        assert!(!cycle.is_empty(), "box-shape roster needs a nonzero weight");
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_is_75_machines() {
        let t = Topology::paper_cluster();
        assert_eq!(t.index_machines(), 44);
        assert_eq!(t.total_machines(), 75);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn node_numbering_roundtrip() {
        let t = Topology::paper_cluster();
        for row in 0..t.rows {
            for col in 0..t.columns {
                let n = t.index_node(row, col);
                assert_eq!(t.index_position(n), Some((row, col)));
            }
        }
        assert_eq!(t.index_position(t.tla_node(0)), None);
        assert_eq!(t.tla_node(30).0, 74);
    }

    #[test]
    fn machine_count_overflow_is_rejected() {
        let t = Topology {
            columns: u32::MAX,
            rows: 1,
            tlas: 1,
        };
        let err = t.validate().unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        let t = Topology {
            columns: 2,
            rows: u32::MAX / 2,
            tlas: 2,
        };
        assert!(t.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn columns_past_the_message_field_are_rejected() {
        let t = Topology {
            columns: 65_537,
            rows: 1,
            tlas: 1,
        };
        let err = t.validate().unwrap_err();
        assert!(err.contains("65537 columns"), "{err}");
        let widest = Topology {
            columns: Topology::MAX_COLUMNS,
            ..t
        };
        assert!(widest.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_position_panics() {
        let t = Topology::small();
        let _ = t.index_node(5, 0);
    }

    #[test]
    fn production_shapes_expand_by_weight() {
        let shapes = BoxShape::production_shapes();
        let roster = BoxShape::roster(&shapes);
        let total_weight: u32 = shapes.iter().map(|s| s.weight).sum();
        assert_eq!(roster.len(), total_weight as usize);
        // The dominant generation fills the front of the cycle.
        assert_eq!(roster[0].cores, 48);
        assert_eq!(roster[3].cores, 32);
        assert_eq!(roster[5].cores, 64);
        assert_eq!(roster[5].memory_bytes, 256 << 30);
        for m in &roster {
            m.validate().expect("every shape is a valid machine");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero weight")]
    fn zero_weight_roster_panics() {
        let _ = BoxShape::roster(&[BoxShape {
            name: "ghost",
            cores: 8,
            memory_gb: 16,
            weight: 0,
        }]);
    }
}
