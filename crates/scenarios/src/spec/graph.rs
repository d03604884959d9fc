//! Declarative service-graph workloads.
//!
//! [`ServiceGraphSpec`] is the serialized form of a
//! [`workloads::service_graph::GraphWorkload`]: stages are named (edges
//! reference stages by name, so spec files stay readable and reorderable)
//! and sizes use friendly units (µs compute, MB footprints, ms
//! deadlines). [`ServiceGraphSpec::check_shape`] rejects every structural
//! defect — duplicate or dangling stage names, cycles, fan-outs beyond
//! the tag encoding — before a simulator is ever built, mirroring how
//! [`super::FaultSpec`] validates fault timelines.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use workloads::service_graph::{GraphEdge, GraphStage, GraphWorkload};

use super::controller::MAX_MIB;
use super::MAX_RUN_MS;

/// One named compute stage of a declared service graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage name; unique within the graph, referenced by edges.
    pub name: String,
    /// Parallel worker threads spawned per activation.
    pub fan_out: u32,
    /// Median per-worker compute time, microseconds.
    pub compute_us: f64,
    /// Log-normal shape of the compute-time distribution (0 = constant).
    pub sigma: f64,
    /// Resident memory this stage contributes, megabytes.
    pub memory_mb: u64,
}

/// One directed hop between two named stages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Source stage name.
    pub from: String,
    /// Destination stage name.
    pub to: String,
    /// Message payload, bytes.
    pub bytes: u64,
    /// Extra propagation latency on top of the fabric's base hop cost,
    /// microseconds.
    pub latency_us: u64,
}

/// A declared microservice-chain workload: a DAG of [`StageSpec`]s
/// connected by [`EdgeSpec`]s, with a per-request deadline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceGraphSpec {
    /// The stages; roots (no in-edge) activate on arrival, sinks (no
    /// out-edge) complete the request.
    pub stages: Vec<StageSpec>,
    /// The hops; empty means every stage is both root and sink.
    pub edges: Vec<EdgeSpec>,
    /// Per-request deadline, milliseconds.
    pub timeout_ms: u64,
}

impl ServiceGraphSpec {
    /// Resolves stage names to indices and converts units.
    fn resolve(&self) -> Result<GraphWorkload, String> {
        let index_of = |name: &str| -> Result<u32, String> {
            self.stages
                .iter()
                .position(|s| s.name == name)
                .map(|i| i as u32)
                .ok_or_else(|| format!("edge references unknown stage {name:?}"))
        };
        let stages = self
            .stages
            .iter()
            .map(|s| GraphStage {
                name: s.name.clone(),
                fan_out: s.fan_out,
                compute_us: s.compute_us,
                sigma: s.sigma,
                memory_bytes: s.memory_mb << 20,
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Ok(GraphEdge {
                    from: index_of(&e.from)?,
                    to: index_of(&e.to)?,
                    bytes: e.bytes,
                    latency: SimDuration::from_micros(e.latency_us),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(GraphWorkload {
            stages,
            edges,
            timeout: SimDuration::from_millis(self.timeout_ms),
        })
    }

    /// Checks the graph is well-formed: unique non-empty stage names,
    /// edges referencing declared stages, a positive deadline, durations
    /// and footprints the clock and `u64` bytes hold, and every
    /// structural invariant of [`GraphWorkload::validate`] (bounds,
    /// no self-edges or duplicates, acyclicity).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.timeout_ms == 0 {
            return Err("timeout_ms must be positive".into());
        }
        if self.timeout_ms > MAX_RUN_MS {
            return Err(format!(
                "timeout_ms {} runs past the simulated clock's range (at most {MAX_RUN_MS} ms)",
                self.timeout_ms
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for s in &self.stages {
            if s.name.is_empty() || s.name.chars().any(char::is_whitespace) {
                return Err(format!(
                    "stage name {:?} must be non-empty, no whitespace",
                    s.name
                ));
            }
            if !seen.insert(s.name.as_str()) {
                return Err(format!("duplicate stage name {:?}", s.name));
            }
            if s.memory_mb > MAX_MIB {
                return Err(format!(
                    "stage {:?} memory_mb {} is above {MAX_MIB} MiB",
                    s.name, s.memory_mb
                ));
            }
        }
        for e in &self.edges {
            if e.latency_us > MAX_RUN_MS * 1_000 {
                return Err(format!(
                    "edge {} -> {} latency_us {} runs past the simulated clock's range \
                     (at most {} us)",
                    e.from,
                    e.to,
                    e.latency_us,
                    MAX_RUN_MS * 1_000
                ));
            }
        }
        self.resolve()?.validate()
    }

    /// The executable workload this spec describes.
    ///
    /// # Errors
    ///
    /// Fails when [`ServiceGraphSpec::check_shape`] would fail.
    pub fn to_workload(&self) -> Result<GraphWorkload, String> {
        self.check_shape()?;
        self.resolve()
    }

    /// Total declared resident memory, megabytes; `None` when the sum
    /// overflows `u64`.
    pub fn working_set_mb(&self) -> Option<u64> {
        self.stages
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.memory_mb))
    }

    /// One-line topology summary, `stages=N edges=M roots=R sinks=S`.
    pub fn shape_summary(&self) -> String {
        let n = self.stages.len();
        let mut has_in = vec![false; n];
        let mut has_out = vec![false; n];
        for e in &self.edges {
            if let Some(i) = self.stages.iter().position(|s| s.name == e.from) {
                has_out[i] = true;
            }
            if let Some(i) = self.stages.iter().position(|s| s.name == e.to) {
                has_in[i] = true;
            }
        }
        let roots = has_in.iter().filter(|b| !**b).count();
        let sinks = has_out.iter().filter(|b| !**b).count();
        format!(
            "stages={n} edges={} roots={roots} sinks={sinks}",
            self.edges.len()
        )
    }
}

/// Which primary workload class a scenario's target machines run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The classic IndexServe query-serving primary (the paper's
    /// workload; the default for every pre-existing spec file).
    IndexServe,
    /// A microservice chain: stages connected by simnet hops, executed
    /// by [`workloads::service_graph::GraphEngine`].
    ServiceGraph(ServiceGraphSpec),
}

// Manual rather than derived: the vendored serde_derive shim cannot
// parse a `#[default]` variant attribute alongside its own derives.
#[allow(clippy::derivable_impls)]
impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::IndexServe
    }
}

impl WorkloadSpec {
    /// True for the default IndexServe class (the serde skip predicate
    /// keeping pre-workload spec files byte-stable).
    pub fn is_index_serve(&self) -> bool {
        matches!(self, WorkloadSpec::IndexServe)
    }

    /// Short class label for tables.
    pub fn class_label(&self) -> &'static str {
        match self {
            WorkloadSpec::IndexServe => "indexserve",
            WorkloadSpec::ServiceGraph(_) => "service-graph",
        }
    }

    /// The graph spec, when this is a service-graph workload.
    pub fn as_graph(&self) -> Option<&ServiceGraphSpec> {
        match self {
            WorkloadSpec::IndexServe => None,
            WorkloadSpec::ServiceGraph(g) => Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ServiceGraphSpec {
        ServiceGraphSpec {
            stages: vec![
                StageSpec {
                    name: "a".into(),
                    fan_out: 1,
                    compute_us: 100.0,
                    sigma: 0.2,
                    memory_mb: 64,
                },
                StageSpec {
                    name: "b".into(),
                    fan_out: 4,
                    compute_us: 200.0,
                    sigma: 0.2,
                    memory_mb: 128,
                },
            ],
            edges: vec![EdgeSpec {
                from: "a".into(),
                to: "b".into(),
                bytes: 4096,
                latency_us: 50,
            }],
            timeout_ms: 20,
        }
    }

    #[test]
    fn valid_chain_converts() {
        let spec = chain();
        spec.check_shape().unwrap();
        let wl = spec.to_workload().unwrap();
        assert_eq!(wl.stages.len(), 2);
        assert_eq!(wl.edges[0].from, 0);
        assert_eq!(wl.edges[0].to, 1);
        assert_eq!(wl.stages[1].memory_bytes, 128 << 20);
        assert_eq!(spec.working_set_mb(), Some(192));
        assert_eq!(spec.shape_summary(), "stages=2 edges=1 roots=1 sinks=1");
    }

    #[test]
    fn shape_errors_are_specific() {
        let mut dup = chain();
        dup.stages[1].name = "a".into();
        assert!(dup.check_shape().unwrap_err().contains("duplicate"));

        let mut dangling = chain();
        dangling.edges[0].to = "nope".into();
        assert!(dangling.check_shape().unwrap_err().contains("unknown"));

        let mut cyclic = chain();
        cyclic.edges.push(EdgeSpec {
            from: "b".into(),
            to: "a".into(),
            bytes: 1,
            latency_us: 1,
        });
        assert!(cyclic.check_shape().unwrap_err().contains("cycle"));

        let mut dead = chain();
        dead.timeout_ms = 0;
        assert!(dead.check_shape().unwrap_err().contains("timeout"));

        let empty = ServiceGraphSpec {
            stages: Vec::new(),
            edges: Vec::new(),
            timeout_ms: 10,
        };
        assert!(empty.check_shape().is_err());
    }

    #[test]
    fn workload_spec_round_trips() {
        let w = WorkloadSpec::ServiceGraph(chain());
        let text = serde_json::to_string(&w).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, w);
        assert!(!w.is_index_serve());
        assert_eq!(w.class_label(), "service-graph");
        assert!(WorkloadSpec::default().is_index_serve());
    }
}
