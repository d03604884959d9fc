//! Experiment descriptions and drivers shared by the integration tests,
//! examples, and the `perfiso-run` CLI.
//!
//! The [`spec`] module is the one way to describe and run an experiment:
//! a declarative [`spec::ScenarioSpec`] (workload × secondary ×
//! [`Policy`] × target), a registry of named paper scenarios whose sweeps
//! are the figures' policy × load × secondary grids, and a multi-seed
//! runner whose parallel sweeps are bit-identical to serial ones.
//!
//! Runs are scaled by [`spec::ScaleSpec`]: the default keeps test runtimes
//! modest; setting the `PERFISO_SCALE` environment variable to a
//! multiplier lengthens the paper-figure windows for tighter percentiles
//! (parsed once, see [`spec::scale_multiplier`]).

pub mod policies;
pub mod spec;

pub use policies::Policy;
