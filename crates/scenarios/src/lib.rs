//! Experiment descriptions and drivers shared by the integration tests,
//! examples, and the `perfiso-run` CLI.
//!
//! The [`spec`] module is the one way to describe and run an experiment:
//! a declarative [`spec::ScenarioSpec`] (workload × secondary ×
//! [`Policy`] × target), a registry of named paper scenarios whose sweeps
//! are the figures' policy × load × secondary grids, and a multi-seed
//! runner whose parallel sweeps are bit-identical to serial ones.
//!
//! A spec's run length is its [`spec::ScaleSpec`]: the default keeps test
//! runtimes modest, and `Bench` is the paper figures' 6 s window. The
//! library reads no environment: `perfiso-run run --scale F` shrinks or
//! stretches a `Bench` run by rewriting the spec
//! ([`spec::ScenarioSpec::scaled`]), so every report embeds the run
//! length it measured.

pub mod policies;
pub mod spec;

pub use policies::Policy;
