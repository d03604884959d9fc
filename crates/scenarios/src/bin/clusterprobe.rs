//! Diagnostic: step the small-cluster baseline manually and report where
//! virtual time stops advancing. The experiment is the registry's
//! `cluster-small` scenario with its secondary stripped.

use scenarios::spec;

fn main() {
    let mut s = spec::named("cluster-small").expect("registered scenario");
    s.secondary = indexserve::SecondaryKind::none();
    s.validate().expect("still a valid spec");
    eprintln!("running {} ({})", s.name, s.target.describe());
    let report = s
        .cluster_sim(3)
        .expect("cluster scenario")
        .run_traced(5_000);
    eprintln!(
        "completed={} degraded={}",
        report.completed, report.degraded
    );
}
