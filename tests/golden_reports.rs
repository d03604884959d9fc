//! Golden-report regression suite.
//!
//! Each case runs one registry scenario at a small fixed-seed scale and
//! compares the full JSON [`scenarios::spec::Report`] against a fixture
//! committed under `tests/golden/`. The comparison is a `bits_eq`-style
//! walk: every number must match exactly (floats by `to_bits`, via the
//! lossless shortest-round-trip JSON encoding), every object must have
//! exactly the same keys. Any behaviour change in the simulators, the
//! controller, or the spec layer shows up here as a precise JSON path.
//!
//! # Blessing new fixtures
//!
//! When a change is *intentional*, regenerate the fixtures and commit
//! them together with the change:
//!
//! ```text
//! PERFISO_BLESS=1 cargo test -q --test golden_reports
//! git add tests/golden && git diff --staged tests/golden  # review!
//! ```
//!
//! Without `PERFISO_BLESS` the suite never writes; a missing fixture is
//! a failure telling you to bless.

use std::path::PathBuf;

use scenarios::spec::{self, run_spec, RunOptions, ScaleSpec, ScenarioSpec, TargetSpec};
use serde_json::Value;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("PERFISO_BLESS").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Shrinks a registry scenario to a fixed size (explicit window, tiny
/// fleet sweep).
///
/// Chaos scenarios keep their registered window and seed count: their
/// fault timelines use absolute fire times, and shrinking the window
/// would cut the faults off.
fn golden_case(name: &str) -> ScenarioSpec {
    let mut spec = spec::named(name).expect("registered scenario");
    if spec.fault.is_empty() {
        spec.scale = ScaleSpec::Custom {
            warmup_ms: 150,
            measure_ms: 400,
        };
        spec.seeds = 2;
    }
    if let TargetSpec::Fleet {
        sampled_machines,
        minutes,
        slice_ms,
        ..
    } = &mut spec.target
    {
        *sampled_machines = 1;
        *minutes = 2;
        *slice_ms = 80;
    }
    spec.validate().expect("golden case validates");
    spec
}

/// Recursive exact comparison; `path` pinpoints the first mismatch.
fn walk(path: &str, got: &Value, want: &Value) -> Result<(), String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            for (k, wv) in w {
                let gv = got
                    .get(k)
                    .ok_or_else(|| format!("{path}.{k}: missing in report"))?;
                walk(&format!("{path}.{k}"), gv, wv)?;
            }
            for (k, _) in g {
                if want.get(k).is_none() {
                    return Err(format!("{path}.{k}: not in fixture (new field?)"));
                }
            }
            Ok(())
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                return Err(format!("{path}: length {} != fixture {}", g.len(), w.len()));
            }
            for (i, (gv, wv)) in g.iter().zip(w.iter()).enumerate() {
                walk(&format!("{path}[{i}]"), gv, wv)?;
            }
            Ok(())
        }
        (Value::F64(g), Value::F64(w)) => {
            if g.to_bits() == w.to_bits() {
                Ok(())
            } else {
                Err(format!("{path}: {g} != fixture {w} (bits differ)"))
            }
        }
        _ => {
            if got == want {
                Ok(())
            } else {
                Err(format!("{path}: {got:?} != fixture {want:?}"))
            }
        }
    }
}

fn check_golden(name: &str) {
    check_golden_spec(name, &golden_case(name));
}

/// Runs `spec` serially and compares its report with `tests/golden/{name}.json`.
fn check_golden_spec(name: &str, spec: &ScenarioSpec) {
    let report = run_spec(spec, &RunOptions::serial()).expect("golden case runs");
    let text = report.to_json();
    let fixture_path = golden_dir().join(format!("{name}.json"));

    if blessing() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&fixture_path, &text).expect("write fixture");
        eprintln!("blessed {}", fixture_path.display());
        return;
    }

    let fixture = std::fs::read_to_string(&fixture_path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run `PERFISO_BLESS=1 cargo test -q --test \
             golden_reports` and commit the result",
            fixture_path.display()
        )
    });
    let got: Value = serde_json::from_str(&text).expect("report JSON parses");
    let want: Value = serde_json::from_str(&fixture).expect("fixture JSON parses");
    if let Err(msg) = walk("$", &got, &want) {
        panic!(
            "{name}: report deviates from golden fixture at {msg}\n\
             If this change is intentional, re-bless with PERFISO_BLESS=1 \
             (see the header of tests/golden_reports.rs)."
        );
    }
}

#[test]
fn golden_quickstart() {
    check_golden("quickstart");
}

#[test]
fn golden_fig04_no_isolation() {
    check_golden("fig04");
}

#[test]
fn golden_io_throttle() {
    check_golden("io-throttle");
}

#[test]
fn golden_fleet_smoke() {
    check_golden("fleet-smoke");
}

#[test]
fn golden_fleet_production() {
    check_golden("fleet-production");
}

#[test]
fn golden_chaos_controller_crash() {
    check_golden("chaos-controller-crash");
}

#[test]
fn golden_chaos_crash_loop() {
    check_golden("chaos-crash-loop");
}

#[test]
fn golden_chaos_config_rollout() {
    check_golden("chaos-config-rollout");
}

#[test]
fn golden_chaos_secondary_churn() {
    check_golden("chaos-secondary-churn");
}

#[test]
fn golden_chaos_churn_storm() {
    check_golden("chaos-churn-storm");
}

#[test]
fn golden_chaos_connection_flood() {
    check_golden("chaos-connection-flood");
}

#[test]
fn golden_chaos_quota_exhaustion() {
    check_golden("chaos-quota-exhaustion");
}

#[test]
fn golden_graph_hedged() {
    check_golden("graph-hedged");
}

#[test]
fn golden_graph_chain() {
    check_golden("graph-chain");
}

#[test]
fn golden_graph_fanout() {
    check_golden("graph-fanout");
}

#[test]
fn golden_dual_primary_arbitration() {
    check_golden("dual-primary-arbitration");
}

#[test]
fn golden_cluster_small() {
    check_golden("cluster-small");
}

/// The paper topology (4 TLAs, 44 index boxes, HDFS, `FullPerfIso`) at a
/// 10 + 20 ms window and one seed: `golden_case`'s 150 + 400 ms window
/// would cost several seconds of release time per run on 75 machines.
#[test]
fn golden_fig09() {
    let mut spec = spec::named("fig09").expect("registered scenario");
    spec.scale = ScaleSpec::Custom {
        warmup_ms: 10,
        measure_ms: 20,
    };
    spec.seeds = 1;
    spec.validate().expect("golden case validates");
    check_golden_spec("fig09", &spec);
}

/// The arbitration fixture is the acceptance surface for multi-primary
/// boxes: both colocated services must appear with their own measured
/// tails, and both must actually complete queries under the bully.
#[test]
fn dual_primary_fixture_reports_both_service_tails() {
    if blessing() {
        return; // fixtures may be mid-regeneration
    }
    let path = golden_dir().join("dual-primary-arbitration.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let report: spec::Report = serde_json::from_str(&text).expect("fixture parses");
    for run in report.box_reports() {
        assert_eq!(run.services.len(), 2, "two service rows per seed");
        assert_eq!(run.services[0].name, "web");
        assert_eq!(run.services[1].name, "ads");
        for svc in &run.services {
            assert!(svc.latency.count > 0, "{}: no completions", svc.name);
            assert!(
                svc.latency.p99 > simcore::SimDuration::ZERO,
                "{}: p99 unmeasured",
                svc.name
            );
        }
    }
}

/// The production-fleet fixture is the acceptance surface for sketch
/// telemetry: the committed report must carry a merged percentile
/// summary with the advertised relative-error guarantee, and the other
/// fleet fixture (exact telemetry) must not grow a sketch key.
#[test]
fn fleet_production_fixture_reports_merged_sketch() {
    if blessing() {
        return; // fixtures may be mid-regeneration
    }
    let path = golden_dir().join("fleet-production.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let report: spec::Report = serde_json::from_str(&text).expect("fixture parses");
    for run in &report.runs {
        let fleet = run.as_fleet().expect("fleet report");
        let sketch = fleet
            .latency_sketch
            .as_ref()
            .expect("sketch telemetry merged into the report");
        assert!(sketch.count > 0, "sketch saw measured traffic");
        assert!(sketch.relative_error > 0.0 && sketch.relative_error < 0.02);
        assert!(sketch.p50 <= sketch.p99 && sketch.p99 <= sketch.max);
    }

    let exact = std::fs::read_to_string(golden_dir().join("fleet-smoke.json"))
        .expect("fleet-smoke fixture");
    assert!(
        !exact.contains("latency_sketch"),
        "exact-telemetry fleet fixture must stay sketch-free"
    );
}

/// The fixtures themselves must round-trip through serde — guards
/// against committing a hand-edited fixture the loader cannot parse.
#[test]
fn golden_fixtures_parse_as_reports() {
    if blessing() {
        return; // fixtures may be mid-regeneration
    }
    for name in [
        "quickstart",
        "fig04",
        "io-throttle",
        "fleet-smoke",
        "fleet-production",
        "chaos-controller-crash",
        "chaos-crash-loop",
        "chaos-config-rollout",
        "chaos-secondary-churn",
        "chaos-churn-storm",
        "chaos-connection-flood",
        "chaos-quota-exhaustion",
        "graph-chain",
        "graph-fanout",
        "graph-hedged",
        "dual-primary-arbitration",
        "cluster-small",
        "fig09",
    ] {
        let path = golden_dir().join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let report: spec::Report =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(report.spec.name, name);
        assert_eq!(report.runs.len(), report.seeds.len());
    }
}
