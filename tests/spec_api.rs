//! Workspace-level tests for the unified scenario API: registry
//! completeness, JSON round-trips of specs and reports, and CLI-shaped
//! multi-seed determinism.

use scenarios::spec::{
    self, run_spec, ControllerSpec, Report, RunOptions, ScaleSpec, ScenarioSpec, TenantLimitSpec,
};
use scenarios::Policy;
use workloads::{BullyIntensity, DiskBully};

#[test]
fn registry_has_the_paper_scenarios() {
    let names = spec::names();
    assert!(names.len() >= 8, "need >= 8 named scenarios, got {names:?}");
    for required in [
        "quickstart",
        "standalone",
        "fig04",
        "fig05",
        "fig06",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "io-throttle",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "scenario {required} missing from registry"
        );
    }
}

#[test]
fn every_registry_spec_validates_and_round_trips() {
    for spec in spec::registry() {
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{} does not round-trip: {e}", spec.name));
        assert_eq!(back, spec, "{} changed across JSON round-trip", spec.name);
    }
}

#[test]
fn report_round_trips_through_json() {
    // A shrunk fig05: same policy x secondary cell, test-sized window.
    let mut spec = spec::named("fig05").expect("registered");
    spec.scale = ScaleSpec::Custom {
        warmup_ms: 150,
        measure_ms: 350,
    };
    spec.seeds = 2;
    let report = run_spec(&spec, &RunOptions::serial()).expect("runnable");
    let text = report.to_json();
    let back: Report = serde_json::from_str(&text).expect("report JSON parses");
    assert_eq!(back.spec, report.spec);
    assert_eq!(back.seeds, report.seeds);
    assert_eq!(back.runs.len(), report.runs.len());
    for (a, b) in report.runs.iter().zip(back.runs.iter()) {
        let (a, b) = (
            a.as_single_box().expect("single box"),
            b.as_single_box().expect("single box"),
        );
        assert_eq!(a.latency.count, b.latency.count);
        assert_eq!(a.latency.p99, b.latency.p99);
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.controller, b.controller);
    }
    assert_eq!(
        back.summary.p99_ms.values().len(),
        report.summary.p99_ms.values().len()
    );
}

/// The acceptance-criteria shape: a named scenario swept over many seeds
/// must be bit-identical between `--threads 0` and `--threads 1` (here
/// with a test-sized window; the window length does not affect the
/// fan-out machinery).
#[test]
fn named_scenario_multi_seed_parallel_matches_serial() {
    let mut spec = spec::named("fig05").expect("registered");
    spec.scale = ScaleSpec::Custom {
        warmup_ms: 150,
        measure_ms: 300,
    };
    let serial = run_spec(
        &spec,
        &RunOptions {
            seeds: Some(5),
            threads: 1,
        },
    )
    .expect("runnable");
    let parallel = run_spec(
        &spec,
        &RunOptions {
            seeds: Some(5),
            threads: 0,
        },
    )
    .expect("runnable");
    assert_eq!(serial.seeds, parallel.seeds);
    for (i, (a, b)) in serial.runs.iter().zip(parallel.runs.iter()).enumerate() {
        let (a, b) = (
            a.as_single_box().expect("single box"),
            b.as_single_box().expect("single box"),
        );
        assert_eq!(a.latency.p50, b.latency.p50, "seed {i}");
        assert_eq!(a.latency.p95, b.latency.p95, "seed {i}");
        assert_eq!(a.latency.p99, b.latency.p99, "seed {i}");
        assert_eq!(a.latency.count, b.latency.count, "seed {i}");
        assert_eq!(a.latency.dropped, b.latency.dropped, "seed {i}");
        assert_eq!(a.machine, b.machine, "seed {i}");
        assert_eq!(a.controller, b.controller, "seed {i}");
        assert_eq!(
            a.breakdown.utilization().to_bits(),
            b.breakdown.utilization().to_bits(),
            "seed {i}"
        );
    }
}

#[test]
fn spec_errors_render_usefully() {
    let err = spec::named("nope").expect_err("unknown scenario");
    assert!(err.to_string().contains("nope"));
    let err = ScenarioSpec::from_json("{not json").expect_err("bad file");
    assert!(err.to_string().contains("spec file"));
}

/// Every `ControllerSpec` override reaches a simulated mechanism: each
/// knob, set to two values over a short run, changes the per-seed reports.
/// Only `runs` is compared; the spec echo differs whenever the knob does.
#[test]
fn every_controller_knob_reaches_a_report() {
    let bully = ScenarioSpec::builder("knob")
        .single_box(2_000.0)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::Blind { buffer_cores: 8 })
        .custom_scale(100, 200);
    let hdfs = ScenarioSpec::builder("knob")
        .single_box(2_000.0)
        .disk_bully(DiskBully::default())
        .hdfs()
        .policy(Policy::FullPerfIso)
        .custom_scale(100, 200);
    // The box fills ~92 % of memory with the bully's 2 GiB in it. A 10 ms
    // watchdog period lets a kill land inside the window.
    let watchdog = ControllerSpec {
        memory_poll_interval_us: Some(10_000),
        ..ControllerSpec::default()
    };
    let client_cap = |mbps| ControllerSpec {
        tenant_limits: vec![TenantLimitSpec {
            service: "hdfs-client".into(),
            mbps: Some(mbps),
            iops: None,
        }],
        ..ControllerSpec::default()
    };
    let rows = [
        (
            "buffer_cores",
            &bully,
            ControllerSpec {
                buffer_cores: Some(1),
                ..ControllerSpec::default()
            },
            ControllerSpec {
                buffer_cores: Some(8),
                ..ControllerSpec::default()
            },
        ),
        (
            "cpu_poll_interval_us",
            &bully,
            ControllerSpec {
                cpu_poll_interval_us: Some(1_000),
                ..ControllerSpec::default()
            },
            ControllerSpec {
                cpu_poll_interval_us: Some(20_000),
                ..ControllerSpec::default()
            },
        ),
        (
            "io_poll_interval_us",
            &hdfs,
            ControllerSpec {
                io_poll_interval_us: Some(10_000),
                ..ControllerSpec::default()
            },
            ControllerSpec {
                io_poll_interval_us: Some(100_000),
                ..ControllerSpec::default()
            },
        ),
        (
            "memory_poll_interval_us",
            &bully,
            ControllerSpec {
                memory_kill_watermark: Some(0.85),
                ..watchdog.clone()
            },
            ControllerSpec {
                memory_kill_watermark: Some(0.85),
                memory_poll_interval_us: Some(1_000_000),
                ..ControllerSpec::default()
            },
        ),
        (
            "secondary_memory_limit_mb",
            &bully,
            ControllerSpec {
                secondary_memory_limit_mb: Some(1_024),
                ..watchdog.clone()
            },
            ControllerSpec {
                secondary_memory_limit_mb: Some(4_096),
                ..watchdog.clone()
            },
        ),
        (
            "memory_kill_watermark",
            &bully,
            ControllerSpec {
                memory_kill_watermark: Some(0.85),
                ..watchdog.clone()
            },
            ControllerSpec {
                memory_kill_watermark: Some(0.95),
                ..watchdog.clone()
            },
        ),
        ("tenant_limits", &hdfs, client_cap(1), client_cap(240)),
    ];
    // Every field, without `..Default::default()`: a new knob stops this
    // from compiling until it has a row above.
    let every_knob = ControllerSpec {
        buffer_cores: Some(1),
        cpu_poll_interval_us: Some(1),
        io_poll_interval_us: Some(1),
        memory_poll_interval_us: Some(1),
        secondary_memory_limit_mb: Some(1),
        memory_kill_watermark: Some(1.0),
        tenant_limits: vec![TenantLimitSpec::default()],
    };
    assert_eq!(rows.len(), every_knob.overrides().len(), "one row per knob");
    for (knob, base, a, b) in rows {
        let runs = |ctl: ControllerSpec| {
            let spec = base.clone().controller(ctl).build().expect(knob);
            let report = run_spec(&spec, &RunOptions::serial()).expect(knob);
            serde_json::to_string(&report.runs).expect("runs serialize")
        };
        assert_ne!(runs(a), runs(b), "{knob}: both values report the same runs");
    }
}
