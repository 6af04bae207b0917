//! The phase-timed repair run reproduces `scenario::run` byte for byte: same
//! event log (as `lifeguard-sim` prints it) and same ground-truth downtime
//! on the same scenario.

use lg_e2ebench::repair::{self, RepairWorkload};
use lifeguard_repro::scenario::{
    self, AsPick, ElementSpec, FailureSpec, Scenario, TopologySpec, TowardSpec,
};

/// Run `w` through `repair::run`, then the scenario it resolved through
/// `scenario::run`, and compare.
fn assert_reproduces(spec: TopologySpec, w: RepairWorkload) {
    let (out, tm) = repair::run(&w);
    assert!(out.failures.is_empty(), "checks failed: {:?}", out.failures);
    assert!(!out.events.is_empty(), "the scenario exercised nothing");
    assert_eq!(tm.tick_ms.len(), (w.duration_min * 2 - 1) as usize);

    let scenario = Scenario {
        topology: spec,
        origin: AsPick::Explicit(out.cast.origin.0),
        targets: out
            .cast
            .targets
            .iter()
            .map(|t| AsPick::Explicit(t.0))
            .collect(),
        vantage_points: out
            .cast
            .vantage_points
            .iter()
            .map(|v| AsPick::Explicit(v.0))
            .collect(),
        failures: out
            .cast
            .failures
            .iter()
            .map(|f| FailureSpec {
                element: ElementSpec::As(f.element.0),
                toward: TowardSpec::OriginPrefixes,
                start_min: f.start_min,
                end_min: Some(f.end_min),
            })
            .collect(),
        duration_min: w.duration_min,
    };
    let reference = scenario::run(&scenario).expect("scenario runs");
    let lines: Vec<String> = out.events.iter().map(|e| e.to_string()).collect();
    assert_eq!(lines, reference.log_lines(), "event logs differ");
    assert_eq!(out.downtime_ms, reference.downtime_ms, "downtime differs");
    assert_eq!(out.cast.targets, reference.targets);
    assert_eq!(out.cast.origin, reference.origin);
}

#[test]
fn timed_run_reproduces_scenario_run_on_a_custom_topology() {
    let spec = TopologySpec::Custom {
        tier1: 3,
        tier2: 10,
        tier3: 40,
        stubs: 250,
        seed: 5,
    };
    assert_reproduces(
        spec.clone(),
        RepairWorkload {
            topology: spec.to_config(),
            targets: 8,
            failures: 8,
            first_failure_min: 5,
            stagger_min: 10,
            duration_min: 120,
            seed: 11,
        },
    );
}

#[test]
fn timed_run_reproduces_scenario_run_on_the_storm_workload() {
    // The benchmark's own `repair_storm` inputs, cut to the first two
    // simulated hours so the test stays quick in a debug build.
    let w = RepairWorkload {
        duration_min: 120,
        ..RepairWorkload::repair_storm(3, 0)
    };
    assert_reproduces(
        TopologySpec::Medium {
            seed: repair::TOPOLOGY_SEED,
        },
        w,
    );
}
