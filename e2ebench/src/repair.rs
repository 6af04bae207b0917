//! The repair workloads: one LIFEGUARD deployment monitoring a set of
//! targets through a timeline of silent reverse-path failures.
//!
//! [`run`] makes the public calls `lifeguard_repro::scenario::run` makes,
//! in the same order and with the same arguments, and times each one from
//! outside: topology generation, `Network::new`, `World::new` (infra
//! fixed points for every AS), `Lifeguard::install`, then one
//! `Lifeguard::tick` per ping interval followed by the time-series sample
//! and the ground-truth round trips. The equivalence test in
//! `tests/equivalence.rs` pins the event log and downtime byte for byte
//! against `scenario::run` on the same scenario.
//!
//! Correctness checks run outside the timed calls: every `Repaired` event
//! is confirmed with a round trip right after the tick that logs it, at the
//! time the event claims (the data plane is not time-versioned, so only an
//! in-loop check sees the tables the repair produced), and after setup a
//! seeded sample of walks must be loop-free and follow the installed infra
//! tables.

use crate::measure::{proc_status_kib, run_seed, timed, Digest};
use lg_asmap::{AsId, TopologyConfig, TopologyKind};
use lg_bgp::Prefix;
use lg_sim::dataplane::{infra_addr, infra_prefix};
use lg_sim::{DataPlane, Failure, Network, Time, WalkOutcome};
use lg_telemetry::TelemetrySnapshot;
use lifeguard_core::{Event, EventKind, Lifeguard, LifeguardConfig, World};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// The production prefix every repair workload announces.
pub fn production() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

/// The less-specific sentinel covering the production prefix.
pub fn sentinel() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 19)
}

/// Inputs of one repair workload. Everything random derives from `seed`.
#[derive(Clone, Debug)]
pub struct RepairWorkload {
    /// Topology to generate.
    pub topology: TopologyConfig,
    /// Monitored multihomed-stub targets.
    pub targets: usize,
    /// Silent reverse-transit failures, one per target in turn.
    pub failures: usize,
    /// Start of the first failure, simulated minutes.
    pub first_failure_min: u64,
    /// Start-to-start spacing of consecutive failures, minutes.
    pub stagger_min: u64,
    /// Simulated run length, minutes.
    pub duration_min: u64,
    /// Seed for the target and vantage-point draw.
    pub seed: u64,
}

/// Topology seed of the repair workloads. The topology and the origin are
/// fixed, like one deployment on the one Internet; the workload seed draws
/// who is monitored and which transit ASes fail.
pub const TOPOLOGY_SEED: u64 = 1;

impl RepairWorkload {
    /// About 3k ASes with the `large` tier ratios, 16 targets, 8 failures,
    /// 120 simulated minutes: the run is dominated by `World::new`. Run
    /// `run` of a process draws its own targets from `seed`.
    pub fn repair_setup(seed: u64, run: u64) -> Self {
        let large = TopologyConfig::large(TOPOLOGY_SEED);
        RepairWorkload {
            topology: TopologyConfig {
                kind: TopologyKind::Hierarchical,
                tier1: large.tier1 * 3 / 10,
                tier2: large.tier2 * 3 / 10,
                tier3: large.tier3 * 3 / 10,
                stubs: large.stubs * 3 / 10,
                ..large
            },
            targets: 16,
            failures: 8,
            first_failure_min: 5,
            stagger_min: 10,
            duration_min: 120,
            seed: run_seed(seed, run),
        }
    }

    /// `medium` (about 1k ASes), 60 targets, 3 vantage points and 60
    /// staggered 40-minute failures over 600 simulated minutes: the run is
    /// dominated by the monitoring loop and the incidents it handles. Run
    /// `run` of a process draws its own targets from `seed`.
    pub fn repair_storm(seed: u64, run: u64) -> Self {
        RepairWorkload {
            topology: TopologyConfig::medium(TOPOLOGY_SEED),
            targets: 60,
            failures: 60,
            first_failure_min: 10,
            stagger_min: 9,
            duration_min: 600,
            seed: run_seed(seed, run),
        }
    }
}

/// One planned failure: `element` silently drops traffic toward the
/// deployment's prefixes during `[start_min, end_min)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFailure {
    /// The failed transit AS.
    pub element: AsId,
    /// Start, simulated minutes.
    pub start_min: u64,
    /// End, simulated minutes.
    pub end_min: u64,
}

/// The resolved cast of a run.
#[derive(Clone, Debug)]
pub struct Cast {
    /// LIFEGUARD's origin.
    pub origin: AsId,
    /// Monitored targets.
    pub targets: Vec<AsId>,
    /// Vantage points.
    pub vantage_points: Vec<AsId>,
    /// The failure timeline.
    pub failures: Vec<PlannedFailure>,
}

/// Wall-clock timings of one run, seconds unless noted.
#[derive(Clone, Debug, Default)]
pub struct RepairTimings {
    /// `TopologyConfig::generate`.
    pub generate_s: f64,
    /// `World::new`: infra fixed points for every AS.
    pub infra_s: f64,
    /// Resident-set growth across `World::new`, KiB.
    pub infra_rss_kib: u64,
    /// `Lifeguard::new` + `Lifeguard::install`.
    pub install_s: f64,
    /// Topology build to the end of `install`.
    pub setup_s: f64,
    /// Latency of every `Lifeguard::tick`, ms.
    pub tick_ms: Vec<f64>,
    /// Latency of the ticks that detected an outage (and so ran isolation
    /// and repair planning), ms.
    pub incident_ms: Vec<f64>,
    /// Total of the ground-truth round trips.
    pub groundtruth_s: f64,
    /// Ground-truth round trips made.
    pub round_trips: u64,
    /// Total of the per-tick time-series samples.
    pub sample_s: f64,
    /// The tick loop, without the checks made inside it.
    pub run_s: f64,
    /// Global telemetry moved by the timed calls.
    pub counters: TelemetrySnapshot,
    /// Flight-recorder tick at the end of the timed calls (0 untraced).
    pub end_tick_ns: u64,
}

/// What a run produced and what its checks found.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The cast the run used.
    pub cast: Cast,
    /// LIFEGUARD's event log.
    pub events: Vec<Event>,
    /// Ground-truth downtime per target, ms.
    pub downtime_ms: Vec<(AsId, u64)>,
    /// Checks made: repair confirmations plus sample walks.
    pub checks: u64,
    /// Checks that failed, each with a reason.
    pub failures: Vec<String>,
}

impl RepairOutcome {
    /// Digest of the run's observable outputs: the event log as
    /// `lifeguard-sim` prints it and the per-target downtime.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for e in &self.events {
            d.bytes(e.to_string().as_bytes());
            d.bytes(b"\n");
        }
        for (t, ms) in &self.downtime_ms {
            d.u64(u64::from(t.0));
            d.u64(*ms);
        }
        d.value()
    }
}

/// Seeded walks checked after setup.
const SAMPLE_WALKS: usize = 256;

/// Vantage points assisting isolation.
pub const VANTAGE_POINTS: usize = 3;

/// Length of each failure, minutes.
pub const FAILURE_LEN_MIN: u64 = 40;

/// The cast, from the multihomed stubs: the origin is the first of them
/// (the scenario format's `"auto"` origin), targets and vantage points are
/// drawn from the rest by the workload seed.
pub fn draw_cast(net: &Network, w: &RepairWorkload) -> Cast {
    let g = net.graph();
    let mut pool: Vec<AsId> = g
        .ases()
        .filter(|a| g.is_stub(*a) && g.providers(*a).len() >= 2)
        .collect();
    if let Some(rest) = pool.get_mut(1..) {
        rest.shuffle(&mut SmallRng::seed_from_u64(w.seed));
    }
    let need = 1 + w.targets + VANTAGE_POINTS;
    assert!(
        pool.len() >= need,
        "topology has {} multihomed stubs, the workload needs {need}",
        pool.len()
    );
    Cast {
        origin: pool[0],
        targets: pool[1..1 + w.targets].to_vec(),
        vantage_points: pool[1 + w.targets..need].to_vec(),
        failures: Vec::new(),
    }
}

/// Failure `i` hits the first transit AS on the reverse path from target
/// `i` (cyclically) back to the production prefix, as the scenario
/// format's `{"auto": "reverse_transit"}` element does for one target.
fn plan_failures(world: &World<'_>, w: &RepairWorkload, cast: &Cast) -> Vec<PlannedFailure> {
    let transits: Vec<AsId> = cast
        .targets
        .iter()
        .filter_map(|t| {
            let hops = world
                .dp
                .walk(Time::ZERO, *t, production().nth_addr(1))
                .as_hops();
            hops.get(1).copied().filter(|a| *a != cast.origin)
        })
        .collect();
    assert!(!transits.is_empty(), "no target has a reverse transit AS");
    (0..w.failures)
        .map(|i| {
            let start_min = w.first_failure_min + i as u64 * w.stagger_min;
            PlannedFailure {
                element: transits[i % transits.len()],
                start_min,
                end_min: start_min + FAILURE_LEN_MIN,
            }
        })
        .collect()
}

/// Install the failure timeline exactly as `scenario::run` installs a
/// failure with `"toward": "origin_prefixes"`.
fn install_failures(dp: &mut DataPlane<'_>, origin: AsId, failures: &[PlannedFailure]) {
    for f in failures {
        for toward in [production(), sentinel(), infra_prefix(origin)] {
            let mut fail = Failure::silent_as(f.element).window(
                Time::from_mins(f.start_min),
                Some(Time::from_mins(f.end_min)),
            );
            fail.toward = Some(toward);
            dp.failures_mut().add(fail);
        }
    }
}

/// Whether a round trip from the production prefix to `target` delivers
/// both ways at `now`.
pub fn round_trip_up(dp: &DataPlane<'_>, now: Time, origin: AsId, target: AsId) -> bool {
    let (fwd, rev) = dp.round_trip(
        now,
        origin,
        production().nth_addr(1),
        infra_prefix(target).nth_addr(1),
    );
    fwd.outcome.delivered() && rev.is_some_and(|r| r.outcome.delivered())
}

/// Confirm the `Repaired` events among `new_events`, just logged by one
/// tick, against the data plane as that tick left it: a round trip at the
/// time each event claims traffic was restored must deliver. Returns the
/// number checked and pushes a reason per failure.
pub fn confirm_repairs(
    dp: &DataPlane<'_>,
    origin: AsId,
    new_events: &[Event],
    failures: &mut Vec<String>,
) -> u64 {
    let mut checked = 0;
    for e in new_events {
        if let EventKind::Repaired { target, .. } = e.kind {
            checked += 1;
            if !round_trip_up(dp, e.at, origin, target) {
                failures.push(format!(
                    "repair of {target} logged at {} but its round trip fails then",
                    e.at
                ));
            }
        }
    }
    checked
}

/// Walk seeded `(src, dst)` pairs toward infra addresses: each walk must be
/// loop-free and follow the installed infra table hop for hop. Returns the
/// number of walks checked.
pub fn check_sample_walks(dp: &DataPlane<'_>, seed: u64, failures: &mut Vec<String>) -> u64 {
    use rand::Rng;
    let n = dp.network().len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5a3b);
    for _ in 0..SAMPLE_WALKS {
        let src = AsId(rng.gen_range(0..n) as u32);
        let dst = AsId(rng.gen_range(0..n) as u32);
        let walk = dp.walk(Time::ZERO, src, infra_addr(dst));
        let hops = walk.as_hops();
        let mut seen = hops.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != hops.len() || matches!(walk.outcome, WalkOutcome::ForwardingLoop(_)) {
            failures.push(format!("walk {src} -> {dst} loops: {hops:?}"));
            continue;
        }
        let Some(table) = dp.table(infra_prefix(dst)) else {
            failures.push(format!("no infra table installed for {dst}"));
            continue;
        };
        let expected = if src == dst {
            Some(Vec::new())
        } else {
            table.as_path(src)
        };
        let agrees = match expected {
            Some(path) => walk.outcome.delivered() && hops[1..] == path[..],
            None => walk.outcome == WalkOutcome::NoRoute(src),
        };
        if !agrees {
            failures.push(format!(
                "walk {src} -> {dst} ({:?}, {hops:?}) disagrees with the table path {:?}",
                walk.outcome,
                table.as_path(src)
            ));
        }
    }
    SAMPLE_WALKS as u64
}

/// Run the workload once, timing each public call.
pub fn run(w: &RepairWorkload) -> (RepairOutcome, RepairTimings) {
    let mut tm = RepairTimings::default();
    let before = lg_telemetry::global().snapshot();
    let setup_start = Instant::now();
    let (graph, s) = timed("asmap.generate", || w.topology.generate());
    tm.generate_s = s;
    let (net, _) = timed("sim.network", || Network::new(graph));
    let mut cast = draw_cast(&net, w);
    let rss_before = proc_status_kib("VmRSS").unwrap_or(0);
    let (mut world, s) = timed("sim.infra", || World::new(&net));
    tm.infra_s = s;
    tm.infra_rss_kib = proc_status_kib("VmRSS")
        .unwrap_or(0)
        .saturating_sub(rss_before);
    let mut cfg = LifeguardConfig::paper_defaults(cast.origin, production(), sentinel());
    cfg.targets = cast.targets.clone();
    cfg.vantage_points = cast.vantage_points.clone();
    let (mut lifeguard, s) = timed("core.install", || {
        let mut lifeguard = Lifeguard::new(cfg);
        lifeguard.install(&mut world, Time::ZERO);
        lifeguard
    });
    tm.install_s = s;
    tm.setup_s = setup_start.elapsed().as_secs_f64();

    // Untimed: setup checks and the failure timeline.
    let mut failures = Vec::new();
    let mut checks = check_sample_walks(&world.dp, w.seed, &mut failures);
    cast.failures = plan_failures(&world, w, &cast);
    install_failures(&mut world.dp, cast.origin, &cast.failures);

    let interval = lifeguard.config().ping_interval_ms;
    let mut downtime: Vec<(AsId, u64)> = cast.targets.iter().map(|t| (*t, 0)).collect();
    let mut now = Time::from_secs(60);
    let end = Time::from_mins(w.duration_min);
    let run_start = Instant::now();
    let mut untimed = 0.0;
    while now <= end {
        let logged = lifeguard.events().len();
        let ((), tick_s) = timed("core.tick", || lifeguard.tick(&mut world, now));
        let ((), s) = timed("telemetry.sample", || {
            lg_telemetry::sample_global_timeseries(now.millis())
        });
        tm.sample_s += s;
        let ((), s) = timed("sim.groundtruth", || {
            for (t, d) in downtime.iter_mut() {
                if !round_trip_up(&world.dp, now, cast.origin, *t) {
                    *d += interval;
                }
            }
        });
        tm.groundtruth_s += s;
        tm.round_trips += downtime.len() as u64;
        tm.tick_ms.push(tick_s * 1e3);
        let new_events = &lifeguard.events()[logged..];
        if new_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::OutageDetected { .. }))
        {
            tm.incident_ms.push(tick_s * 1e3);
        }
        if !new_events.is_empty() {
            let check_start = Instant::now();
            checks += confirm_repairs(&world.dp, cast.origin, new_events, &mut failures);
            untimed += check_start.elapsed().as_secs_f64();
        }
        now += interval;
    }
    tm.run_s = run_start.elapsed().as_secs_f64() - untimed;
    tm.end_tick_ns = lg_telemetry::trace::recorder().map_or(0, |r| r.tick_ns());
    tm.counters = lg_telemetry::global().snapshot().since(&before);

    let outcome = RepairOutcome {
        cast,
        events: lifeguard.events().to_vec(),
        downtime_ms: downtime,
        checks,
        failures,
    };
    (outcome, tm)
}
