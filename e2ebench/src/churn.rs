//! The BGP churn workload: a converged multi-prefix pool on an
//! Internet-calibrated topology, hit by a dense churn schedule and driven
//! back to quiescence by the dynamic engine.
//!
//! Setup converges the pool (`DynamicSim::announce` per prefix, then
//! `run_until_quiescent`). The run applies a `lg_workloads::churn`
//! schedule through `ChurnRunner`, advancing the clock in steps of at most
//! one second of simulated time, then keeps stepping until
//! the engine is quiescent. Each step is one "tick" of the workload; the
//! steps that apply control-plane operations are its incidents.
//!
//! After quiescence (outside the timed phases) every announced prefix's
//! Loc-RIB next hops must equal `compute_routes` over the surviving
//! topology, and withdrawn prefixes must hold no route anywhere.

use crate::measure::{run_seed, timed, Digest};
use lg_asmap::{AsId, TopologyConfig};
use lg_sim::{compute_routes, DynamicSim, DynamicSimConfig, Network, Time};
use lg_telemetry::TelemetrySnapshot;
use lg_workloads::churn::{generate_ops, ChurnConfig, ChurnOp, ChurnRunner, ChurnWorld};
use std::time::Instant;

/// Topology seed of the churn workload: the topology is fixed and the
/// workload seed draws the churn schedules.
pub const TOPOLOGY_SEED: u64 = 1;
/// Calibrated topology size, ASes.
const ASES: usize = 10_000;
/// Prefixes in the pool, announced in rotating plain / prepended /
/// poisoned shapes.
const PREFIXES: usize = 16;
/// Operations in one churn schedule.
const OPS: usize = 60;
/// Upper bound on one clock advance of the schedule: well inside the
/// default 30 s MRAI, so operations land in MRAI shadows (dense churn).
const ADVANCE_MAX_MS: u64 = 2_000;
/// Simulated time one step advances at most.
const STEP_MS: u64 = 1_000;
/// Simulated time allowed to reach quiescence.
const DEADLINE_MIN: u64 = 600;

/// Wall-clock timings of one run, seconds unless noted.
#[derive(Clone, Debug, Default)]
pub struct ChurnTimings {
    /// `TopologyConfig::generate`.
    pub generate_s: f64,
    /// Announcing the pool and running it to quiescence.
    pub converge_s: f64,
    /// Topology build to the converged pool.
    pub setup_s: f64,
    /// Steps while the schedule still has operations.
    pub churn_s: f64,
    /// Steps after the last operation, until quiescence.
    pub quiescence_s: f64,
    /// Latency of every step, ms.
    pub tick_ms: Vec<f64>,
    /// Latency of the steps that applied operations, ms.
    pub incident_ms: Vec<f64>,
    /// Churn plus quiescence.
    pub run_s: f64,
    /// UPDATEs sent during churn and quiescence (setup excluded).
    pub run_updates: u64,
    /// Global telemetry moved by the timed phases.
    pub counters: TelemetrySnapshot,
    /// Flight-recorder tick at the end of the timed phases (0 untraced).
    pub end_tick_ns: u64,
}

/// Engine state sizes at quiescence.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineState {
    /// Distinct interned AS paths.
    pub interned_paths: usize,
    /// Loc-RIB entries.
    pub loc_entries: usize,
    /// Adj-RIB-In entries.
    pub adj_entries: usize,
    /// Per-peer out-queue state entries.
    pub out_state_entries: usize,
}

/// What a run produced and what its checks found.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    /// Digest of every prefix's Loc-RIB next hops and the final clock.
    pub digest: u64,
    /// Engine state at quiescence.
    pub state: EngineState,
    /// Checks made: one per (prefix, AS) next hop, plus one per
    /// quiescence.
    pub checks: u64,
    /// Checks that failed, each with a reason.
    pub failures: Vec<String>,
}

/// Advance `sim` to `target` in steps of at most [`STEP_MS`], applying
/// `ops` at the start of the first step; each step is timed into `tm`.
fn step_to(
    sim: &mut DynamicSim<'_>,
    runner: &mut ChurnRunner<'_>,
    net: &Network,
    ops: &[ChurnOp],
    target: Time,
    tm: &mut ChurnTimings,
) {
    let mut first = true;
    while first || sim.now() < target {
        let until = (sim.now() + STEP_MS).min(target);
        let ((), s) = timed("dynamic.step", || {
            if first {
                for op in ops {
                    runner.apply(sim, net, op);
                }
            }
            sim.run_until(until);
        });
        tm.tick_ms.push(s * 1e3);
        if first && !ops.is_empty() {
            tm.incident_ms.push(s * 1e3);
        }
        first = false;
    }
}

/// Compare every pool slot against the static fixed point over the
/// surviving topology.
pub fn check_against_static(
    sim: &DynamicSim<'_>,
    net: &Network,
    world: &ChurnWorld,
    runner: &ChurnRunner<'_>,
    failures: &mut Vec<String>,
) -> u64 {
    let mut g = net.graph().clone();
    for (a, b) in runner.down() {
        g = g.without_link(*a, *b);
    }
    let cut = Network::new(g);
    let mut checks = 0;
    for (slot, shape) in runner.announced().iter().enumerate() {
        let prefix = world.prefixes[slot];
        let table = shape.map(|shape| compute_routes(&cut, &world.spec(&cut, slot as u8, shape)));
        for a in net.graph().ases() {
            if a == world.origin {
                continue;
            }
            checks += 1;
            let got = sim.loc_route(a, prefix).map(|r| r.learned_from);
            let want = table.as_ref().and_then(|t| t.next_hop(a));
            if got != want {
                failures.push(format!(
                    "{a} routes {prefix:?} via {got:?}, the static fixed point via {want:?}"
                ));
            }
        }
    }
    checks
}

fn digest(sim: &DynamicSim<'_>, net: &Network, world: &ChurnWorld) -> u64 {
    let mut d = Digest::default();
    d.u64(sim.now().millis());
    for prefix in &world.prefixes {
        for a in net.graph().ases() {
            let hop = sim.loc_route(a, *prefix).map(|r| r.learned_from);
            d.u64(hop.map_or(u64::MAX, |h: AsId| u64::from(h.0)));
        }
    }
    d.value()
}

/// Run the workload once, timing each phase. Run `run` of a process
/// draws its own schedule from `seed`, so one measurement pools several
/// schedules.
///
/// The engine runs with its default configuration: sequential, 30 s MRAI.
/// (The parallel engine spawns threads per window, and the flight recorder
/// keeps a ring per thread for the life of the process, so a traced
/// parallel run grows without bound.)
pub fn run(seed: u64, run: u64) -> (ChurnOutcome, ChurnTimings) {
    let mut tm = ChurnTimings::default();
    let mut failures = Vec::new();
    let mut checks = 0;
    let before = lg_telemetry::global().snapshot();
    let setup_start = Instant::now();
    let (graph, s) = timed("asmap.generate", || {
        TopologyConfig::calibrated(ASES, TOPOLOGY_SEED).generate()
    });
    tm.generate_s = s;
    let (net, _) = timed("sim.network", || Network::new(graph));
    let world = ChurnWorld::with_prefix_count(&net, PREFIXES);
    let mut runner = ChurnRunner::new(&world);
    let deadline = Time::from_mins(DEADLINE_MIN);
    let (mut sim, s) = timed("dynamic.converge", || {
        let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
        for slot in 0..PREFIXES {
            runner.apply(
                &mut sim,
                &net,
                &ChurnOp::Announce(slot as u8, (slot % 3) as u8),
            );
        }
        sim.run_until_quiescent(sim.now() + deadline.millis());
        sim
    });
    tm.converge_s = s;
    tm.setup_s = setup_start.elapsed().as_secs_f64();
    checks += 1;
    if !sim.quiescent() {
        failures.push("the announced pool did not converge".to_string());
    }

    let schedule = generate_ops(&ChurnConfig {
        seed: run_seed(seed, run),
        ops: OPS,
        advance_max_ms: ADVANCE_MAX_MS,
    });
    let updates_sent = lg_telemetry::global().counter("dynamic.updates_sent");
    let updates_before = updates_sent.get();
    let run_start = Instant::now();
    let mut pending = Vec::new();
    for op in &schedule {
        match op {
            ChurnOp::Advance(ms) => {
                let target = sim.now() + *ms;
                step_to(&mut sim, &mut runner, &net, &pending, target, &mut tm);
                pending.clear();
            }
            op => pending.push(op.clone()),
        }
    }
    let now = sim.now();
    step_to(&mut sim, &mut runner, &net, &pending, now, &mut tm);
    tm.churn_s = run_start.elapsed().as_secs_f64();
    let drain_start = Instant::now();
    let give_up = sim.now() + deadline.millis();
    while !sim.quiescent() && sim.now() < give_up {
        let next = sim.now() + STEP_MS;
        step_to(&mut sim, &mut runner, &net, &[], next, &mut tm);
    }
    tm.quiescence_s = drain_start.elapsed().as_secs_f64();
    tm.run_s = run_start.elapsed().as_secs_f64();
    tm.run_updates = updates_sent.get() - updates_before;
    tm.end_tick_ns = lg_telemetry::trace::recorder().map_or(0, |r| r.tick_ns());
    tm.counters = lg_telemetry::global().snapshot().since(&before);

    checks += 1;
    if !sim.quiescent() {
        failures.push(format!("churn did not quiesce by {}", sim.now()));
    }
    checks += check_against_static(&sim, &net, &world, &runner, &mut failures);
    let outcome = ChurnOutcome {
        digest: digest(&sim, &net, &world),
        state: EngineState {
            interned_paths: sim.interned_paths(),
            loc_entries: sim.loc_entries(),
            adj_entries: sim.adj_entries(),
            out_state_entries: sim.out_state_entries(),
        },
        checks,
        failures,
    };
    (outcome, tm)
}
