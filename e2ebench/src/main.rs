//! `e2ebench --workload <repair_setup|repair_storm|bgp_churn> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload over a fixed cycle of inputs, as many whole cycles as
//! fit in `--seconds` (at least one), checks every run's outputs, and
//! prints a human-readable report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! first half of the time runs untraced (exact counters, the baseline for
//! the tracing overhead) and the second half under the flight recorder
//! (per-layer times). Exits non-zero when any check fails.

use lg_e2ebench::churn;
use lg_e2ebench::layers::{self, Attribution};
use lg_e2ebench::measure::{median, proc_status_kib, quantile, Digest};
use lg_e2ebench::repair::{self, RepairWorkload};
use lg_telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, in output order: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p99", "ms"),
    ("incident_ms_p50", "ms"),
    ("incident_ms_p90", "ms"),
];

/// Per-layer metrics of every workload, in output order: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("asmap.generate_s", "s"),
    ("sim.infra_s", "s"),
    ("sim.infra_rss_mb", "MB"),
    ("compute.runs", "count"),
    ("compute.arena_nodes", "count"),
    ("compute.candidates", "count"),
    ("compute.seed_s", "s"),
    ("compute.drain_s", "s"),
    ("compute.materialize_s", "s"),
    ("core.install_s", "s"),
    ("core.tick_s", "s"),
    ("core.tick_self_s", "s"),
    ("probe.pings", "count"),
    ("probe.traceroute_probes", "count"),
    ("probe.spoofed_pings", "count"),
    ("probe.option_probes", "count"),
    ("probe.traceroute_s", "s"),
    ("sim.groundtruth_s", "s"),
    ("sim.round_trips", "count"),
    ("locate.isolation_s", "s"),
    ("core.isolations", "count"),
    ("core.plan_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.fill_s", "s"),
    ("telemetry.sample_s", "s"),
    ("telemetry.untracked_s", "s"),
    ("telemetry.ring_drops", "count"),
    ("telemetry.trace_overhead", "ratio"),
];

/// Per-layer metrics only `bgp_churn` prints, after [`PER_LAYER`]: the
/// dynamic engine, UPDATE packing and BGP state. The registered
/// workloads never run these layers.
const DYNAMIC_LAYERS: &[(&str, &str)] = &[
    ("dynamic.converge_s", "s"),
    ("dynamic.churn_s", "s"),
    ("dynamic.quiescence_s", "s"),
    ("dynamic.updates_sent", "count"),
    ("dynamic.updates_received", "count"),
    ("dynamic.withdrawals_sent", "count"),
    ("dynamic.mrai_deferrals", "count"),
    ("dynamic.loc_rib_changes", "count"),
    ("dynamic.useful_ratio", "ratio"),
    ("dynamic.updates_per_s", "1/s"),
    ("packing.wire_updates", "count"),
    ("packing.updates_packed", "count"),
    ("packing.wire_bytes_ratio", "ratio"),
    ("bgp.interned_paths", "count"),
    ("bgp.loc_entries", "count"),
    ("bgp.adj_entries", "count"),
    ("bgp.out_state_entries", "count"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    RepairSetup,
    RepairStorm,
    BgpChurn,
}

impl Workload {
    /// Flight-recorder slots per thread, so that one traced run fits
    /// without wrapping: a repair run records about 17k events on its main
    /// thread and spawns short-lived fixed-point workers (a ring each); a
    /// churn run records every MRAI fire on its one thread.
    fn ring_capacity(self) -> usize {
        match self {
            Workload::RepairSetup | Workload::RepairStorm => 1 << 16,
            Workload::BgpChurn => 1 << 21,
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "repair_setup" => Some(Workload::RepairSetup),
            "repair_storm" => Some(Workload::RepairStorm),
            "bgp_churn" => Some(Workload::BgpChurn),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// One run of the workload, reduced to workload-independent measurements.
struct Iteration {
    setup_s: f64,
    wall_s: f64,
    tick_ms: Vec<f64>,
    incident_ms: Vec<f64>,
    /// Seconds per phase the benchmark timed, by per-layer metric name.
    phases: BTreeMap<&'static str, f64>,
    /// Exact counts taken from outside the telemetry registry.
    counts: BTreeMap<&'static str, u64>,
    counters: TelemetrySnapshot,
    digest: u64,
    checks: u64,
    failures: Vec<String>,
    /// Flight-recorder window of the timed calls, when tracing.
    window: Option<(u64, u64)>,
}

fn run_once(workload: Workload, seed: u64, run: u64) -> Iteration {
    let start_tick = lg_telemetry::trace::recorder().map(|r| r.tick_ns());
    match workload {
        Workload::RepairSetup | Workload::RepairStorm => {
            let w = if workload == Workload::RepairSetup {
                RepairWorkload::repair_setup(seed, run)
            } else {
                RepairWorkload::repair_storm(seed, run)
            };
            let (out, tm) = repair::run(&w);
            Iteration {
                setup_s: tm.setup_s,
                wall_s: tm.setup_s + tm.run_s,
                phases: BTreeMap::from([
                    ("asmap.generate_s", tm.generate_s),
                    ("sim.infra_s", tm.infra_s),
                    ("core.install_s", tm.install_s),
                    ("core.tick_s", tm.tick_ms.iter().sum::<f64>() * 1e-3),
                    ("sim.groundtruth_s", tm.groundtruth_s),
                    ("telemetry.sample_s", tm.sample_s),
                ]),
                counts: BTreeMap::from([
                    ("sim.round_trips", tm.round_trips),
                    ("sim.infra_rss_kib", tm.infra_rss_kib),
                ]),
                tick_ms: tm.tick_ms,
                incident_ms: tm.incident_ms,
                counters: tm.counters,
                digest: out.digest(),
                checks: out.checks,
                failures: out.failures,
                window: start_tick.map(|s| (s, tm.end_tick_ns)),
            }
        }
        Workload::BgpChurn => {
            let (out, tm) = churn::run(seed, run);
            Iteration {
                setup_s: tm.setup_s,
                wall_s: tm.setup_s + tm.run_s,
                phases: BTreeMap::from([
                    ("asmap.generate_s", tm.generate_s),
                    ("dynamic.converge_s", tm.converge_s),
                    ("dynamic.churn_s", tm.churn_s),
                    ("dynamic.quiescence_s", tm.quiescence_s),
                    ("dynamic.updates_per_s", tm.run_updates as f64 / tm.run_s),
                ]),
                counts: BTreeMap::from([
                    ("bgp.interned_paths", out.state.interned_paths as u64),
                    ("bgp.loc_entries", out.state.loc_entries as u64),
                    ("bgp.adj_entries", out.state.adj_entries as u64),
                    ("bgp.out_state_entries", out.state.out_state_entries as u64),
                ]),
                tick_ms: tm.tick_ms,
                incident_ms: tm.incident_ms,
                counters: tm.counters,
                digest: out.digest,
                checks: out.checks,
                failures: out.failures,
                window: start_tick.map(|s| (s, tm.end_tick_ns)),
            }
        }
    }
}

/// Distinct inputs a process measures: input `k` in `0..INPUTS` is drawn
/// from the seed and `k`.
const INPUTS: u64 = 8;

/// Run whole cycles of the [`INPUTS`] inputs (at least one) while another
/// cycle still fits in `seconds`, handing each iteration to `after` as it
/// completes. Every input is run equally often, so the set of inputs
/// behind a figure does not depend on how fast the code under test is.
fn run_for(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mut after: impl FnMut(&Iteration),
) -> Vec<Iteration> {
    let start = Instant::now();
    let mut out = Vec::new();
    for cycle in 1.. {
        for k in 0..INPUTS {
            let it = run_once(workload, seed, k);
            after(&it);
            out.push(it);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(cycle) > seconds {
            break;
        }
    }
    out
}

/// The source tree's identity: the commit when the checkout has git
/// metadata, and always a digest of the sources the benchmark builds.
fn source_stamp() -> (String, String) {
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unavailable".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates"), "src".into()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.extend(["Cargo.toml".into(), "Cargo.lock".into()]);
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            d.bytes(f.to_string_lossy().as_bytes());
            d.bytes(&bytes);
        }
    }
    (commit, format!("{:016x}", d.value()))
}

fn counter(s: &TelemetrySnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median_of(iters: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&iters.iter().map(f).collect::<Vec<_>>()).expect("at least one iteration")
}

fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let q = |p| quantile(v, p).expect("at least one sample");
    (q(0.25), q(0.5), q(0.75))
}

/// One input's least-disturbed timings: the element-wise minimum over its
/// repeats.
struct Best {
    setup_s: f64,
    wall_s: f64,
    tick_ms: Vec<f64>,
    incident_ms: Vec<f64>,
}

/// The best repeat of each input, tick by tick. Runs are deterministic
/// (the digest check holds every repeat to the same outputs), so tick `t`
/// of input `k` does the same work in every cycle, and its least time is
/// the one least disturbed by other load on the host.
fn best_per_input(iters: &[Iteration]) -> Vec<Best> {
    fn min_into(acc: &mut [f64], v: &[f64]) {
        assert_eq!(acc.len(), v.len(), "repeats of one input differ in ticks");
        for (a, x) in acc.iter_mut().zip(v) {
            *a = a.min(*x);
        }
    }
    (0..INPUTS as usize)
        .map(|k| {
            let mut repeats = iters.iter().skip(k).step_by(INPUTS as usize);
            let first = repeats.next().expect("whole cycles");
            let mut b = Best {
                setup_s: first.setup_s,
                wall_s: first.wall_s,
                tick_ms: first.tick_ms.clone(),
                incident_ms: first.incident_ms.clone(),
            };
            for r in repeats {
                b.setup_s = b.setup_s.min(r.setup_s);
                b.wall_s = b.wall_s.min(r.wall_s);
                min_into(&mut b.tick_ms, &r.tick_ms);
                min_into(&mut b.incident_ms, &r.incident_ms);
            }
            b
        })
        .collect()
}

fn end_to_end(
    iters: &[Iteration],
    report: &mut String,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let best = best_per_input(iters);
    let ticks: Vec<f64> = best.iter().flat_map(|b| b.tick_ms.clone()).collect();
    let incidents: Vec<f64> = best.iter().flat_map(|b| b.incident_ms.clone()).collect();
    if incidents.is_empty() {
        return Err("no incident ticks: the workload exercised no failure".into());
    }
    let peak_kib = proc_status_kib("VmHWM").ok_or("VmHWM unavailable")?;
    let q = |v: &[f64], p| quantile(v, p).expect("non-empty");
    let (s1, s2, s3) = quartiles(&best.iter().map(|b| b.setup_s).collect::<Vec<_>>());
    let (w1, w2, w3) = quartiles(&best.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let m = BTreeMap::from([
        ("setup_s", s2),
        ("wall_s", w2),
        ("peak_rss_mb", peak_kib as f64 / 1024.0),
        ("tick_ms_p50", q(&ticks, 0.5)),
        ("tick_ms_p99", q(&ticks, 0.99)),
        ("incident_ms_p50", q(&incidents, 0.5)),
        ("incident_ms_p90", q(&incidents, 0.9)),
    ]);
    let cycles = iters.len() / INPUTS as usize;
    let _ = writeln!(
        report,
        "# {INPUTS} inputs x {cycles} repeats; each input's least time per repeat (setup, wall) and per tick"
    );
    let _ = writeln!(
        report,
        "# setup_s  median {s2:.4} s (q1 {s1:.4}, q3 {s3:.4}; over inputs)"
    );
    let _ = writeln!(
        report,
        "# wall_s   median {w2:.4} s (q1 {w1:.4}, q3 {w3:.4}; over inputs)"
    );
    let _ = writeln!(
        report,
        "# tick_ms  p50 {:.4} p99 {:.4} over {} ticks ({} beyond p99); incident_ms p50 {:.4} p90 {:.4} over {} incident ticks ({} beyond p90)",
        m["tick_ms_p50"],
        m["tick_ms_p99"],
        ticks.len(),
        ticks.len() / 100,
        m["incident_ms_p50"],
        m["incident_ms_p90"],
        incidents.len(),
        incidents.len() / 10,
    );
    let _ = writeln!(report, "# peak_rss_mb {:.1} (VmHWM)", m["peak_rss_mb"]);
    let walls: Vec<String> = iters.iter().map(|i| format!("{:.4}", i.wall_s)).collect();
    let _ = writeln!(report, "# every run's wall_s: {}", walls.join(" "));
    Ok(m)
}

fn per_layer(
    plain: &[Iteration],
    traced: &[Iteration],
    attributions: &[Attribution],
    report: &mut String,
) -> BTreeMap<&'static str, f64> {
    let first = &plain[0];
    let c = &first.counters;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Exact counts, from the first untraced run.
    for (metric, source) in [
        ("compute.runs", "compute.runs"),
        ("compute.arena_nodes", "compute.arena_nodes"),
        ("compute.candidates", "compute.candidates"),
        ("probe.pings", "probe.pings"),
        ("probe.traceroute_probes", "probe.traceroute_probes"),
        ("probe.spoofed_pings", "probe.spoofed_pings"),
        ("probe.option_probes", "probe.option_probes"),
        ("core.isolations", "core.isolations"),
        ("cache.hits", "cache.hits"),
        ("cache.misses", "cache.misses"),
        ("dynamic.updates_sent", "dynamic.updates_sent"),
        ("dynamic.updates_received", "dynamic.updates_received"),
        ("dynamic.withdrawals_sent", "dynamic.withdrawals_sent"),
        ("dynamic.mrai_deferrals", "dynamic.mrai_deferrals"),
        ("dynamic.loc_rib_changes", "dynamic.loc_rib_changes"),
        ("packing.wire_updates", "dynamic.wire_updates"),
        ("packing.updates_packed", "dynamic.updates_packed"),
    ] {
        m.insert(metric, counter(c, source) as f64);
    }
    for name in [
        "sim.round_trips",
        "bgp.interned_paths",
        "bgp.loc_entries",
        "bgp.adj_entries",
        "bgp.out_state_entries",
    ] {
        m.insert(name, first.counts.get(name).copied().unwrap_or(0) as f64);
    }
    let infra_kib = first.counts.get("sim.infra_rss_kib").copied().unwrap_or(0);
    m.insert("sim.infra_rss_mb", infra_kib as f64 / 1024.0);
    let hits = counter(c, "cache.hits");
    let lookups = hits + counter(c, "cache.misses");
    m.insert("cache.hit_ratio", ratio(hits, lookups));
    let received = counter(c, "dynamic.updates_received");
    let useful = counter(c, "dynamic.loc_rib_changes");
    m.insert("dynamic.useful_ratio", ratio(useful, received));
    let wire = counter(c, "dynamic.wire_bytes");
    let unpacked = counter(c, "dynamic.wire_bytes_unpacked");
    m.insert("packing.wire_bytes_ratio", ratio(wire, unpacked));
    let rate = median_of(plain, |i| {
        i.phases
            .get("dynamic.updates_per_s")
            .copied()
            .unwrap_or(0.0)
    });
    m.insert("dynamic.updates_per_s", rate);

    // Times, medians over the traced runs.
    for name in [
        "asmap.generate_s",
        "sim.infra_s",
        "core.install_s",
        "core.tick_s",
        "sim.groundtruth_s",
        "telemetry.sample_s",
        "dynamic.converge_s",
        "dynamic.churn_s",
        "dynamic.quiescence_s",
    ] {
        m.insert(
            name,
            median_of(traced, |i| i.phases.get(name).copied().unwrap_or(0.0)),
        );
    }
    let self_median = |span: &str| {
        median(
            &attributions
                .iter()
                .map(|a| a.self_s(span))
                .collect::<Vec<_>>(),
        )
        .expect("at least one traced run")
    };
    for (metric, span) in [
        ("core.tick_self_s", "core.tick"),
        ("compute.seed_s", "compute.seed"),
        ("compute.drain_s", "compute.drain"),
        ("compute.materialize_s", "compute.materialize"),
        ("probe.traceroute_s", "probe.traceroute"),
        ("locate.isolation_s", "repair.isolation"),
        ("core.plan_s", "repair.plan"),
        ("cache.fill_s", "cache.miss_fill"),
    ] {
        m.insert(metric, self_median(span));
    }
    // Untracked: timed wall time no span on the main thread covers.
    let untracked: Vec<f64> = traced
        .iter()
        .zip(attributions)
        .map(|(i, a)| {
            let (from, to) = i.window.expect("traced runs have a window");
            let covered = (to - from) as f64 * 1e-9 - a.untracked_s;
            (i.wall_s - covered).max(0.0)
        })
        .collect();
    m.insert(
        "telemetry.untracked_s",
        median(&untracked).expect("traced runs"),
    );
    // Ring drops, a lower bound: compute spans expected from the exact
    // run counter (three spans, six events per fixed point) against those
    // collected, plus every unmatched span edge, plus one per ring that
    // wrapped inside a run.
    let drops: u64 = traced
        .iter()
        .zip(attributions)
        .map(|(i, a)| {
            let expected = 6 * counter(&i.counters, "compute.runs");
            let collected: u64 = ["compute.seed", "compute.drain", "compute.materialize"]
                .iter()
                .map(|s| 2 * a.get(s).count)
                .sum();
            expected.saturating_sub(collected) + a.unmatched + a.wrapped
        })
        .sum();
    m.insert("telemetry.ring_drops", drops as f64);
    // Paired runs: traced run k repeats untraced run k's inputs.
    let paired = plain.len().min(traced.len());
    let overhead =
        median_of(&traced[..paired], |i| i.wall_s) / median_of(&plain[..paired], |i| i.wall_s);
    m.insert("telemetry.trace_overhead", overhead);

    // Attribution: main-thread self time per span, as a share of wall.
    let wall = median_of(traced, |i| i.wall_s);
    let _ = writeln!(
        report,
        "# traced: {} runs (median wall {wall:.4} s), untraced: {} runs; trace overhead {overhead:.3}x over {paired} paired runs; {} span events collected, {drops} lost",
        traced.len(),
        plain.len(),
        attributions.iter().map(|a| a.events).sum::<u64>(),
    );
    let mut spans: BTreeMap<&str, (f64, f64, u64)> = BTreeMap::new();
    for a in attributions {
        for (name, t) in &a.spans {
            let e = spans.entry(name).or_default();
            e.0 += t.self_s / attributions.len() as f64;
            e.1 += t.inclusive_s / attributions.len() as f64;
            e.2 += t.count;
        }
    }
    let _ = writeln!(report, "# span                     self_s   share_of_wall  inclusive_s  count (mean per traced run)");
    for (name, (self_s, incl, count)) in &spans {
        let _ = writeln!(
            report,
            "#   {name:<22} {self_s:>9.4} {:>9.1}%  {incl:>11.4}  {:.1}",
            100.0 * self_s / wall,
            *count as f64 / attributions.len() as f64,
        );
    }
    let _ = writeln!(
        report,
        "#   {:<22} {:>9.4} {:>9.1}%",
        "(untracked)",
        m["telemetry.untracked_s"],
        100.0 * m["telemetry.untracked_s"] / wall
    );
    m
}

/// Share-of-wall statements the workload was chosen for, from the traced
/// medians.
fn attribution_claims(workload: Workload, m: &BTreeMap<&'static str, f64>, wall: f64) -> String {
    let share = |v: f64| 100.0 * v / wall;
    match workload {
        Workload::RepairSetup => format!(
            "# claim: sim.infra_s is {:.1}% of wall_s (chosen for >= 90%)",
            share(m["sim.infra_s"])
        ),
        Workload::RepairStorm => format!(
            "# claim: monitoring ticks (self) + traceroutes + ground truth are {:.1}% of wall_s (chosen for > 50%)",
            share(m["core.tick_self_s"] + m["probe.traceroute_s"] + m["sim.groundtruth_s"])
        ),
        Workload::BgpChurn => format!(
            "# claim: the dynamic engine (converge + churn + quiescence) is {:.1}% of wall_s (chosen for > 50%)",
            share(m["dynamic.converge_s"] + m["dynamic.churn_s"] + m["dynamic.quiescence_s"])
        ),
    }
}

fn json_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values[name];
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("e2ebench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <repair_setup|repair_storm|bgp_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (commit, source) = source_stamp();
    println!(
        "# stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"profile\": \"release\", \"host.available_parallelism\": {cores}, \"commit\": \"{commit}\", \"source_digest\": \"{source}\"}}",
        args.name, args.seed, args.seconds, u8::from(args.trace)
    );

    let mut report = String::new();
    // `reruns` pairs runs made on the same inputs: their digests must match.
    let (plain, traced, reruns, metrics_table, metrics) = if args.trace {
        let plain = run_for(args.workload, args.seed, args.seconds / 2.0, |_| {});
        let rec = lg_telemetry::trace::enable(args.workload.ring_capacity());
        // Attribute each traced run as it ends, before later runs can
        // overwrite its events in the rings.
        let mut attributions: Vec<Attribution> = Vec::new();
        let traced = run_for(args.workload, args.seed, args.seconds / 2.0, |i| {
            let (from, to) = i.window.expect("traced runs have a window");
            let threads = rec.snapshot();
            attributions.push(layers::attribute(
                &threads,
                from,
                to,
                "main",
                rec.capacity(),
            ));
        });
        let m = per_layer(&plain, &traced, &attributions, &mut report);
        let wall = median_of(&traced, |i| i.wall_s);
        let _ = writeln!(report, "{}", attribution_claims(args.workload, &m, wall));
        let table = match args.workload {
            Workload::BgpChurn => [PER_LAYER, DYNAMIC_LAYERS].concat(),
            Workload::RepairSetup | Workload::RepairStorm => PER_LAYER.to_vec(),
        };
        (plain, traced, Vec::new(), table, Ok(m))
    } else {
        let plain = run_for(args.workload, args.seed, args.seconds, |_| {});
        let m = end_to_end(&plain, &mut report);
        // Untimed: repeat the first run's inputs once.
        let rerun = vec![run_once(args.workload, args.seed, 0)];
        (plain, Vec::new(), rerun, END_TO_END.to_vec(), m)
    };

    let all: Vec<&Iteration> = plain.iter().chain(&traced).chain(&reruns).collect();
    let digest = all[0].digest;
    let mut attempted: u64 = all.iter().map(|i| i.checks).sum();
    let mut failures: Vec<String> = all.iter().flat_map(|i| i.failures.clone()).collect();
    // Traced run k repeats untraced run k's inputs, as the rerun repeats
    // run 0's: a digest that moves is nondeterminism, counted as a failure.
    let repeats = plain.iter().zip(traced.iter().chain(&reruns));
    for (k, (first, again)) in repeats.enumerate() {
        attempted += 1;
        if first.digest != again.digest {
            failures.push(format!(
                "run {k} digest {:016x} moved to {:016x} on the same inputs",
                first.digest, again.digest
            ));
        }
    }
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    let failed = failures.len() as u64;
    print!("{report}");
    println!(
        "# {} seed {}: {} runs, run 0 output digest {digest:016x}; error_rate {} ({failed} of {attempted} checks failed)",
        args.name,
        args.seed,
        all.len(),
        ratio(failed, attempted),
    );
    for f in failures.iter().take(10) {
        eprintln!("e2ebench: check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics_table, &metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
