//! The output-correctness gate catches corrupted outcomes.

use lg_asmap::{AsId, TopologyConfig};
use lg_bgp::Prefix;
use lg_e2ebench::churn::check_against_static;
use lg_e2ebench::repair::{
    check_sample_walks, confirm_repairs, draw_cast, production, sentinel, RepairWorkload,
};
use lg_sim::dataplane::{infra_addr, infra_prefix};
use lg_sim::{AnnouncementSpec, DynamicSim, DynamicSimConfig, Failure, Network, Time};
use lg_telemetry::TraceId;
use lg_workloads::churn::{ChurnOp, ChurnRunner, ChurnWorld};
use lifeguard_core::{Event, EventKind, Lifeguard, LifeguardConfig, World};

fn small_net() -> Network {
    Network::new(TopologyConfig::medium(7).generate())
}

#[test]
fn a_repair_whose_round_trip_fails_is_caught() {
    let net = small_net();
    let w = RepairWorkload {
        topology: TopologyConfig::medium(7),
        targets: 4,
        ..RepairWorkload::repair_storm(2, 0)
    };
    let cast = draw_cast(&net, &w);
    let mut world = World::new(&net);
    let mut cfg = LifeguardConfig::paper_defaults(cast.origin, production(), sentinel());
    cfg.targets = cast.targets.clone();
    Lifeguard::new(cfg).install(&mut world, Time::ZERO);

    let target = cast.targets[0];
    let repaired = [Event {
        at: Time::from_mins(5),
        trace: TraceId::NONE,
        kind: EventKind::Repaired {
            target,
            downtime_ms: 60_000,
        },
    }];
    let mut failures = Vec::new();
    assert_eq!(
        confirm_repairs(&world.dp, cast.origin, &repaired, &mut failures),
        1
    );
    assert!(failures.is_empty(), "healthy path flagged: {failures:?}");

    // Corrupt the outcome: the first transit AS toward the target drops
    // everything, yet the log claims the target was repaired.
    let hops = world
        .dp
        .walk(Time::ZERO, cast.origin, infra_addr(target))
        .as_hops();
    assert!(hops.len() > 2, "target adjacent to the origin: {hops:?}");
    world.dp.failures_mut().add(Failure::silent_as(hops[1]));
    confirm_repairs(&world.dp, cast.origin, &repaired, &mut failures);
    assert_eq!(failures.len(), 1, "corrupted repair not caught");
}

#[test]
fn walks_diverging_from_the_infra_tables_are_caught() {
    let net = small_net();
    let mut world = World::new(&net);
    let mut failures = Vec::new();
    assert_eq!(check_sample_walks(&world.dp, 3, &mut failures), 256);
    assert!(failures.is_empty(), "clean tables flagged: {failures:?}");

    // Corrupt the outcome: a neighbor hijacks every infra address with a
    // more-specific, so walks stop following the infra tables.
    let n = net.len() as u32;
    for a in 0..n {
        let more_specific = Prefix::new(infra_prefix(AsId(a)).addr(), 25);
        world.dp.announce(&AnnouncementSpec::plain(
            &net,
            more_specific,
            AsId((a + 1) % n),
        ));
    }
    check_sample_walks(&world.dp, 3, &mut failures);
    assert!(
        failures.len() > 128,
        "only {} of 256 hijacked walks caught",
        failures.len()
    );
}

#[test]
fn a_loc_rib_diverging_from_the_static_fixed_point_is_caught() {
    let net = small_net();
    let world = ChurnWorld::with_prefix_count(&net, 3);
    let mut runner = ChurnRunner::new(&world);
    let mut sim = DynamicSim::new(&net, DynamicSimConfig::default());
    for slot in 0..3u8 {
        runner.apply(&mut sim, &net, &ChurnOp::Announce(slot, slot));
    }
    let deadline = Time::from_mins(600).millis();
    sim.run_until_quiescent(sim.now() + deadline);
    let mut failures = Vec::new();
    let checks = check_against_static(&sim, &net, &world, &runner, &mut failures);
    assert_eq!(checks, 3 * (net.len() as u64 - 1));
    assert!(failures.is_empty(), "converged pool flagged: {failures:?}");

    // Corrupt the outcome: tear down the origin's first provider session
    // behind the runner's back, so the oracle's topology is stale.
    let provider = net.graph().providers(world.origin)[0];
    sim.fail_link(world.origin, provider);
    sim.run_until_quiescent(sim.now() + deadline);
    check_against_static(&sim, &net, &world, &runner, &mut failures);
    assert!(!failures.is_empty(), "corrupted Loc-RIBs not caught");
}
