//! End-to-end benchmark of the LIFEGUARD reproduction.
//!
//! Three workloads, each a single closed-loop batch in its own process:
//!
//! * `repair_setup` — a ~3k-AS repair run dominated by `World::new`
//!   (infra fixed points for every AS);
//! * `repair_storm` — a ~1k-AS repair run with 60 staggered failures,
//!   dominated by monitoring probes, ground-truth walks and incidents;
//! * `bgp_churn` — dense churn on a converged 16-prefix pool at
//!   calibrated-10k, dominated by the dynamic BGP engine.
//!
//! `src/main.rs` is the command line; see `README.md` in this directory.

pub mod churn;
pub mod layers;
pub mod measure;
pub mod repair;
