//! The benchmark's workloads, all run with the Phoenix scheduler.
//!
//! A workload is a fixed cluster and a fixed trace, as in the paper's
//! trace-driven simulations; `--seed` drives the simulation's random
//! stream (placement samples, steal victims, tie breaks). Both inputs are
//! drawn at [`INPUT_SEED`] the way the `scale` bin draws a row at seed 1
//! (`gen_util = 0.9`, generation seed `1 ^ jobs · 0x9E3779B97F4A7C15`,
//! `record_task_waits = false`), so a workload run at seed 1 is that row's
//! run, digest included.
//!
//! Drawing the trace from `--seed` instead would measure the trace: traces
//! of one profile differ in burstiness, and that moves host time per task
//! by 15-37% between seeds, more than any bound a change could be held to.

use phoenix_bench::{RunSpec, SchedulerKind};
use phoenix_sim::{FederationConfig, SimDuration};
use phoenix_traces::TraceProfile;

/// The seed the workloads' cluster and trace are drawn from.
pub const INPUT_SEED: u64 = 1;

pub struct Workload {
    pub name: &'static str,
    profile: fn() -> TraceProfile,
    nodes: usize,
    jobs: usize,
    /// Federation domains; 0 runs the centralized engine.
    domains: usize,
    staleness_s: u64,
    /// The run digest at seed 1. The busy row is the committed
    /// `BENCH_scale.json` row for Yahoo 5k/50k.
    pub seed1_digest: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "yahoo-5k-busy",
        profile: TraceProfile::yahoo,
        nodes: 5_000,
        jobs: 50_000,
        domains: 0,
        staleness_s: 0,
        seed1_digest: 0xf0ea_2d26_557b_c2dc,
    },
    Workload {
        name: "yahoo-25k-sparse",
        profile: TraceProfile::yahoo,
        nodes: 25_000,
        jobs: 3_125,
        domains: 0,
        staleness_s: 0,
        seed1_digest: 0x2802_1ef5_6f70_2e17,
    },
    Workload {
        name: "yahoo-25k-fed16",
        profile: TraceProfile::yahoo,
        nodes: 25_000,
        jobs: 3_125,
        domains: 16,
        staleness_s: 2,
        seed1_digest: 0xff84_aac6_d1ca_f92c,
    },
    Workload {
        name: "yahoo-expr3-5k",
        profile: || TraceProfile::yahoo_expr(3),
        nodes: 5_000,
        jobs: 25_000,
        domains: 0,
        staleness_s: 0,
        seed1_digest: 0x2473_dcad_4d21_26f0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The run spec for `seed`, set up the way the `scale` bin sets up its
    /// rows but with the trace drawn at [`INPUT_SEED`]. Build its cluster
    /// from [`INPUT_SEED`] too.
    pub fn spec(&self, seed: u64) -> RunSpec {
        let mut spec = RunSpec::new((self.profile)(), SchedulerKind::Phoenix).with_seed(seed);
        spec.nodes = self.nodes;
        spec.gen_nodes = self.nodes;
        spec.jobs = self.jobs;
        spec.gen_util = 0.9;
        spec.gen_seed = Some(INPUT_SEED ^ (self.jobs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        spec.record_task_waits = false;
        if self.domains > 0 {
            spec.federation =
                FederationConfig::sharded(self.domains, SimDuration::from_secs(self.staleness_s));
        }
        spec
    }
}
