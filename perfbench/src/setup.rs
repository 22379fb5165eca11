//! Builds one simulation exactly as `phoenix_bench::run_spec_timed` does
//! (same RNG derivations, same config, same order of steps), but times
//! `Simulation::new` too and can wrap the policy for the traced run. The
//! one difference: the machine population is drawn from `cluster_seed`
//! rather than from the run seed; the two agree at the workloads' input
//! seed, where the result is `run_spec_timed`'s bit for bit.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use phoenix_bench::RunSpec;
use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
use phoenix_sim::{SimConfig, Simulation};
use phoenix_traces::{Trace, TraceGenerator};

use crate::timed::{HookStats, TimedScheduler};

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub population_s: f64,
    pub trace_gen_s: f64,
    pub index_build_s: f64,
    pub sim_new_s: f64,
    /// The whole set-up, timed as one interval.
    pub total_s: f64,
}

/// The population RNG `run_spec_timed` derives from a run seed.
pub fn population_rng(cluster_seed: u64) -> StdRng {
    StdRng::seed_from_u64(cluster_seed.wrapping_mul(0x9E37_79B9).wrapping_add(17))
}

/// One set-up run, ready to simulate.
pub struct Built {
    pub sim: Simulation,
    /// Kept alive through the run, as `run_spec_timed` keeps it.
    pub trace: Trace,
    pub timing: SetupTiming,
    /// Hook totals of the wrapped policy (traced builds only).
    pub hooks: Option<Rc<RefCell<HookStats>>>,
}

/// Sets up one run on the population of `cluster_seed`. With `traced`, the
/// engine profiler is enabled and the policy is wrapped in a
/// [`TimedScheduler`].
pub fn build(spec: &RunSpec, cluster_seed: u64, traced: bool) -> Built {
    let mut timing = SetupTiming::default();
    let setup_started = Instant::now();
    let started = Instant::now();
    let cluster = MachinePopulation::generate(
        spec.profile.population.clone(),
        spec.nodes,
        &mut population_rng(cluster_seed),
    );
    timing.population_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let trace = TraceGenerator::new(spec.profile.clone(), spec.gen_seed.unwrap_or(spec.seed))
        .generate(spec.jobs, spec.gen_nodes, spec.gen_util);
    timing.trace_gen_s = started.elapsed().as_secs_f64();
    let config = SimConfig {
        record_task_waits: spec.record_task_waits,
        faults: spec.faults,
        federation: spec.federation,
        ..SimConfig::default()
    };
    let started = Instant::now();
    let index = FeasibilityIndex::new(cluster.into_machines());
    timing.index_build_s = started.elapsed().as_secs_f64();
    let scheduler = spec.scheduler.build(spec.profile.short_cutoff_s());
    let (scheduler, stats) = if traced {
        let (wrapped, stats) = TimedScheduler::new(scheduler);
        (Box::new(wrapped) as Box<_>, Some(stats))
    } else {
        (scheduler, None)
    };
    let started = Instant::now();
    let mut sim = Simulation::new(config, index, &trace, scheduler, spec.seed);
    timing.sim_new_s = started.elapsed().as_secs_f64();
    if traced {
        sim.enable_profiling();
    }
    timing.total_s = setup_started.elapsed().as_secs_f64();
    Built {
        sim,
        trace,
        timing,
        hooks: stats,
    }
}
