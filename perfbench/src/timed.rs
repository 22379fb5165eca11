//! A forwarding [`Scheduler`] that times every hook from outside.
//!
//! The wrapper calls the wrapped policy unchanged and adds nothing to the
//! simulation: no RNG draws, no state writes, no trace records. It only
//! reads the clock around each hook and snapshots the engine profiler's
//! nested scopes (`sample`, `steal`, `heartbeat_refresh`, `reorder`)
//! before and after, so the caller can tell how much of a hook's time was
//! spent in scopes that ran inside it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use phoenix_sim::{Probe, ProfileScope, Scheduler, SimCtx, SimState, WorkerId};
use phoenix_traces::JobId;

/// The scheduler hooks, in the order of [`Scheduler`]'s declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    JobArrival = 0,
    ProbeEnqueued = 1,
    SelectProbe = 2,
    TaskFinish = 3,
    JobComplete = 4,
    Wakeup = 5,
    ProbeRetry = 6,
    WorkerCrash = 7,
    WorkerRecover = 8,
}

impl Hook {
    pub const COUNT: usize = 9;
}

/// Profiler scopes that run nested inside scheduler hooks.
pub const NESTED: [ProfileScope; 4] = [
    ProfileScope::Sample,
    ProfileScope::Steal,
    ProfileScope::HeartbeatRefresh,
    ProfileScope::Reorder,
];

/// Totals for one hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    pub calls: u64,
    /// Wall-clock inside the hook, nested scopes included.
    pub total_ns: u64,
    /// Per [`NESTED`] scope: time and entries that fell inside this hook.
    pub nested_ns: [u64; 4],
    pub nested_calls: [u64; 4],
}

/// Per-hook totals of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    pub hooks: [HookTotals; Hook::COUNT],
}

impl HookStats {
    pub fn get(&self, hook: Hook) -> HookTotals {
        self.hooks[hook as usize]
    }
}

/// Snapshot of the nested scopes' totals (zeros when profiling is off).
fn nested_snapshot(state: &SimState) -> [(u64, u64); 4] {
    let report = state.profiler().report();
    NESTED.map(|scope| {
        report.map_or((0, 0), |r| {
            let t = r.scope(scope);
            (t.calls, t.total_ns)
        })
    })
}

/// Wraps a policy, forwarding every hook and recording [`HookStats`] into
/// a shared cell the caller keeps (the simulation owns the wrapper).
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: Rc<RefCell<HookStats>>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>) -> (Self, Rc<RefCell<HookStats>>) {
        let stats = Rc::new(RefCell::new(HookStats::default()));
        let wrapper = TimedScheduler {
            inner,
            stats: Rc::clone(&stats),
        };
        (wrapper, stats)
    }

    /// Runs one context-taking hook, timing it and attributing the nested
    /// scope time that accrued meanwhile. The profiler is read outside the
    /// clock interval, so nested time always lies within the hook's time.
    fn timed<R>(
        &mut self,
        hook: Hook,
        ctx: &mut SimCtx<'_>,
        call: impl FnOnce(&mut dyn Scheduler, &mut SimCtx<'_>) -> R,
    ) -> R {
        let before = nested_snapshot(ctx.state());
        let started = Instant::now();
        let out = call(self.inner.as_mut(), ctx);
        let ns = elapsed_ns(started);
        let after = nested_snapshot(ctx.state());
        let mut stats = self.stats.borrow_mut();
        let t = &mut stats.hooks[hook as usize];
        t.calls += 1;
        t.total_ns += ns;
        for (i, ((c0, n0), (c1, n1))) in before.into_iter().zip(after).enumerate() {
            t.nested_calls[i] += c1 - c0;
            t.nested_ns[i] += n1 - n0;
        }
        out
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::JobArrival, ctx, |s, ctx| s.on_job_arrival(job, ctx));
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::ProbeEnqueued, ctx, |s, ctx| {
            s.on_probe_enqueued(worker, ctx)
        });
    }

    fn select_probe(&mut self, worker: WorkerId, state: &SimState) -> Option<usize> {
        // Takes no context, so no profiler scope can open inside it.
        let started = Instant::now();
        let out = self.inner.select_probe(worker, state);
        let ns = elapsed_ns(started);
        let mut stats = self.stats.borrow_mut();
        let t = &mut stats.hooks[Hook::SelectProbe as usize];
        t.calls += 1;
        t.total_ns += ns;
        out
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        self.timed(Hook::TaskFinish, ctx, |s, ctx| {
            s.on_task_finish(worker, job, duration_us, ctx)
        });
    }

    fn on_job_complete(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::JobComplete, ctx, |s, ctx| s.on_job_complete(job, ctx));
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::Wakeup, ctx, |s, ctx| s.on_wakeup(token, ctx));
    }

    fn on_probe_retry(&mut self, probe: Probe, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::ProbeRetry, ctx, |s, ctx| s.on_probe_retry(probe, ctx));
    }

    fn on_worker_crash(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::WorkerCrash, ctx, |s, ctx| {
            s.on_worker_crash(worker, ctx)
        });
    }

    fn on_worker_recover(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::WorkerRecover, ctx, |s, ctx| {
            s.on_worker_recover(worker, ctx)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_bench::{RunSpec, SchedulerKind};
    use phoenix_sim::FaultPlan;
    use phoenix_traces::TraceProfile;

    use crate::setup::build;

    fn small_spec(kind: SchedulerKind, faults: FaultPlan) -> RunSpec {
        let mut spec = RunSpec::new(TraceProfile::yahoo(), kind).with_faults(faults);
        spec.nodes = 60;
        spec.gen_nodes = 60;
        spec.jobs = 200;
        spec.gen_util = 0.7;
        spec.seed = 42;
        spec.record_task_waits = false;
        spec
    }

    const GOLDEN: [SchedulerKind; 5] = [
        SchedulerKind::Phoenix,
        SchedulerKind::EagleC,
        SchedulerKind::HawkC,
        SchedulerKind::SparrowC,
        SchedulerKind::YaqD,
    ];

    /// Wrapping (and profiling) a run must not change what it computes.
    /// The fault profile drives the retry, crash and recover hooks, whose
    /// default bodies the wrapper must forward rather than re-implement.
    #[test]
    fn wrapped_runs_digest_like_unwrapped_runs() {
        for faults in [FaultPlan::none(), FaultPlan::heavy()] {
            for kind in GOLDEN {
                let spec = small_spec(kind, faults);
                let plain = build(&spec, spec.seed, false).sim.run();
                let traced = build(&spec, spec.seed, true);
                let wrapped = traced.sim.run();
                let stats = traced
                    .hooks
                    .expect("traced build has hook stats")
                    .borrow()
                    .hooks;
                assert_eq!(plain.digest(), wrapped.digest(), "{}", kind.name());
                assert_eq!(plain.scheduler, wrapped.scheduler);
                assert!(stats[Hook::JobArrival as usize].calls > 0);
                assert!(stats[Hook::SelectProbe as usize].calls > 0);
                if faults.is_active() {
                    assert!(
                        stats[Hook::WorkerCrash as usize].calls > 0
                            && stats[Hook::WorkerRecover as usize].calls > 0
                            && stats[Hook::ProbeRetry as usize].calls > 0,
                        "{}: fault hooks must be reached",
                        kind.name()
                    );
                }
            }
        }
    }
}
