//! Property tests for the CRV ledger: after every randomized queue/slot
//! operation, the monitor table derived from the ledger must equal a
//! from-scratch full rescan, and under federation every domain's summary
//! must equal a naive rescan restricted to that domain's workers.

use std::collections::HashSet;

use phoenix_constraints::{
    Constraint, ConstraintKind, ConstraintOp, ConstraintSet, FeasibilityIndex, MachinePopulation,
    PopulationProfile,
};
use phoenix_core::CrvMonitor;
use phoenix_sim::{
    DomainSummary, FederationConfig, Probe, ProbeId, RunningTask, SimConfig, SimDuration, SimState,
    SimTime, Simulation, WorkerId,
};
use phoenix_traces::{Job, JobId, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: usize = 16;

/// Federated cluster size: with K ∈ {2, 3, 7} every domain edge but the
/// cluster's ends falls strictly inside a 64-bit word.
const FED_WORKERS: usize = 150;

fn job_sets() -> Vec<ConstraintSet> {
    vec![
        ConstraintSet::unconstrained(),
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]),
        ConstraintSet::from_constraints(vec![Constraint::soft(
            ConstraintKind::EthernetSpeed,
            ConstraintOp::Gt,
            900,
        )]),
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::KernelVersion,
            ConstraintOp::Gt,
            300,
        )]),
        ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 2),
            Constraint::soft(ConstraintKind::Memory, ConstraintOp::Gt, 8),
        ]),
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]),
    ]
}

fn build_state(workers: usize, domains: usize) -> SimState {
    let mut rng = StdRng::seed_from_u64(11);
    let cluster = MachinePopulation::generate(PopulationProfile::google_like(), workers, &mut rng);
    let jobs: Vec<Job> = job_sets()
        .into_iter()
        .enumerate()
        .map(|(i, set)| Job {
            id: JobId(i as u32),
            arrival_s: 0.0,
            task_durations_s: vec![1.0; 4],
            estimated_task_duration_s: 1.0,
            constraints: set,
            short: true,
            user: 0,
        })
        .collect();
    let config = SimConfig {
        federation: FederationConfig::sharded(domains, SimDuration::ZERO),
        ..SimConfig::default()
    };
    Simulation::new(
        config,
        FeasibilityIndex::new(cluster.into_machines()),
        &Trace::new("t", jobs),
        Box::new(phoenix_sim::RandomScheduler::new(1)),
        1,
    )
    .into_state_for_tests()
}

/// One randomized op against the ledger-aware state API; interpreted
/// modulo the current state so every sequence is valid.
fn apply_op(
    state: &mut SimState,
    op: u8,
    a: u16,
    b: u16,
    next_probe: &mut u64,
    next_seq: &mut u64,
) {
    let worker = WorkerId((usize::from(a) % state.workers.len()) as u32);
    let n_jobs = state.jobs.len() as u64;
    let alive = state.workers[worker.index()].is_alive();
    match op {
        // Enqueue at the tail. The engine never delivers probes to dead
        // workers (arrivals bounce into the retry path), so mirror that.
        0 | 1 => {
            if !alive {
                return;
            }
            let probe = Probe {
                id: ProbeId(*next_probe),
                job: JobId((u64::from(b) % n_jobs) as u32),
                bound_duration_us: if op == 1 { Some(1_000) } else { None },
                est_duration_us: state.jobs[(u64::from(b) % n_jobs) as usize].estimated_task_us,
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            };
            *next_probe += 1;
            state.enqueue_probe(worker, probe);
        }
        // Enqueue at the front (sticky batch probing).
        2 => {
            if !alive {
                return;
            }
            let probe = Probe {
                id: ProbeId(*next_probe),
                job: JobId((u64::from(b) % n_jobs) as u32),
                bound_duration_us: None,
                est_duration_us: state.jobs[(u64::from(b) % n_jobs) as usize].estimated_task_us,
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            };
            *next_probe += 1;
            state.enqueue_probe_front(worker, probe);
        }
        // Remove one queued probe (dispatch / recall).
        3 => {
            let len = state.workers[worker.index()].queue_len();
            if len > 0 {
                let _ = state.remove_probe_at(worker, usize::from(b) % len);
            }
        }
        // Steal a matching subset.
        4 => {
            let residue = u64::from(b) % 3;
            let _ = state.steal_probes_if(worker, |p| p.id.0 % 3 == residue);
        }
        // Occupy a slot (idle → busy transition). Dead workers run nothing.
        5 => {
            if alive && state.workers[worker.index()].has_free_slot() {
                let seq = *next_seq;
                *next_seq += 1;
                state.start_task_on(
                    worker,
                    RunningTask {
                        job: JobId((u64::from(b) % n_jobs) as u32),
                        finish_at: SimTime::from_secs_f64(100.0),
                        duration_us: 1_000,
                        raw_duration_us: 1_000,
                        slowdown: 1.0,
                        bound: false,
                        seq,
                    },
                    SimTime::ZERO,
                );
            }
        }
        // Free a slot (busy → idle transition).
        6 => {
            if let Some(task) = state.workers[worker.index()].running().copied() {
                let _ = state.finish_task_on(worker, task.seq);
            }
        }
        // Pure reordering: must not need (or disturb) ledger accounting.
        7 => {
            let len = state.workers[worker.index()].queue_len();
            if len > 1 {
                state.workers[worker.index()].promote_to_front(usize::from(b) % len);
            }
        }
        // Crash: kills running tasks, drops queued probes, removes the
        // worker's idle supply.
        8 => {
            if alive {
                let _ = state.crash_worker(worker);
            }
        }
        // Recover: the worker's idle supply returns.
        _ => {
            if !alive {
                state.recover_worker(worker);
            }
        }
    }
}

/// Domain `d`'s figures under a `k`-way near-equal split of the cluster
/// (the first `workers % k` domains one wider), rescanned naively: probes
/// queued on the domain's workers, and idle alive domain workers whose
/// machine satisfies one of those probes' instances.
fn naive_domain_summary(state: &SimState, k: usize, d: usize) -> DomainSummary {
    let n = state.workers.len();
    let len = |i: usize| n / k + usize::from(i < n % k);
    let base: usize = (0..d).map(len).sum();
    let range = base..base + len(d);
    let mut s = DomainSummary {
        published_at: state.now.as_micros(),
        ..DomainSummary::default()
    };
    let mut instances = HashSet::new();
    for w in &state.workers[range.clone()] {
        for p in w.queue() {
            s.queued_probes += 1;
            let set = &state.jobs[p.job.0 as usize].effective_constraints;
            if set.is_unconstrained() {
                continue;
            }
            s.constrained_probes += 1;
            for c in set.iter() {
                s.demand[c.kind.index()] += 1;
                instances.insert(*c);
            }
        }
    }
    for i in range {
        let w = &state.workers[i];
        if !(w.is_idle() && w.is_alive()) {
            continue;
        }
        s.idle_workers += 1;
        let machine = &state.feasibility.machines()[i];
        for kind in ConstraintKind::ALL {
            if instances
                .iter()
                .any(|c: &Constraint| c.kind == kind && c.satisfied_by(machine))
            {
                s.idle_supply[kind.index()] += 1;
            }
        }
    }
    s
}

/// Asserts the ledger-backed monitor table equals a full rescan.
fn assert_ledger_matches_rescan(state: &SimState) {
    let mut ledger = CrvMonitor::new();
    ledger.refresh_from_ledger(state);
    let mut rescan = CrvMonitor::new();
    rescan.refresh_full_rescan(state);
    prop_assert_eq!(ledger.table(), rescan.table());
    prop_assert_eq!(ledger.crv(), rescan.crv());
    prop_assert_eq!(
        ledger.snapshot().queued_probes,
        rescan.snapshot().queued_probes
    );
    prop_assert_eq!(
        ledger.snapshot().constrained_probes,
        rescan.snapshot().constrained_probes
    );
    prop_assert_eq!(
        ledger.snapshot().idle_workers,
        rescan.snapshot().idle_workers
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_table_matches_rescan_after_every_op(
        ops in prop::collection::vec((0u8..10, 0u16..64, 0u16..64), 0..60),
    ) {
        let mut state = build_state(WORKERS, 0);
        let mut next_probe = 0u64;
        let mut next_seq = 0u64;
        for &(op, a, b) in &ops {
            apply_op(&mut state, op, a, b, &mut next_probe, &mut next_seq);
            assert_ledger_matches_rescan(&state);
        }
    }

    #[test]
    fn domain_summaries_match_range_rescan_after_every_op(
        k in prop::sample::select(vec![2usize, 3, 7]),
        ops in prop::collection::vec((0u8..10, 0u16..1024, 0u16..64), 0..120),
    ) {
        let mut state = build_state(FED_WORKERS, k);
        let mut next_probe = 0u64;
        let mut next_seq = 0u64;
        for &(op, a, b) in &ops {
            apply_op(&mut state, op, a, b, &mut next_probe, &mut next_seq);
            assert_ledger_matches_rescan(&state);
            for d in 0..k {
                prop_assert_eq!(
                    state.crv_ledger().summary(d, state.now),
                    naive_domain_summary(&state, k, d),
                    "K={} domain {}", k, d
                );
            }
        }
    }
}
