//! The CRV demand/supply ledger, with idle supply computed when read.
//!
//! The CRV monitor reads per-kind demand and idle supply once per 9 s
//! heartbeat (and a federation's gossip publishes read the same
//! quantities per domain). The ledger therefore splits its work by how
//! often each side changes and how often it is read:
//!
//! * **Demand** is kept exact on every probe move: one unit per queued
//!   probe per constraint of its job's effective set, plus a refcount per
//!   interned constraint instance. The set a probe demands is interned at
//!   enqueue time (jobs' effective constraints are final before any of
//!   their probes arrive; the monitor's debug-assertions oracle
//!   cross-checks this every heartbeat).
//! * **Supply** is computed on read. The ledger keeps one bit per worker
//!   that is idle *and* alive, and the feasibility bitset of each interned
//!   instance, taken once from [`FeasibilityIndex::feasible_single`]
//!   (the index caches it). Idle supply of a kind is
//!   `popcount(idle AND (OR of the kind's demanded instances' bitsets))`,
//!   O(words × demanded instances) per read. Idle↔busy transitions are a
//!   single bit flip, and a refcount crossing zero costs nothing beyond the
//!   refcount itself.
//!
//! **Domains.** A federated cluster is split into K contiguous worker
//! ranges; an unfederated one is a single domain.
//! Each domain holds only its own per-kind demand, queued and constrained
//! probe counts, and instance refcounts, for the probes queued on its
//! workers. Cluster-wide figures are sums over domains (an instance is
//! demanded when any domain demands it), and a domain's
//! [`CrvLedger::summary`] is the same popcount restricted to its word range
//! with the edge words masked. The partition holds by construction: there
//! is one ledger, and every probe is counted in exactly one domain.
//!
//! The probe side sits on the engine's per-probe hot path (every enqueue,
//! dispatch, steal, and migration goes through it), so its steady state is
//! hash-free: sets are interned once per *job* into a dense id, each queued
//! probe's set id lives in a dense vector indexed by the sequential probe
//! id, and refcounts are plain vector slots addressed by interned instance
//! ids. Hash maps are only touched when a never-seen set or instance is
//! interned.
//!
//! All probe movement between queues and all slot transitions must go
//! through the [`crate::SimState`] / [`crate::SimCtx`] wrappers that feed
//! this ledger; mutating [`crate::Worker`] queues directly desynchronizes
//! it (the monitor's debug oracle will panic).

use std::collections::HashMap;
use std::sync::Arc;

use phoenix_constraints::{Constraint, ConstraintKind, ConstraintSet, FeasibilityIndex};
use phoenix_traces::JobId;

use crate::federation::{DomainPartition, DomainSummary};
use crate::probe::ProbeId;
use crate::time::SimTime;

/// Dense-id sentinel: "no interned set here".
const ABSENT: u32 = u32::MAX;

/// One domain's demand side: counts over the probes queued on its workers.
#[derive(Debug, Clone, Default)]
struct DomainBook {
    /// Per kind: queued (probe, constraint) pairs demanding it.
    demand: [u64; ConstraintKind::COUNT],
    queued_probes: usize,
    constrained_probes: usize,
    /// Refcount per interned instance (parallel to `CrvLedger::instances`).
    instance_refs: Vec<u64>,
}

/// CRV demand/supply ledger over a partitioned cluster (see module docs).
#[derive(Debug, Clone)]
pub struct CrvLedger {
    partition: DomainPartition,
    domains: Vec<DomainBook>,
    /// One bit per worker: idle (no running task) and alive.
    idle: Vec<u64>,
    /// Interned instance ids of each set, by set id.
    set_instances: Vec<Vec<u32>>,
    set_ids: HashMap<Vec<Constraint>, u32>,
    /// Memoized set id per job (dense by job index, `ABSENT` until the
    /// job's first constrained probe is enqueued).
    job_sets: Vec<u32>,
    /// Interned set id of each queued *constrained* probe, dense by probe
    /// id (`ABSENT` = unconstrained or not queued).
    probe_set: Vec<u32>,
    /// Interned distinct constraint instances, by instance id.
    instances: Vec<Constraint>,
    instance_ids: HashMap<Constraint, u32>,
    /// Feasibility bitset of each interned instance (parallel to
    /// `instances`), shared with the index's cache.
    instance_bits: Vec<Arc<[u64]>>,
}

impl CrvLedger {
    /// An empty ledger over `workers` all-idle workers split into
    /// `domains` contiguous ranges (`0` or `1` = one cluster-wide domain).
    pub fn new(workers: usize, domains: usize) -> Self {
        let partition = DomainPartition::new(workers, domains);
        let idle = range_words(0, workers).map(|(_, mask)| mask).collect();
        CrvLedger {
            domains: vec![DomainBook::default(); partition.domains()],
            partition,
            idle,
            set_instances: Vec::new(),
            set_ids: HashMap::new(),
            job_sets: Vec::new(),
            probe_set: Vec::new(),
            instances: Vec::new(),
            instance_ids: HashMap::new(),
            instance_bits: Vec::new(),
        }
    }

    /// Queued (probe, constraint) pairs demanding `kind`.
    pub fn demand(&self, kind: ConstraintKind) -> u64 {
        self.domains.iter().map(|d| d.demand[kind.index()]).sum()
    }

    /// Idle workers satisfying at least one currently-demanded instance of
    /// `kind`, computed now.
    pub fn idle_supply(&self, kind: ConstraintKind) -> u64 {
        self.supply_in(kind, 0, self.partition.workers(), |inst| {
            self.domains.iter().any(|d| d.instance_refs[inst] > 0)
        })
    }

    /// Total queued probes.
    pub fn queued_probes(&self) -> usize {
        self.domains.iter().map(|d| d.queued_probes).sum()
    }

    /// Queued probes belonging to constrained jobs.
    pub fn constrained_probes(&self) -> usize {
        self.domains.iter().map(|d| d.constrained_probes).sum()
    }

    /// Alive workers with no running task.
    pub fn idle_workers(&self) -> usize {
        self.idle_in(0, self.partition.workers())
    }

    /// Distinct constraint instances currently under demand.
    pub fn distinct_instances(&self) -> usize {
        (0..self.instances.len())
            .filter(|&inst| self.domains.iter().any(|d| d.instance_refs[inst] > 0))
            .count()
    }

    /// Domain `d`'s live figures, as a gossip round would publish them at
    /// `now`: its own demand and probe counts, and idle supply over its
    /// worker range for the instances its own probes demand.
    pub fn summary(&self, d: usize, now: SimTime) -> DomainSummary {
        let (base, len) = self.partition.range(d);
        let book = &self.domains[d];
        DomainSummary {
            published_at: now.as_micros(),
            demand: book.demand,
            idle_supply: std::array::from_fn(|k| {
                self.supply_in(ConstraintKind::ALL[k], base, base + len, |inst| {
                    book.instance_refs[inst] > 0
                })
            }),
            queued_probes: book.queued_probes,
            constrained_probes: book.constrained_probes,
            idle_workers: self.idle_in(base, base + len),
        }
    }

    /// Records a probe of `job` demanding `set` entering `worker`'s queue.
    /// `set` must be the job's effective set — it is interned once per job
    /// and subsequent probes reuse the handle.
    pub fn probe_enqueued(
        &mut self,
        worker: usize,
        id: ProbeId,
        job: JobId,
        set: &ConstraintSet,
        feasibility: &FeasibilityIndex,
    ) {
        let d = self.partition.domain_of_worker(worker);
        self.domains[d].queued_probes += 1;
        if set.is_unconstrained() {
            return;
        }
        let job_idx = job.0 as usize;
        if self.job_sets.len() <= job_idx {
            self.job_sets.resize(job_idx + 1, ABSENT);
        }
        let mut set_id = self.job_sets[job_idx];
        if set_id == ABSENT {
            set_id = self.intern(set, feasibility);
            self.job_sets[job_idx] = set_id;
        }
        debug_assert!(
            self.set_instances[set_id as usize]
                .iter()
                .map(|&inst| self.instances[inst as usize])
                .eq(set.iter().copied()),
            "job {job:?} effective set changed after its first probe was interned"
        );
        let pid = usize::try_from(id.0).expect("probe id fits usize");
        if self.probe_set.len() <= pid {
            self.probe_set.resize(pid + 1, ABSENT);
        }
        debug_assert_eq!(
            self.probe_set[pid], ABSENT,
            "probe {id:?} enqueued twice without removal"
        );
        self.probe_set[pid] = set_id;
        let book = &mut self.domains[d];
        book.constrained_probes += 1;
        for &inst in &self.set_instances[set_id as usize] {
            book.demand[self.instances[inst as usize].kind.index()] += 1;
            book.instance_refs[inst as usize] += 1;
        }
    }

    /// Records a queued probe leaving `worker`'s queue (dispatch, steal,
    /// recall, redundant-probe discard).
    pub fn probe_removed(&mut self, worker: usize, id: ProbeId) {
        let book = &mut self.domains[self.partition.domain_of_worker(worker)];
        debug_assert!(
            book.queued_probes > 0,
            "probe {id:?} removed from an empty domain"
        );
        book.queued_probes -= 1;
        let pid = usize::try_from(id.0).expect("probe id fits usize");
        let set_id = match self.probe_set.get(pid) {
            Some(&s) if s != ABSENT => s,
            _ => return, // unconstrained probe
        };
        self.probe_set[pid] = ABSENT;
        book.constrained_probes -= 1;
        for &inst in &self.set_instances[set_id as usize] {
            book.demand[self.instances[inst as usize].kind.index()] -= 1;
            debug_assert!(
                book.instance_refs[inst as usize] > 0,
                "removed probe's instances are refcounted"
            );
            book.instance_refs[inst as usize] -= 1;
        }
    }

    /// Records `worker` becoming busy or dead (first slot occupied, or a
    /// crash). A no-op if it already was.
    pub fn worker_busy(&mut self, worker: usize) {
        self.idle[worker / 64] &= !(1u64 << (worker % 64));
    }

    /// Records `worker` becoming idle and alive (last slot freed, or a
    /// recovery). A no-op if it already was.
    pub fn worker_idle(&mut self, worker: usize) {
        self.idle[worker / 64] |= 1u64 << (worker % 64);
    }

    /// Idle workers in `[lo, hi)`.
    fn idle_in(&self, lo: usize, hi: usize) -> usize {
        range_words(lo, hi)
            .map(|(w, mask)| (self.idle[w] & mask).count_ones() as usize)
            .sum()
    }

    /// Idle workers in `[lo, hi)` satisfying at least one instance of
    /// `kind` for which `demanded(instance id)` holds.
    fn supply_in(
        &self,
        kind: ConstraintKind,
        lo: usize,
        hi: usize,
        demanded: impl Fn(usize) -> bool,
    ) -> u64 {
        let first = lo / 64;
        let mut union = vec![0u64; hi.div_ceil(64).saturating_sub(first)];
        for (inst, c) in self.instances.iter().enumerate() {
            if c.kind == kind && demanded(inst) {
                let bits = &self.instance_bits[inst][first..first + union.len()];
                for (u, &b) in union.iter_mut().zip(bits) {
                    *u |= b;
                }
            }
        }
        range_words(lo, hi)
            .map(|(w, mask)| u64::from((union[w - first] & self.idle[w] & mask).count_ones()))
            .sum()
    }

    /// Interns a constraint set (and each of its instances) into dense
    /// ids. Only reached once per distinct set — per-probe traffic goes
    /// through the `job_sets` memo.
    fn intern(&mut self, set: &ConstraintSet, feasibility: &FeasibilityIndex) -> u32 {
        let key: Vec<Constraint> = set.iter().copied().collect();
        if let Some(&id) = self.set_ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.set_instances.len()).expect("fewer than 2^32 distinct sets");
        let instances = key
            .iter()
            .map(|c| {
                if let Some(&i) = self.instance_ids.get(c) {
                    return i;
                }
                let i = u32::try_from(self.instances.len())
                    .expect("fewer than 2^32 distinct instances");
                self.instances.push(*c);
                self.instance_bits.push(feasibility.feasible_single(c));
                for book in &mut self.domains {
                    book.instance_refs.push(0);
                }
                self.instance_ids.insert(*c, i);
                i
            })
            .collect();
        self.set_instances.push(instances);
        self.set_ids.insert(key, id);
        id
    }
}

/// The 64-bit words covering workers `[lo, hi)`, each with the mask of its
/// in-range bits.
fn range_words(lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first, end) = if lo < hi {
        (lo / 64, hi.div_ceil(64))
    } else {
        (0, 0)
    };
    (first..end).map(move |w| {
        let mut mask = !0u64;
        if w == lo / 64 {
            mask &= !0u64 << (lo % 64);
        }
        if w == end - 1 && !hi.is_multiple_of(64) {
            mask &= (1u64 << (hi % 64)) - 1;
        }
        (w, mask)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{AttributeVector, ConstraintOp};

    fn machines() -> Vec<AttributeVector> {
        // Two big-core machines, two small-core ones.
        (0..4)
            .map(|i| AttributeVector {
                num_cores: if i < 2 { 16 } else { 2 },
                ..AttributeVector::default()
            })
            .collect()
    }

    fn cores_gt(value: u64) -> ConstraintSet {
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            value,
        )])
    }

    #[test]
    fn demand_and_supply_track_probe_lifecycle() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, 1);
        let set = cores_gt(4);
        ledger.probe_enqueued(0, ProbeId(1), JobId(0), &set, &index);
        ledger.probe_enqueued(3, ProbeId(2), JobId(0), &set, &index);
        assert_eq!(ledger.demand(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.constrained_probes(), 2);
        assert_eq!(ledger.distinct_instances(), 1);

        ledger.probe_removed(0, ProbeId(1));
        assert_eq!(ledger.demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 2);

        // Last demanding probe leaves: the instance (and its supply) clears.
        ledger.probe_removed(3, ProbeId(2));
        assert_eq!(ledger.demand(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.distinct_instances(), 0);
        assert_eq!(ledger.queued_probes(), 0);
    }

    #[test]
    fn unconstrained_probes_only_count_queue_depth() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, 1);
        ledger.probe_enqueued(
            1,
            ProbeId(9),
            JobId(3),
            &ConstraintSet::unconstrained(),
            &index,
        );
        assert_eq!(ledger.queued_probes(), 1);
        assert_eq!(ledger.constrained_probes(), 0);
        ledger.probe_removed(1, ProbeId(9));
        assert_eq!(ledger.queued_probes(), 0);
    }

    #[test]
    fn busy_workers_leave_the_supply() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, 1);
        ledger.probe_enqueued(2, ProbeId(1), JobId(0), &cores_gt(4), &index);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 2);
        ledger.worker_busy(0);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.idle_workers(), 3);
        // Transition hooks are idempotent.
        ledger.worker_busy(0);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 1);
        ledger.worker_idle(0);
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.idle_workers(), 4);
    }

    #[test]
    fn overlapping_sets_share_instances() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, 1);
        let shared = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4);
        let a = ConstraintSet::from_constraints(vec![shared]);
        let b = ConstraintSet::from_constraints(vec![
            shared,
            Constraint::hard(ConstraintKind::MinDisks, ConstraintOp::Gt, 0),
        ]);
        ledger.probe_enqueued(0, ProbeId(1), JobId(0), &a, &index);
        ledger.probe_enqueued(1, ProbeId(2), JobId(1), &b, &index);
        assert_eq!(ledger.demand(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.distinct_instances(), 2);
        // Removing the pure-core probe keeps the shared instance alive.
        ledger.probe_removed(0, ProbeId(1));
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.distinct_instances(), 2);
        ledger.probe_removed(1, ProbeId(2));
        assert_eq!(ledger.distinct_instances(), 0);
    }

    #[test]
    fn domain_summaries_count_only_their_own_range_and_probes() {
        let index = FeasibilityIndex::new(machines());
        // Domain 0 owns the big-core workers 0..2, domain 1 the small-core
        // workers 2..4.
        let mut ledger = CrvLedger::new(4, 2);
        assert_eq!(ledger.summary(1, SimTime::ZERO).idle_workers, 2);
        ledger.probe_enqueued(3, ProbeId(1), JobId(0), &cores_gt(4), &index);
        // Domain 1 demands the instance, but both feasible workers (0, 1)
        // sit in domain 0, which has no probe demanding it.
        let s1 = ledger.summary(1, SimTime(7));
        assert_eq!(s1.published_at, 7);
        assert_eq!(s1.demand[ConstraintKind::NumCores.index()], 1);
        assert_eq!(s1.idle_supply[ConstraintKind::NumCores.index()], 0);
        assert_eq!(s1.queued_probes, 1);
        let s0 = ledger.summary(0, SimTime(7));
        assert_eq!(s0.queued_probes, 0);
        assert_eq!(s0.idle_supply[ConstraintKind::NumCores.index()], 0);
        // The cluster-wide view sums the domains.
        assert_eq!(ledger.idle_supply(ConstraintKind::NumCores), 2);
        ledger.worker_busy(3);
        assert_eq!(ledger.summary(1, SimTime::ZERO).idle_workers, 1);
        assert_eq!(ledger.summary(0, SimTime::ZERO).idle_workers, 2);

        // A constraint the small-core workers do satisfy contributes.
        ledger.probe_enqueued(2, ProbeId(2), JobId(1), &cores_gt(1), &index);
        let s1 = ledger.summary(1, SimTime::ZERO);
        assert_eq!(s1.idle_supply[ConstraintKind::NumCores.index()], 1);
        ledger.probe_removed(2, ProbeId(2));
        let s1 = ledger.summary(1, SimTime::ZERO);
        assert_eq!(s1.idle_supply[ConstraintKind::NumCores.index()], 0);
    }

    #[test]
    fn range_words_mask_the_edge_words() {
        let words: Vec<(usize, u64)> = range_words(60, 130).collect();
        assert_eq!(
            words,
            vec![(0, !0u64 << 60), (1, !0u64), (2, (1u64 << 2) - 1)]
        );
        assert_eq!(range_words(5, 5).count(), 0);
        assert_eq!(range_words(64, 128).collect::<Vec<_>>(), vec![(1, !0u64)]);
        assert_eq!(
            range_words(3, 9).collect::<Vec<_>>(),
            vec![(0, ((1u64 << 9) - 1) & (!0u64 << 3))]
        );
    }

    #[test]
    fn probe_ids_and_job_memo_reuse_dense_handles() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, 1);
        let set = cores_gt(4);
        // Re-enqueue after removal (migration) reuses the probe id slot.
        ledger.probe_enqueued(0, ProbeId(5), JobId(2), &set, &index);
        ledger.probe_removed(0, ProbeId(5));
        ledger.probe_enqueued(1, ProbeId(5), JobId(2), &set, &index);
        assert_eq!(ledger.demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.constrained_probes(), 1);
        ledger.probe_removed(1, ProbeId(5));
        assert_eq!(ledger.demand(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.queued_probes(), 0);
    }
}
