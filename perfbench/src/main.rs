//! Phoenix simulator benchmark: one workload per invocation.
//!
//! ```text
//! phoenix-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! phoenix-perfbench --list
//! ```
//!
//! `--trace 0` measures end-to-end numbers from untraced runs, repeated
//! until `--seconds` have passed (at least [`MIN_REPS`] times), and reports
//! medians. The repeats cycle through [`STREAMS`] simulation seeds derived
//! from `--seed`, the first being `--seed` itself. `--trace 1` alternates
//! untraced runs with traced ones (engine profiler on, policy wrapped in
//! [`timed::TimedScheduler`]), all at `--seed`, and reports per-layer self
//! times, work counters and the tracing overhead.
//!
//! Every simulation is checked: all jobs finish or fail admission, no task
//! is lost, every run of a simulation seed has the same digest (traced ones
//! too), and at seed 1 the digest is the one recorded for the workload. A
//! run that breaks any of these counts as failed. The last line of stdout
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod setup;
mod timed;
mod workloads;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use phoenix_bench::RunSpec;
use phoenix_constraints::{ConstraintSet, FeasibilityIndex, MachinePopulation};
use phoenix_metrics::{ConstraintStatus, JobClass, LatencyKey};
use phoenix_sim::SimResult;

use setup::{build, population_rng};
use workloads::{Workload, INPUT_SEED, WORKLOADS};

/// Simulation seeds an end-to-end run cycles through. Host time per task
/// depends a little on the random stream (on the expression workload, by
/// about 5% between seeds), so one run samples several streams.
const STREAMS: u64 = 4;
/// Distance between a run's stream seeds, so that the streams of nearby
/// `--seed` values never coincide.
const STREAM_STRIDE: u64 = 1 << 32;
/// Fewest untraced simulations an end-to-end run makes, however short
/// `--seconds`: one per stream.
const MIN_REPS: usize = STREAMS as usize;
/// Fewest simulations of each kind (untraced, traced) a traced run makes.
const MIN_TRACED_REPS: usize = 2;
/// Set-ups whose median `setup_s` reports: at least this many, and at
/// least [`MIN_SETUP_SECONDS`] of them, so that cheap set-ups are sampled
/// often enough to give a steady median.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_SECONDS: f64 = 1.0;
/// Fewest passes over the distinct constraint sets for `cold_eval_s`.
const MIN_COLD_PASSES: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list" {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// A `/proc/self/status` memory figure (`VmRSS`, `VmHWM`), in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Index of the lower-median element of `values`.
fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(values.len() - 1) / 2]
}

/// Counts simulations and checks each one's output.
struct Checker<'a> {
    workload: &'a Workload,
    /// First digest seen per simulation seed.
    digests: HashMap<u64, u64>,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    /// Checks the result of a simulation run with `spec`.
    fn check(&mut self, spec: &RunSpec, result: &SimResult, label: &str) {
        self.attempted += 1;
        let c = &result.counters;
        let digest = result.digest();
        let mut errors = Vec::new();
        if result.incomplete_jobs != 0 {
            errors.push(format!("{} incomplete jobs", result.incomplete_jobs));
        }
        if result.lost_tasks != 0 {
            errors.push(format!("{} lost tasks", result.lost_tasks));
        }
        let jobs = self.workload.jobs() as u64;
        if c.jobs_completed + c.jobs_failed != jobs {
            errors.push(format!(
                "{} completed + {} failed jobs != {jobs}",
                c.jobs_completed, c.jobs_failed
            ));
        }
        let first = *self.digests.entry(spec.seed).or_insert(digest);
        if first != digest {
            errors.push(format!(
                "digest {digest:#018x} differs from the seed's first run {first:#018x}"
            ));
        }
        if spec.seed == 1 && digest != self.workload.seed1_digest {
            errors.push(format!(
                "digest {digest:#018x} != recorded {:#018x}",
                self.workload.seed1_digest
            ));
        }
        if !errors.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {label} run: {}", errors.join("; "));
        }
    }
}

/// A metric value: a measured number or an exact count.
enum Value {
    Real(f64),
    Count(u64),
}

struct Metrics(Vec<(String, &'static str, Value)>);

impl Metrics {
    fn real(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), unit, Value::Real(value)));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.0
            .push((name.to_string(), "count", Value::Count(value)));
    }

    /// Prints one `name value unit` line per metric, then the result JSON
    /// as the last line.
    fn print(&self, checker: &Checker<'_>) {
        let mut json = String::new();
        let mut correct = checker.failed == 0;
        for (i, (name, unit, value)) in self.0.iter().enumerate() {
            let number = match value {
                Value::Real(v) if v.is_finite() => format!("{v}"),
                Value::Real(_) => {
                    eprintln!("FAILED: {name} is not finite");
                    correct = false;
                    "null".to_string()
                }
                Value::Count(n) => n.to_string(),
            };
            println!("{name:<34} {number:>24} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            checker.attempted, checker.failed
        );
    }
}

/// Host timings of one untraced simulation.
struct Timed {
    setup: setup::SetupTiming,
    sim_s: f64,
    tasks: u64,
}

/// One untraced set-up plus run, checked.
fn untraced_run(spec: &RunSpec, checker: &mut Checker<'_>) -> Timed {
    let built = build(spec, INPUT_SEED, false);
    let started = Instant::now();
    let result = built.sim.run();
    let sim_s = started.elapsed().as_secs_f64();
    drop(built.trace);
    checker.check(spec, &result, "untraced");
    Timed {
        setup: built.timing,
        sim_s,
        tasks: result.counters.tasks_completed,
    }
}

fn end_to_end(args: &Args, checker: &mut Checker<'_>) -> Metrics {
    let specs: Vec<RunSpec> = (0..STREAMS)
        .map(|i| {
            args.workload
                .spec(args.seed.wrapping_add(i * STREAM_STRIDE))
        })
        .collect();
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_REPS || started.elapsed() < args.seconds {
        runs.push(untraced_run(&specs[runs.len() % specs.len()], checker));
    }
    let spec = &specs[0];
    let mut setup_s: Vec<f64> = runs.iter().map(|r| r.setup.total_s).collect();
    while setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < MIN_SETUP_SECONDS {
        setup_s.push(build(spec, INPUT_SEED, false).timing.total_s);
    }
    let rate: Vec<f64> = runs.iter().map(|r| r.tasks as f64 / r.sim_s).collect();
    let mut m = Metrics(Vec::new());
    m.real("tasks_per_s", "1/s", median(&rate));
    m.real("setup_s", "s", median(&setup_s));
    m.real("peak_rss_mb", "MB", proc_status_mb("VmHWM"));
    m
}

/// The trace's distinct constraint sets, in first-seen order.
fn distinct_sets(trace: &phoenix_traces::Trace) -> Vec<ConstraintSet> {
    let mut seen = HashSet::new();
    trace
        .jobs()
        .iter()
        .filter(|job| seen.insert(&job.constraints))
        .map(|job| job.constraints.clone())
        .collect()
}

/// Median host seconds of one cold pass over `sets` on a freshly built
/// index; fails if the cold count disagrees with the cached one.
fn cold_eval_s(spec: &RunSpec, sets: &[ConstraintSet]) -> Result<f64, String> {
    let cluster = MachinePopulation::generate(
        spec.profile.population.clone(),
        spec.nodes,
        &mut population_rng(INPUT_SEED),
    );
    let index = FeasibilityIndex::new(cluster.into_machines());
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_COLD_PASSES || started.elapsed() < Duration::from_millis(200) {
        let pass = Instant::now();
        let total: usize = sets
            .iter()
            .map(|set| index.count_feasible_uncached(black_box(set)))
            .sum();
        black_box(total);
        passes.push(pass.elapsed().as_secs_f64());
    }
    for set in sets {
        let (cold, cached) = (
            index.count_feasible_uncached(set),
            index.count_feasible(set),
        );
        if cold != cached {
            return Err(format!("cold count {cold} != cached count {cached}"));
        }
    }
    Ok(median(&passes))
}

/// One traced simulation's layer split and counters.
struct Traced {
    sim_s: f64,
    layers: Vec<layers::LayerTime>,
    result: SimResult,
}

fn per_layer(args: &Args, spec: &RunSpec, checker: &mut Checker<'_>) -> Metrics {
    let mut setups = Vec::new();
    // Untraced and traced runs alternate, so `untraced_sim_s[i]` ran just
    // before `traced_sim_s[i]`.
    let mut untraced_sim_s = Vec::new();
    let mut traced_sim_s = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();

    // The first untraced run also takes the memory readings and the
    // trace's constraint sets, in a process that has run nothing yet.
    let built = build(spec, INPUT_SEED, false);
    let setup_rss_mb = proc_status_mb("VmRSS");
    let sets = distinct_sets(&built.trace);
    let started = Instant::now();
    let result = built.sim.run();
    untraced_sim_s.push(started.elapsed().as_secs_f64());
    let run_growth_mb = proc_status_mb("VmHWM") - setup_rss_mb;
    drop(built.trace);
    checker.check(spec, &result, "untraced");
    setups.push(built.timing);
    drop(result);

    let started = Instant::now();
    loop {
        let built = build(spec, INPUT_SEED, true);
        let hooks = built.hooks.expect("traced build has hook stats");
        let sim_started = Instant::now();
        let result = built.sim.run();
        let sim_s = sim_started.elapsed().as_secs_f64();
        traced_sim_s.push(sim_s);
        drop(built.trace);
        setups.push(built.timing);
        checker.check(spec, &result, "traced");
        let profile = result.profile.expect("traced run is profiled");
        let stats = *hooks.borrow();
        match layers::self_times(&profile, &stats, sim_s) {
            Ok(layers) => traced.push(Traced {
                sim_s,
                layers,
                result,
            }),
            Err(e) => {
                checker.failed += 1;
                eprintln!("FAILED traced run accounting: {e}");
            }
        }
        if untraced_sim_s.len() >= MIN_TRACED_REPS && started.elapsed() >= args.seconds {
            break;
        }
        let timed = untraced_run(spec, checker);
        setups.push(timed.setup);
        untraced_sim_s.push(timed.sim_s);
    }

    let mut m = Metrics(Vec::new());
    let setup_median =
        |f: fn(&setup::SetupTiming) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.real("traces.generate_s", "s", setup_median(|t| t.trace_gen_s));
    m.real(
        "constraints.population_s",
        "s",
        setup_median(|t| t.population_s),
    );
    m.real(
        "constraints.index_build_s",
        "s",
        setup_median(|t| t.index_build_s),
    );
    m.real("sim.new_s", "s", setup_median(|t| t.sim_new_s));
    if traced.is_empty() {
        return m;
    }
    let sims: Vec<f64> = traced.iter().map(|t| t.sim_s).collect();
    let shown = &traced[median_index(&sims)];
    for layer in &shown.layers {
        if let Some((name, calls)) = layer.calls {
            m.count(name, calls);
        }
        m.real(layer.name, "s", layer.self_s);
    }
    m.real("trace.sim_s", "s", shown.sim_s);
    m.real("trace.untraced_sim_s", "s", median(&untraced_sim_s));
    // Each traced run against the untraced run just before it, so that a
    // drift in host speed over the run cancels out.
    let overhead: Vec<f64> = traced_sim_s
        .iter()
        .zip(&untraced_sim_s)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    m.real("trace.overhead_frac", "ratio", median(&overhead));
    m.count("constraints.distinct_sets", sets.len() as u64);
    checker.attempted += 1;
    match cold_eval_s(spec, &sets) {
        Ok(s) => m.real("constraints.cold_eval_s", "s", s),
        Err(e) => {
            checker.failed += 1;
            eprintln!("FAILED cold evaluation: {e}");
        }
    }
    m.real("mem.setup_rss_mb", "MB", setup_rss_mb);
    m.real("mem.run_growth_mb", "MB", run_growth_mb);
    // Simulated results: identical for every run of a seed, so they show
    // what was computed rather than how fast (see README.md).
    let outcome = &shown.result;
    m.real(
        "sim.makespan_s",
        "sim_s",
        outcome.metrics.makespan.as_secs_f64(),
    );
    let short = |p| outcome.class_response_percentile(JobClass::Short, p);
    m.real("sim.short_p50_s", "sim_s", short(50.0));
    m.real("sim.short_p99_s", "sim_s", short(99.0));
    m.real(
        "sim.constrained_short_p99_s",
        "sim_s",
        outcome.response_percentile(
            LatencyKey::new(JobClass::Short, ConstraintStatus::Constrained),
            99.0,
        ),
    );
    let c = &shown.result.counters;
    m.count("sim.probes_sent", c.probes_sent);
    m.real(
        "sim.useful_probe_ratio",
        "ratio",
        1.0 - c.redundant_probes as f64 / c.probes_sent.max(1) as f64,
    );
    m.count("sim.bound_placements", c.bound_placements);
    m.count("policy.stolen_probes", c.stolen_probes);
    m.count("policy.srpt_reordered_tasks", c.srpt_reordered_tasks);
    m.count("core.crv_reordered_tasks", c.crv_reordered_tasks);
    m.count("core.crv_insertions", c.crv_insertions);
    m.count("core.relaxed_tasks", c.relaxed_tasks);
    m.count("core.starvation_suppressions", c.starvation_suppressions);
    let fed = shown.result.federation.unwrap_or_default();
    m.count("federation.gossip_rounds", fed.gossip_rounds);
    m.count("federation.home_samples", fed.home_samples);
    m.count("federation.remote_samples", fed.remote_samples);
    m.count("federation.cluster_fallbacks", fed.cluster_fallbacks);
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut checker = Checker {
        workload: args.workload,
        digests: HashMap::new(),
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        per_layer(&args, &args.workload.spec(args.seed), &mut checker)
    } else {
        end_to_end(&args, &mut checker)
    };
    eprintln!(
        "{} seed {}: {} simulations, digest {:#018x}",
        args.workload.name,
        args.seed,
        checker.attempted,
        checker.digests.get(&args.seed).copied().unwrap_or(0)
    );
    metrics.print(&checker);
}
