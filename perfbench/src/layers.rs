//! Self-time accounting for one traced run.
//!
//! Two sources of spans, both read from outside the engine: the engine's
//! own profiler scopes (`SimResult::profile`) and the hook wrapper's
//! per-hook totals ([`HookStats`]). Their nesting, read from the call
//! sites:
//!
//! * `event_pop`, `handle_event` and `dispatch` are disjoint and run
//!   back to back in `Simulation::run`; `dispatch` runs from
//!   `drain_touched`, outside `handle_event`.
//! * `select_probe` is called only from `try_dispatch`, so it lies in
//!   `dispatch`. Every other hook is called from `handle_event`.
//! * `sample` (`SimCtx::sample_*`) runs inside whichever hook places a
//!   probe; `steal` runs inside `on_task_finish`; `heartbeat_refresh` and
//!   `reorder` run inside `on_wakeup`.
//! * Inside `on_wakeup`, Phoenix samples only from stuck-probe migration,
//!   which runs within the `reorder` scope.
//!
//! Each layer's self time is its span minus the spans nested in it, so the
//! self times plus the time no span covers add up to the run's `sim_s`.

use phoenix_sim::{ProfileReport, ProfileScope};

use crate::timed::{Hook, HookStats, NESTED};

const SAMPLE: usize = 0;
const REFRESH: usize = 2;
const REORDER: usize = 3;

/// One layer's share of a traced run.
pub struct LayerTime {
    pub name: &'static str,
    pub calls: Option<(&'static str, u64)>,
    pub self_s: f64,
}

fn s(ns: i128) -> f64 {
    ns as f64 / 1e9
}

/// Splits a traced run's `sim_s` into exclusive layer self times. Fails
/// when the spans do not nest the way the module docs say they do.
pub fn self_times(
    profile: &ProfileReport,
    hooks: &HookStats,
    sim_s: f64,
) -> Result<Vec<LayerTime>, String> {
    let scope = |sc: ProfileScope| profile.scope(sc);
    let ns = |sc: ProfileScope| i128::from(scope(sc).total_ns);
    let hook = |h: Hook| hooks.get(h);
    let hook_ns = |h: Hook| i128::from(hook(h).total_ns);
    let nested_ns = |h: Hook, k: usize| i128::from(hook(h).nested_ns[k]);

    for (k, nested) in NESTED.iter().enumerate() {
        let inside: u64 = hooks.hooks.iter().map(|t| t.nested_calls[k]).sum();
        if inside != scope(*nested).calls {
            return Err(format!(
                "{} entered {} times, {} of them inside hooks",
                nested.name(),
                scope(*nested).calls,
                inside
            ));
        }
    }

    // A hook's self time excludes every scope nested in it; in `on_wakeup`
    // the samples sit inside `reorder`, which is subtracted whole.
    let hook_self = |h: Hook| -> i128 {
        let nested: i128 = match h {
            Hook::Wakeup => nested_ns(h, REFRESH) + nested_ns(h, REORDER),
            _ => (0..NESTED.len()).map(|k| nested_ns(h, k)).sum(),
        };
        hook_ns(h) - nested
    };
    let other_hooks = [
        Hook::JobComplete,
        Hook::ProbeRetry,
        Hook::WorkerCrash,
        Hook::WorkerRecover,
    ];
    let in_handle_event: i128 = [
        Hook::JobArrival,
        Hook::ProbeEnqueued,
        Hook::TaskFinish,
        Hook::Wakeup,
    ]
    .into_iter()
    .chain(other_hooks)
    .map(hook_ns)
    .sum();
    let calls = |name, n| Some((name, n));
    let layers = vec![
        LayerTime {
            name: "sim.event_pop_s",
            calls: calls("sim.event_pop.calls", scope(ProfileScope::EventPop).calls),
            self_s: s(ns(ProfileScope::EventPop)),
        },
        LayerTime {
            name: "sim.dispatch.self_s",
            calls: calls("sim.dispatch.calls", scope(ProfileScope::Dispatch).calls),
            self_s: s(ns(ProfileScope::Dispatch) - hook_ns(Hook::SelectProbe)),
        },
        LayerTime {
            name: "sim.engine.self_s",
            calls: calls(
                "sim.handle_event.calls",
                scope(ProfileScope::HandleEvent).calls,
            ),
            self_s: s(ns(ProfileScope::HandleEvent) - in_handle_event),
        },
        LayerTime {
            name: "policy.job_arrival.self_s",
            calls: calls("policy.job_arrival.calls", hook(Hook::JobArrival).calls),
            self_s: s(hook_self(Hook::JobArrival)),
        },
        LayerTime {
            name: "policy.probe_enqueued.self_s",
            calls: calls(
                "policy.probe_enqueued.calls",
                hook(Hook::ProbeEnqueued).calls,
            ),
            self_s: s(hook_self(Hook::ProbeEnqueued)),
        },
        LayerTime {
            name: "policy.select_probe.self_s",
            calls: calls("policy.select_probe.calls", hook(Hook::SelectProbe).calls),
            self_s: s(hook_self(Hook::SelectProbe)),
        },
        LayerTime {
            name: "policy.task_finish.self_s",
            calls: calls("policy.task_finish.calls", hook(Hook::TaskFinish).calls),
            self_s: s(hook_self(Hook::TaskFinish)),
        },
        LayerTime {
            name: "policy.heartbeat.self_s",
            calls: calls("policy.heartbeat.calls", hook(Hook::Wakeup).calls),
            self_s: s(hook_self(Hook::Wakeup)),
        },
        LayerTime {
            name: "policy.other_hooks.self_s",
            calls: calls(
                "policy.other_hooks.calls",
                other_hooks.iter().map(|&h| hook(h).calls).sum(),
            ),
            self_s: s(other_hooks.iter().map(|&h| hook_self(h)).sum()),
        },
        LayerTime {
            name: "constraints.sample_s",
            calls: calls(
                "constraints.sample.calls",
                scope(ProfileScope::Sample).calls,
            ),
            self_s: s(ns(ProfileScope::Sample)),
        },
        LayerTime {
            name: "policy.steal_s",
            calls: calls("policy.steal.calls", scope(ProfileScope::Steal).calls),
            self_s: s(ns(ProfileScope::Steal)),
        },
        LayerTime {
            name: "core.monitor_refresh_s",
            calls: calls(
                "core.monitor_refresh.calls",
                scope(ProfileScope::HeartbeatRefresh).calls,
            ),
            self_s: s(ns(ProfileScope::HeartbeatRefresh)),
        },
        LayerTime {
            name: "core.reorder_s",
            calls: calls("core.reorder.calls", scope(ProfileScope::Reorder).calls),
            self_s: s(ns(ProfileScope::Reorder) - nested_ns(Hook::Wakeup, SAMPLE)),
        },
        LayerTime {
            name: "sim.unattributed_s",
            calls: None,
            self_s: sim_s
                - s(ns(ProfileScope::EventPop)
                    + ns(ProfileScope::HandleEvent)
                    + ns(ProfileScope::Dispatch)),
        },
    ];
    if let Some(negative) = layers.iter().find(|l| l.self_s < 0.0) {
        return Err(format!(
            "{} is negative ({} s): the spans do not nest as assumed",
            negative.name, negative.self_s
        ));
    }
    let total: f64 = layers.iter().map(|l| l.self_s).sum();
    if (total - sim_s).abs() > 1e-9 * sim_s.max(1.0) {
        return Err(format!("layer self times sum to {total} s, not {sim_s} s"));
    }
    Ok(layers)
}
