//! Engine configuration.

use crate::fault::FaultPlan;
use crate::time::SimDuration;

/// Federated-scheduling parameters: the cluster is sharded into `domains`
/// contiguous worker ranges, each owning its slice of the CRV ledger;
/// domains learn about each other only through periodic summary gossip
/// delivered with a configurable staleness (see [`crate::federation`]).
///
/// The load-bearing parity rule: with `domains <= 1` the engine behaves
/// **byte-identically** to the centralized configuration — no gossip events
/// are scheduled, placement sampling is unrestricted, and every golden
/// digest is unchanged. A single-domain federation still reports
/// [`crate::FederationStats`] without perturbing a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationConfig {
    /// Number of federated domains. `0` or `1` disables federation effects
    /// (`0` also skips the federation stats).
    pub domains: usize,
    /// Interval between gossip rounds: each round, every domain publishes
    /// a fresh summary of its ledger.
    pub gossip_interval: SimDuration,
    /// Propagation delay before a published summary becomes visible to the
    /// other domains. Zero installs summaries at publish time (domains are
    /// then stale only by the gossip interval).
    pub staleness: SimDuration,
}

impl FederationConfig {
    /// Federation off: the centralized engine, bit for bit.
    pub fn off() -> Self {
        FederationConfig {
            domains: 0,
            gossip_interval: SimDuration::from_secs(5),
            staleness: SimDuration::ZERO,
        }
    }

    /// A `k`-domain federation with the default 5 s gossip interval and
    /// the given summary staleness.
    pub fn sharded(k: usize, staleness: SimDuration) -> Self {
        FederationConfig {
            domains: k,
            staleness,
            ..Self::off()
        }
    }

    /// Whether any federation bookkeeping runs (at least one domain).
    pub fn is_active(&self) -> bool {
        self.domains > 0
    }

    /// Whether placement is actually partitioned (two or more domains).
    /// Single-domain federations keep the centralized behavior.
    pub fn is_partitioned(&self) -> bool {
        self.domains > 1
    }

    /// Checks that a run under this configuration can make progress.
    ///
    /// # Errors
    ///
    /// [`FederationConfigError::ZeroGossipInterval`] for a partitioned
    /// federation whose gossip rounds would all fire at one instant.
    pub fn validate(&self) -> Result<(), FederationConfigError> {
        if self.is_partitioned() && self.gossip_interval == SimDuration::ZERO {
            return Err(FederationConfigError::ZeroGossipInterval {
                domains: self.domains,
            });
        }
        Ok(())
    }
}

/// Why a [`FederationConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationConfigError {
    /// A partitioned federation with a zero gossip interval: every round
    /// would reschedule the next at the same instant, so virtual time
    /// would never advance.
    ZeroGossipInterval {
        /// The configured domain count.
        domains: usize,
    },
}

impl std::fmt::Display for FederationConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationConfigError::ZeroGossipInterval { domains } => write!(
                f,
                "invalid federation config: gossip_interval is zero with {domains} domains \
                 (gossip would never let virtual time advance)"
            ),
        }
    }
}

impl std::error::Error for FederationConfigError {}

impl Default for FederationConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Engine-level parameters (scheduler-specific parameters such as probe
/// ratios or heartbeat intervals live in the scheduler configs).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// One-way network delay for scheduler↔worker messages. The paper fixes
    /// the round trip at 0.5 ms (§V-A), so one way is 0.25 ms.
    pub network_delay: SimDuration,
    /// Bucket width for the Fig.-3 style queuing-delay time series.
    pub timeseries_bucket: SimDuration,
    /// Keep per-task wait samples (large); disable for big sweeps.
    pub record_task_waits: bool,
    /// Scale task execution times by the executing machine's CPU clock
    /// relative to [`SimConfig::reference_clock_mhz`] (a faster machine
    /// finishes the same task sooner). Off by default: the paper's
    /// simulator replays trace durations as-is, constraints being the only
    /// heterogeneity effect.
    pub scale_duration_by_clock: bool,
    /// Clock speed at which trace durations are considered measured, MHz.
    pub reference_clock_mhz: u32,
    /// Execution slots per worker. The paper's model (and the default) is
    /// one slot per worker; larger values are an extension.
    pub slots_per_worker: usize,
    /// Fault-injection plan (worker churn, probe loss/delay, heartbeat
    /// jitter). Defaults to [`FaultPlan::none`], which costs nothing.
    pub faults: FaultPlan,
    /// Federated-scheduling plan (domain sharding + summary gossip).
    /// Defaults to [`FederationConfig::off`], which costs nothing.
    pub federation: FederationConfig,
}

impl SimConfig {
    /// The round-trip time (twice the one-way delay).
    pub fn rtt(&self) -> SimDuration {
        SimDuration(self.network_delay.as_micros() * 2)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            network_delay: SimDuration::from_micros(250),
            timeseries_bucket: SimDuration::from_secs(60),
            record_task_waits: true,
            scale_duration_by_clock: false,
            reference_clock_mhz: 2_200,
            slots_per_worker: 1,
            faults: FaultPlan::none(),
            federation: FederationConfig::off(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.rtt(), SimDuration::from_micros(500));
        assert!(!c.federation.is_active());
    }

    #[test]
    fn federation_activation_thresholds() {
        assert!(!FederationConfig::off().is_active());
        let one = FederationConfig::sharded(1, SimDuration::ZERO);
        assert!(one.is_active());
        assert!(!one.is_partitioned());
        let four = FederationConfig::sharded(4, SimDuration::from_millis(200));
        assert!(four.is_partitioned());
        assert_eq!(four.staleness, SimDuration::from_millis(200));
    }

    #[test]
    fn zero_gossip_interval_is_rejected_only_when_partitioned() {
        let zero = |domains| FederationConfig {
            domains,
            gossip_interval: SimDuration::ZERO,
            staleness: SimDuration::ZERO,
        };
        assert_eq!(
            zero(4).validate(),
            Err(FederationConfigError::ZeroGossipInterval { domains: 4 })
        );
        // No gossip is ever scheduled at K <= 1.
        assert_eq!(zero(1).validate(), Ok(()));
        assert_eq!(zero(0).validate(), Ok(()));
        assert_eq!(
            FederationConfig::sharded(16, SimDuration::ZERO).validate(),
            Ok(())
        );
        assert!(zero(4)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("gossip_interval"));
    }
}
