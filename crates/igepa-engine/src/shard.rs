//! The shard: delta application, dirty tracking and the warm-start repair
//! loop over one slice of the user population.
//!
//! A [`Shard`] is the reusable solve/repair core extracted from the
//! original monolithic engine. The single-instance [`crate::Engine`] wraps
//! exactly one shard over the full instance; the sharded
//! [`crate::ShardedEngine`] owns several, each serving a sub-instance that
//! contains **all events** (with per-shard capacity *quotas*) but only the
//! shard's users. Because bid, user-capacity and conflict constraints are
//! per user, a shard's repair loop is self-contained; the only cross-shard
//! coupling — event capacity — is handled by the coordinator moving quota
//! between shards (see [`crate::reconcile`]).

use crate::catalog::CatalogSnapshot;
use igepa_algos::{patch_region, WarmStart};
use igepa_core::{
    Arrangement, ArrangementDiff, CapacityTarget, ConflictFn, CoreError, DeltaEffect, DirtySet,
    EventId, Instance, InstanceDelta, InterestFn, UserId, UtilityBreakdown, UtilityTracker,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Shared, thread-safe conflict-function handle. Shards are owned by
/// per-shard worker threads under the TCP transport, so the functions a
/// shard consults must be `Send + Sync` (every implementation in the
/// workspace is a plain data struct, so this costs callers nothing).
pub type SharedConflict = Arc<dyn ConflictFn + Send + Sync>;

/// Shared, thread-safe interest-function handle.
pub type SharedInterest = Arc<dyn InterestFn + Send + Sync>;

/// Shared, thread-safe warm-start solver handle.
pub type SharedSolver = Arc<dyn WarmStart + Send + Sync>;

/// How a shard repairs after absorbing a *burst* of deltas in one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// Always run the incremental path: greedy patch, escalating to a full
    /// warm-start re-solve when the dirty-user count exceeds
    /// [`EngineConfig::escalation_fraction`]. This is the original engine
    /// behaviour and the default.
    #[default]
    Escalation,
    /// Per-burst cost model: estimate the greedy patch's work (candidate
    /// pairs around the dirty set plus the per-dirty-event attendee scans)
    /// against one cold solve of the whole instance, and run whichever is
    /// predicted cheaper. Large bursts dirty most of the instance, where
    /// `benches/engine.rs` shows a single cold greedy solve beats
    /// patch-plus-escalation.
    CostModel {
        /// Estimated cost per candidate pair examined by the greedy patch.
        patch_cost_per_candidate: f64,
        /// Estimated cost per bid pair examined by a cold solve.
        solve_cost_per_bid: f64,
    },
}

impl BatchPolicy {
    /// A cost model with calibrated constants: the per-unit costs were
    /// measured by `benches/engine.rs` (the `cost_model/*` scenarios of
    /// `BENCH_engine.json`, via the engine's own online calibration) on
    /// the bench workload — ~175 ns per candidate pair examined by the
    /// greedy patch (candidate-set assembly, weight lookup, conflict
    /// scan, admission bookkeeping) vs ~115 ns per bid pair of a cold
    /// greedy solve (sort share plus admission). The constants were
    /// re-derived when the reverse attendee index removed the
    /// `dirty.events × |U|` attendee-scan term from the patch basis
    /// (`Shard::patch_units` now counts candidate pairs only, so the
    /// per-unit cost absorbs the patch's fixed per-repair overhead
    /// honestly instead of amortising it over a fictitious full-user
    /// scan). Only the *ratio* steers the patch-vs-solve decision, so
    /// these defaults transfer across machines far better than absolute
    /// timings; enable [`EngineConfig::online_cost_calibration`] to
    /// track a specific deployment's observed ratio with a per-shard
    /// EWMA.
    pub fn cost_model() -> Self {
        BatchPolicy::CostModel {
            patch_cost_per_candidate: 175.0,
            solve_cost_per_bid: 115.0,
        }
    }
}

/// When the write-ahead log is flushed to stable storage (fsync'd).
///
/// Every policy *writes* each record to the operating system before the
/// request is acknowledged, so an engine crash never loses acknowledged
/// work; the policies differ in when the data is forced past the OS page
/// cache onto the device, i.e. what a whole-machine crash can lose:
///
/// | policy     | fsync cadence              | machine crash can lose    |
/// |------------|----------------------------|---------------------------|
/// | `Off`      | never                      | everything in page cache  |
/// | `Interval` | at most every `millis` ms  | the last interval         |
/// | `EveryN`   | every `n` appended records | the last `n − 1` records  |
/// | `Always`   | every appended record      | nothing acknowledged      |
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum DurabilityPolicy {
    /// Never fsync: records reach the OS on every append, stable storage
    /// whenever the OS flushes. Survives engine crashes, not power loss.
    /// The default (durability costs are strictly opt-in).
    #[default]
    Off,
    /// Fsync when at least `millis` milliseconds passed since the last
    /// one (checked on append).
    Interval {
        /// Minimum milliseconds between fsyncs.
        millis: u64,
    },
    /// Fsync every `n` appended records.
    EveryN {
        /// Records between fsyncs (`0` behaves like `Always`).
        n: u64,
    },
    /// Fsync after every appended record before acknowledging it.
    Always,
}

/// Admission control for the serving dispatch queue.
///
/// The TCP transport's dispatch channel is unbounded; without a cap a
/// traffic burst queues without limit instead of shedding. A bounded
/// policy makes overload a *scenario*: at the cap the connection thread
/// refuses new work immediately with a typed
/// [`EngineError::Overloaded`](crate::EngineError::Overloaded) instead
/// of enqueueing, while reads keep answering from the barrier-free
/// query cache. The default is [`AdmissionPolicy::Unbounded`] — the
/// pre-admission behaviour — so configs serialized before the knob
/// existed deserialize and behave identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// No cap: every decoded request is enqueued (the legacy
    /// behaviour, and the default).
    #[default]
    Unbounded,
    /// At most `max_queue` admitted-but-undispatched requests; beyond
    /// it mutations shed with `Overloaded { retry_after_ms }` while
    /// cached reads keep flowing.
    Bounded {
        /// Maximum queued (admitted but not yet dispatched) requests.
        max_queue: usize,
        /// Back-off hint handed to shedding clients, in milliseconds.
        retry_after_ms: u64,
    },
}

impl AdmissionPolicy {
    /// The queue cap, or `None` when unbounded.
    pub fn max_queue(&self) -> Option<usize> {
        match self {
            AdmissionPolicy::Unbounded => None,
            AdmissionPolicy::Bounded { max_queue, .. } => Some(*max_queue),
        }
    }

    /// The back-off hint for shed requests, in milliseconds.
    /// Unbounded servers only shed in read-only degraded mode; they
    /// hint a fixed small back-off.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            AdmissionPolicy::Unbounded => 50,
            AdmissionPolicy::Bounded { retry_after_ms, .. } => *retry_after_ms,
        }
    }

    /// A bounded policy with the default back-off hint.
    pub fn bounded(max_queue: usize) -> Self {
        AdmissionPolicy::Bounded {
            max_queue,
            retry_after_ms: 50,
        }
    }

    /// Human-readable rendering for stats surfaces (`"unbounded"`,
    /// `"bounded(64)"`).
    pub fn describe(&self) -> String {
        match self {
            AdmissionPolicy::Unbounded => "unbounded".to_string(),
            AdmissionPolicy::Bounded { max_queue, .. } => format!("bounded({max_queue})"),
        }
    }
}

/// Tuning knobs of the repair loop.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineConfig {
    /// Base seed for every solver invocation; solves draw `seed`,
    /// `seed + 1`, … so runs are reproducible.
    pub seed: u64,
    /// When the dirty-user count exceeds this fraction of all users, the
    /// greedy patch escalates to a full warm-start re-solve.
    pub escalation_fraction: f64,
    /// Run a cold solve and compare utilities every this many deltas
    /// (0 disables staleness checking).
    pub staleness_check_interval: u64,
    /// Adopt the cold solution when the served utility falls below
    /// `(1 − max_staleness) ×` the cold utility.
    pub max_staleness: f64,
    /// How batched bursts are repaired (see [`BatchPolicy`]).
    pub batch_policy: BatchPolicy,
    /// Refine [`BatchPolicy::CostModel`]'s per-unit costs online: each
    /// shard keeps an EWMA of its *measured* greedy-patch and cold-solve
    /// timings (normalised per candidate / per bid) and prefers those
    /// over the configured constants once observed. Off by default —
    /// wall-clock-driven decisions make repair choices (not results)
    /// machine-dependent, which bit-for-bit replay comparisons must
    /// opt into knowingly.
    pub online_cost_calibration: bool,
    /// Fsync policy of the write-ahead log when the engine is served with
    /// durability enabled (ignored otherwise). See [`DurabilityPolicy`]
    /// for the loss window each point of the spectrum accepts.
    pub durability: DurabilityPolicy,
    /// Admission control of the serving dispatch queue (see
    /// [`AdmissionPolicy`]). Ignored by in-process engines; the TCP
    /// transport enforces it at the connection threads. Default
    /// unbounded, so configs serialized before the knob existed
    /// deserialize and behave identically.
    pub admission: AdmissionPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            escalation_fraction: 0.25,
            staleness_check_interval: 256,
            max_staleness: 0.05,
            batch_policy: BatchPolicy::Escalation,
            online_cost_calibration: false,
            durability: DurabilityPolicy::Off,
            admission: AdmissionPolicy::Unbounded,
        }
    }
}

/// Hand-written so configs serialized before `batch_policy` existed keep
/// deserializing (the vendored serde derive has no `#[serde(default)]`):
/// a missing field falls back to [`BatchPolicy::default`].
impl serde::Deserialize for EngineConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = serde::expect_object(value, "EngineConfig")?;
        Ok(EngineConfig {
            seed: serde::Deserialize::from_value(serde::object_field(
                entries,
                "seed",
                "EngineConfig",
            )?)?,
            escalation_fraction: serde::Deserialize::from_value(serde::object_field(
                entries,
                "escalation_fraction",
                "EngineConfig",
            )?)?,
            staleness_check_interval: serde::Deserialize::from_value(serde::object_field(
                entries,
                "staleness_check_interval",
                "EngineConfig",
            )?)?,
            max_staleness: serde::Deserialize::from_value(serde::object_field(
                entries,
                "max_staleness",
                "EngineConfig",
            )?)?,
            batch_policy: match entries.iter().find(|(name, _)| name == "batch_policy") {
                Some((_, policy)) => serde::Deserialize::from_value(policy)?,
                None => BatchPolicy::default(),
            },
            online_cost_calibration: match entries
                .iter()
                .find(|(name, _)| name == "online_cost_calibration")
            {
                Some((_, flag)) => serde::Deserialize::from_value(flag)?,
                None => false,
            },
            durability: match entries.iter().find(|(name, _)| name == "durability") {
                Some((_, policy)) => serde::Deserialize::from_value(policy)?,
                None => DurabilityPolicy::default(),
            },
            admission: match entries.iter().find(|(name, _)| name == "admission") {
                Some((_, policy)) => serde::Deserialize::from_value(policy)?,
                None => AdmissionPolicy::default(),
            },
        })
    }
}

/// Counters describing the shard's activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Deltas applied successfully.
    pub deltas_applied: u64,
    /// Deltas rejected by validation.
    pub deltas_rejected: u64,
    /// Repairs handled by the greedy patch.
    pub greedy_patches: u64,
    /// Repairs escalated to a full warm-start re-solve.
    pub full_resolves: u64,
    /// Bursts repaired by a single cold solve under
    /// [`BatchPolicy::CostModel`].
    pub batch_solves: u64,
    /// Cold solves adopted by the staleness check.
    pub staleness_resolves: u64,
    /// Cold solves run by the staleness check (adopted or not).
    pub staleness_checks: u64,
    /// Quota updates absorbed from the cross-shard reconciler.
    pub quota_updates: u64,
    /// Utility drift `1 − served/cold` observed at the last staleness
    /// check (negative when the served arrangement was better).
    pub last_observed_drift: f64,
}

impl EngineStats {
    /// Element-wise sum of two counter sets; `last_observed_drift` takes
    /// the larger (worse) drift. Used to aggregate shard stats into one
    /// engine-level view.
    pub fn merged(&self, other: &EngineStats) -> EngineStats {
        EngineStats {
            deltas_applied: self.deltas_applied + other.deltas_applied,
            deltas_rejected: self.deltas_rejected + other.deltas_rejected,
            greedy_patches: self.greedy_patches + other.greedy_patches,
            full_resolves: self.full_resolves + other.full_resolves,
            batch_solves: self.batch_solves + other.batch_solves,
            staleness_resolves: self.staleness_resolves + other.staleness_resolves,
            staleness_checks: self.staleness_checks + other.staleness_checks,
            quota_updates: self.quota_updates + other.quota_updates,
            last_observed_drift: self.last_observed_drift.max(other.last_observed_drift),
        }
    }
}

/// How [`Shard::apply`] restored the arrangement after a delta.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepairKind {
    /// The delta left the arrangement feasible and no candidates improved
    /// it (nothing changed).
    Untouched,
    /// Local prune / evict / re-admit around the dirty set.
    GreedyPatch {
        /// Pairs removed while restoring feasibility.
        pruned: usize,
        /// Pairs added back by greedy re-admission.
        added: usize,
    },
    /// Full warm-start re-solve (dirty set exceeded the escalation
    /// threshold).
    FullResolve,
    /// One cold solve replaced the burst's incremental repair
    /// ([`BatchPolicy::CostModel`] predicted it cheaper).
    BatchSolve,
    /// A staleness check replaced the served arrangement with a fresh cold
    /// solve (possibly after one of the other repairs ran first).
    StalenessResolve,
}

impl RepairKind {
    /// Coarse severity ordering used when several shards repaired in one
    /// coordinator step and a single kind must summarise them.
    pub fn severity(&self) -> u8 {
        match self {
            RepairKind::Untouched => 0,
            RepairKind::GreedyPatch { .. } => 1,
            RepairKind::FullResolve => 2,
            RepairKind::BatchSolve => 3,
            RepairKind::StalenessResolve => 4,
        }
    }
}

/// One shard-local operation of a routed burst: either an ordinary
/// (mirror-validated, id-rewritten) delta or a catalogue-published event
/// announcement the shard absorbs in O(1) by adopting the snapshot's
/// shared conflict matrix. Ordering within a burst is preserved, so a
/// user delta referencing a just-announced event applies cleanly.
#[derive(Debug, Clone)]
pub enum ShardOp {
    /// A shard-local instance delta.
    Delta(InstanceDelta),
    /// An event announcement: adopt `snapshot`'s matrix and append its
    /// newest event with this shard's capacity quota.
    Announce {
        /// The catalogue snapshot published for the announcement.
        snapshot: Arc<CatalogSnapshot>,
        /// This shard's capacity quota for the new event.
        quota: usize,
    },
}

/// Result of one successful [`Shard::apply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplyOutcome {
    /// What kind of delta was applied.
    pub kind: String,
    /// How the arrangement was repaired.
    pub repair: RepairKind,
    /// Utility of the served arrangement after repair.
    pub utility: f64,
    /// Number of (event, user) pairs served after repair.
    pub num_pairs: usize,
}

/// The checkpoint-restorable slice of a shard's state: everything
/// [`Shard::restore`] needs beyond the caller-supplied functions and
/// config. The utility tracker is deliberately absent — it is rebuilt
/// from the arrangement (bit-identical by the exact-sum property) and
/// verified against the checkpointed sums by the durability layer. The
/// online-calibration EWMAs are not carried either: they are wall-clock
/// observations, explicitly outside the determinism contract, and
/// restart empty like any fresh shard.
pub(crate) struct ShardResume {
    /// The shard's sub-instance, rebuilt from the checkpointed mirror
    /// and quota vector.
    pub instance: Instance,
    /// The served arrangement (shard-local user ids).
    pub arrangement: Arrangement,
    /// Repair-loop counters as of the checkpoint.
    pub stats: EngineStats,
    /// Solver-seed counter (`seed + solve_counter` is the next draw).
    pub solve_counter: u64,
    /// `stats.deltas_applied` watermark of the last staleness check.
    pub last_staleness_check: u64,
    /// Epoch of the last catalogue snapshot absorbed.
    pub catalog_epoch: u64,
}

/// One long-lived solve/repair unit over a (sub-)instance. See the module
/// docs; the public API mirrors the original monolithic engine.
pub struct Shard {
    instance: Instance,
    arrangement: Arrangement,
    /// Incrementally maintained Definition-7 sums of `arrangement`. Every
    /// mutation path — delta absorption, greedy patching, evictions,
    /// quota repairs — updates it in O(changed pairs), and wholesale
    /// arrangement replacements (cold/warm solves) rebuild it, so
    /// [`Shard::utility`] and [`Shard::utility_breakdown`] are O(1) reads
    /// that stay bit-for-bit equal to a from-scratch
    /// [`Arrangement::utility`] (periodically `debug_assert`ed).
    tracker: UtilityTracker,
    dirty: DirtySet,
    sigma: SharedConflict,
    interest: SharedInterest,
    solver: SharedSolver,
    config: EngineConfig,
    stats: EngineStats,
    solve_counter: u64,
    /// `stats.deltas_applied` at the last staleness check.
    last_staleness_check: u64,
    /// Epoch of the last catalogue snapshot absorbed (0 = none yet).
    catalog_epoch: u64,
    /// EWMA of measured greedy-patch cost per candidate unit (ns), fed by
    /// [`EngineConfig::online_cost_calibration`].
    ewma_patch_ns: Option<f64>,
    /// EWMA of measured cold-solve cost per bid unit (ns).
    ewma_solve_ns: Option<f64>,
    /// Net arrangement edits since the last [`Shard::take_view_diff`]:
    /// `Some` while every mutation since then was recorded pair by pair
    /// (so a consumer's stale copy can be patched in O(changed)), `None`
    /// after a wholesale replacement (full re-solve, batch solve,
    /// staleness adoption) forced a full resync — or when no consumer
    /// ever armed the recorder (the monolithic engine), which keeps the
    /// recording free off the serving path.
    view_ops: Option<ArrangementDiff>,
    /// Users admitted by the most recent greedy patch (`None` after a
    /// full re-solve, where the admitted set is unknown). Consumed by
    /// [`Shard::apply_quotas`] so the reconciler can restrict its next
    /// round to events those users bid on.
    last_repair_admitted: Option<Vec<UserId>>,
}

/// EWMA smoothing factor of the online cost estimates: heavy enough to
/// converge within a handful of repairs, light enough to ride out one
/// noisy measurement.
const COST_EWMA_ALPHA: f64 = 0.25;

impl Shard {
    /// Creates a shard serving `instance`, running an initial cold solve.
    ///
    /// `sigma` and `interest` are consulted only for *new* event pairs and
    /// bid pairs introduced by future deltas; existing cached values are
    /// kept as-is.
    pub fn new(
        instance: Instance,
        sigma: SharedConflict,
        interest: SharedInterest,
        solver: SharedSolver,
        config: EngineConfig,
    ) -> Self {
        let mut shard = Shard {
            arrangement: Arrangement::empty_for(&instance),
            instance,
            tracker: UtilityTracker::new(),
            dirty: DirtySet::new(),
            sigma,
            interest,
            solver,
            config,
            stats: EngineStats::default(),
            solve_counter: 0,
            last_staleness_check: 0,
            catalog_epoch: 0,
            ewma_patch_ns: None,
            ewma_solve_ns: None,
            view_ops: None,
            last_repair_admitted: None,
        };
        shard.arrangement = shard.next_solve(None);
        shard.tracker = UtilityTracker::rebuild(&shard.instance, &shard.arrangement);
        shard
    }

    /// Reconstructs a shard from checkpointed state without running the
    /// initial cold solve of [`Shard::new`]: the arrangement, counters
    /// and solver-seed position come from `resume`, so the restored
    /// shard's future behaviour — seed draws, staleness cadence, repair
    /// decisions — is bit-identical to the shard that was checkpointed.
    /// The utility tracker is rebuilt from the arrangement, which the
    /// exact-sum property makes bit-identical to the tracker that was
    /// live at checkpoint time.
    pub(crate) fn restore(
        resume: ShardResume,
        sigma: SharedConflict,
        interest: SharedInterest,
        solver: SharedSolver,
        config: EngineConfig,
    ) -> Self {
        let tracker = UtilityTracker::rebuild(&resume.instance, &resume.arrangement);
        Shard {
            instance: resume.instance,
            arrangement: resume.arrangement,
            tracker,
            dirty: DirtySet::new(),
            sigma,
            interest,
            solver,
            config,
            stats: resume.stats,
            solve_counter: resume.solve_counter,
            last_staleness_check: resume.last_staleness_check,
            catalog_epoch: resume.catalog_epoch,
            ewma_patch_ns: None,
            ewma_solve_ns: None,
            view_ops: None,
            last_repair_admitted: None,
        }
    }

    /// Hands out the net arrangement edits recorded since the previous
    /// call and re-arms the recorder at the current state.
    ///
    /// `None` means a wholesale arrangement replacement happened (or the
    /// recorder was never armed): the caller must resync with a full
    /// snapshot — which, combined with the re-arming here, makes the next
    /// call's diff valid against that snapshot. This is the hook the
    /// transport's per-shard workers use to ship O(changed) view diffs to
    /// the coordinator's query cache instead of O(pairs) snapshots; it is
    /// public so external read-view maintainers (and the benchmarks) can
    /// drive the same protocol.
    pub fn take_view_diff(&mut self) -> Option<ArrangementDiff> {
        let taken = self.view_ops.take();
        self.view_ops = Some(ArrangementDiff::new(
            self.instance.num_events(),
            self.instance.num_users(),
        ));
        taken
    }

    /// The incrementally maintained utility tracker. The transport's
    /// query cache snapshots it per apply so merged utility reads can be
    /// served exactly (tracker merges) without a barrier; the durability
    /// layer checkpoints its sums for restore-time bit verification.
    pub(crate) fn tracker(&self) -> &UtilityTracker {
        &self.tracker
    }

    /// Solver-seed counter (checkpointed so restored shards keep drawing
    /// the same seed sequence).
    pub(crate) fn solve_counter(&self) -> u64 {
        self.solve_counter
    }

    /// Watermark of the last staleness check (checkpointed so the
    /// restored shard's check cadence stays aligned).
    pub(crate) fn last_staleness_check(&self) -> u64 {
        self.last_staleness_check
    }

    /// Whether the shard has no pending repair work. Checkpoints are
    /// taken at barriers, where every apply has fully repaired, so this
    /// must hold whenever state is captured (the dirty set is therefore
    /// not part of the checkpoint schema).
    pub(crate) fn is_quiescent(&self) -> bool {
        self.dirty.is_empty()
    }

    /// The (sub-)instance currently served.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The arrangement currently served (always feasible for
    /// [`Shard::instance`]).
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }

    /// Utility of the served arrangement — an O(1) read of the
    /// incrementally maintained tracker (no pair iteration).
    pub fn utility(&self) -> f64 {
        self.utility_breakdown().total
    }

    /// Utility breakdown of the served arrangement — O(1), from the
    /// tracker; bit-identical to
    /// `self.arrangement().utility(self.instance())`.
    pub fn utility_breakdown(&self) -> UtilityBreakdown {
        self.tracker.breakdown(self.instance.beta())
    }

    /// Activity counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The shard's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current capacity quota of an event in this shard's sub-instance.
    pub fn quota_of(&self, event: EventId) -> usize {
        self.instance.event(event).capacity
    }

    /// Attendees this shard currently seats at `event`.
    pub fn load_of(&self, event: EventId) -> usize {
        self.arrangement.load_of(event)
    }

    /// Bidders of `event` who could be seated if the quota allowed:
    /// unassigned, with spare user capacity and no conflict against their
    /// current assignments. This is the per-event demand signal the
    /// cross-shard reconciler balances quota against.
    pub fn unmet_demand(&self, event: EventId) -> usize {
        let bidders = &self.instance.event(event).bidders;
        bidders
            .iter()
            .filter(|&&u| {
                !self.arrangement.contains(event, u)
                    && self.arrangement.events_of(u).len() < self.instance.user(u).capacity
                    && !self
                        .arrangement
                        .events_of(u)
                        .iter()
                        .any(|&w| self.instance.conflicts().conflicts(w, event))
            })
            .count()
    }

    /// Applies a batch of quota changes handed down by the reconciler,
    /// then runs one repair pass over the dirtied events. Unlike
    /// [`Shard::apply`] this does not count as external deltas — quota
    /// movement is internal bookkeeping of the sharded engine.
    ///
    /// Besides the repair kind, reports the users the repair admitted —
    /// `Some(users)` (possibly empty) after an incremental patch, `None`
    /// after a full re-solve where the admitted set is unknown. The
    /// reconciler uses this to rescan only the events whose demand could
    /// have changed.
    pub fn apply_quotas(
        &mut self,
        changes: &[(EventId, usize)],
    ) -> (RepairKind, Option<Vec<UserId>>) {
        for &(event, quota) in changes {
            self.instance
                .apply_delta(
                    &InstanceDelta::UpdateCapacity {
                        target: CapacityTarget::Event(event),
                        capacity: quota,
                    },
                    self.sigma.as_ref(),
                    self.interest.as_ref(),
                )
                // lint:allow(no-panic-in-server-paths): quota changes come from the coordinator's reconciler, which only names catalogued events; a failure means the shard's event set diverged from the catalogue — unrecoverable state, no request to refuse
                .expect("reconciler only names events that exist");
            self.dirty.mark_event(event);
            self.stats.quota_updates += 1;
        }
        let repair = self.repair();
        self.debug_check_tracker();
        let admitted = self.last_repair_admitted.take();
        (repair, admitted)
    }

    /// Applies one delta and repairs the served arrangement.
    ///
    /// On validation errors the instance, arrangement and counters (except
    /// `deltas_rejected`) are unchanged.
    pub fn apply(&mut self, delta: &InstanceDelta) -> Result<ApplyOutcome, CoreError> {
        self.apply_measured(delta).map(|(outcome, _)| outcome)
    }

    /// Like [`Shard::apply`], but also returns the utility breakdown of
    /// the post-repair arrangement — an O(1) tracker read (`total` is
    /// bit-identical to [`Shard::utility`]). The transport's per-shard
    /// workers use this to refresh the coordinator's query cache; no pair
    /// iteration happens anywhere on this path.
    pub fn apply_measured(
        &mut self,
        delta: &InstanceDelta,
    ) -> Result<(ApplyOutcome, UtilityBreakdown), CoreError> {
        self.absorb_delta(delta)?;
        let mut repair = self.repair();
        if self.maybe_check_staleness() {
            repair = RepairKind::StalenessResolve;
        }
        self.debug_check_tracker();

        let breakdown = self.utility_breakdown();
        Ok((
            ApplyOutcome {
                kind: delta.kind().to_string(),
                repair,
                utility: breakdown.total,
                num_pairs: self.arrangement.len(),
            },
            breakdown,
        ))
    }

    /// Absorbs a catalogue-published event announcement and repairs: the
    /// shard-side half of an event broadcast. Instead of re-evaluating σ
    /// against every existing event (the pre-catalogue cost, paid once
    /// per shard), the shard adopts the snapshot's shared conflict matrix
    /// and appends its newest event with this shard's capacity `quota` —
    /// amortised O(1) work before the repair. Bookkeeping matches
    /// [`Shard::apply`] of an `AddEvent` delta exactly, so a one-shard
    /// engine stays bit-for-bit equal to the monolithic path.
    pub fn apply_announcement(
        &mut self,
        snapshot: &Arc<CatalogSnapshot>,
        quota: usize,
    ) -> ApplyOutcome {
        self.absorb_announcement(snapshot, quota);
        let mut repair = self.repair();
        if self.maybe_check_staleness() {
            repair = RepairKind::StalenessResolve;
        }
        self.debug_check_tracker();
        ApplyOutcome {
            kind: "add_event".to_string(),
            repair,
            utility: self.utility(),
            num_pairs: self.arrangement.len(),
        }
    }

    /// Applies a batch of deltas with a single repair pass at the end —
    /// cheaper than per-delta repair when deltas arrive in bursts. Returns
    /// one outcome describing the batch. Fails on the first invalid delta;
    /// previously applied deltas of the batch stay applied and the
    /// arrangement is repaired before returning the error.
    pub fn apply_batch(&mut self, deltas: &[InstanceDelta]) -> Result<ApplyOutcome, CoreError> {
        let mut first_error = None;
        for delta in deltas {
            if let Err(e) = self.absorb_delta(delta) {
                first_error = Some(e);
                break;
            }
        }
        self.finish_burst(first_error)
    }

    /// Applies a routed burst of shard operations (deltas interleaved
    /// with catalogue announcements, in arrival order) with one repair
    /// pass at the end. Error semantics match [`Shard::apply_batch`].
    pub fn apply_ops(&mut self, ops: &[ShardOp]) -> Result<ApplyOutcome, CoreError> {
        let mut first_error = None;
        for op in ops {
            match op {
                ShardOp::Delta(delta) => {
                    if let Err(e) = self.absorb_delta(delta) {
                        first_error = Some(e);
                        break;
                    }
                }
                ShardOp::Announce { snapshot, quota } => {
                    self.absorb_announcement(snapshot, *quota);
                }
            }
        }
        self.finish_burst(first_error)
    }

    /// Applies one delta to the instance and folds its effect into the
    /// dirty set and the utility tracker, without repairing.
    fn absorb_delta(&mut self, delta: &InstanceDelta) -> Result<(), CoreError> {
        match self
            .instance
            .apply_delta(delta, self.sigma.as_ref(), self.interest.as_ref())
        {
            Ok(effect) => {
                self.arrangement
                    .grow(self.instance.num_events(), self.instance.num_users());
                if let Some(diff) = self.view_ops.as_mut() {
                    diff.grow(self.instance.num_events(), self.instance.num_users());
                }
                self.absorb_score_changes(&effect);
                self.dirty.absorb(&effect);
                self.stats.deltas_applied += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.deltas_rejected += 1;
                Err(e)
            }
        }
    }

    /// Folds instance-side score changes into the utility tracker for the
    /// pairs the served arrangement currently holds. This keeps the
    /// tracker exact *between* absorption and repair, so the invariant
    /// "subtraction sees the value addition saw" holds on every
    /// subsequent unassign.
    fn absorb_score_changes(&mut self, effect: &DeltaEffect) {
        if let Some((user, old, new)) = effect.interaction_change {
            let assigned = self.arrangement.events_of(user).len();
            if assigned > 0 && old.to_bits() != new.to_bits() {
                self.tracker.on_interaction_change(old, new, assigned);
            }
        }
        for &(event, user, old, new) in &effect.interest_changes {
            if self.arrangement.contains(event, user) {
                self.tracker.on_interest_change(old, new);
            }
        }
    }

    /// Debug-build checkpoint: the incrementally maintained tracker must
    /// equal a from-scratch exact recompute, bit for bit. Compiled out of
    /// release builds.
    #[inline]
    fn debug_check_tracker(&self) {
        #[cfg(debug_assertions)]
        {
            let tracked = self.utility_breakdown();
            let fresh = self.arrangement.utility(&self.instance);
            debug_assert_eq!(
                tracked.interest_sum.to_bits(),
                fresh.interest_sum.to_bits(),
                "tracker interest_sum drifted: {} vs {}",
                tracked.interest_sum,
                fresh.interest_sum
            );
            debug_assert_eq!(
                tracked.interaction_sum.to_bits(),
                fresh.interaction_sum.to_bits(),
                "tracker interaction_sum drifted: {} vs {}",
                tracked.interaction_sum,
                fresh.interaction_sum
            );
        }
    }

    /// Adopts a catalogue snapshot's shared matrix and appends its newest
    /// event at `quota` capacity, without repairing.
    fn absorb_announcement(&mut self, snapshot: &Arc<CatalogSnapshot>, quota: usize) {
        let newest = snapshot
            .newest()
            // lint:allow(no-panic-in-server-paths): absorb_announcement only runs for a snapshot the catalogue just published, which by construction contains the announced event
            .expect("published snapshots are non-empty");
        let effect = self
            .instance
            .apply_add_event_shared(quota, newest.attrs.clone(), snapshot.conflicts_handle())
            // lint:allow(no-panic-in-server-paths): the snapshot's shared matrix covers its own newest event; a failure means shard/catalogue desync, which no per-request refusal can repair
            .expect("catalogue snapshots cover the announced event");
        self.arrangement
            .grow(self.instance.num_events(), self.instance.num_users());
        if let Some(diff) = self.view_ops.as_mut() {
            diff.grow(self.instance.num_events(), self.instance.num_users());
        }
        self.dirty.absorb(&effect);
        self.stats.deltas_applied += 1;
        self.catalog_epoch = snapshot.epoch();
    }

    /// Shared tail of the burst paths: one batch repair, the staleness
    /// check, and the first error (if any).
    fn finish_burst(&mut self, first_error: Option<CoreError>) -> Result<ApplyOutcome, CoreError> {
        let mut repair = self.repair_batch();
        if self.maybe_check_staleness() {
            repair = RepairKind::StalenessResolve;
        }
        self.debug_check_tracker();
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(ApplyOutcome {
            kind: "batch".to_string(),
            repair,
            utility: self.utility(),
            num_pairs: self.arrangement.len(),
        })
    }

    /// Epoch of the last catalogue snapshot this shard absorbed (0 when
    /// no announcement has been published yet).
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// The online cost estimates `(patch ns/candidate, solve ns/bid)`
    /// observed so far (`None` until the first measured repair of that
    /// kind; always `None` with calibration off).
    pub fn online_cost_estimates(&self) -> (Option<f64>, Option<f64>) {
        (self.ewma_patch_ns, self.ewma_solve_ns)
    }

    /// Forces a cold solve of the current instance and reports the served
    /// utility relative to it (`served / cold`, 1.0 when the cold solve is
    /// empty). Does not modify the served arrangement.
    pub fn cold_solve_ratio(&mut self) -> f64 {
        let cold = self.next_solve(None);
        let cold_utility = cold.utility_value(&self.instance);
        if cold_utility <= 0.0 {
            return 1.0;
        }
        self.utility() / cold_utility
    }

    /// Runs the solver; with `Some(previous)` it warm-starts from it.
    fn next_solve(&mut self, previous: Option<&Arrangement>) -> Arrangement {
        let seed = self.config.seed.wrapping_add(self.solve_counter);
        self.solve_counter += 1;
        match previous {
            Some(prev) => self.solver.resolve_seeded(&self.instance, prev, seed),
            None => self.solver.run_seeded(&self.instance, seed),
        }
    }

    /// Repair path of a batched burst: consult the batch policy first,
    /// then fall through to the incremental repair.
    fn repair_batch(&mut self) -> RepairKind {
        if self.dirty.is_empty() {
            return RepairKind::Untouched;
        }
        if let BatchPolicy::CostModel {
            patch_cost_per_candidate,
            solve_cost_per_bid,
        } = self.config.batch_policy
        {
            // Per-unit costs: the configured (bench-calibrated) constants,
            // or this shard's own observed EWMA once online calibration
            // has measured at least one repair of each kind.
            let (patch_unit, solve_unit) = if self.config.online_cost_calibration {
                (
                    self.ewma_patch_ns.unwrap_or(patch_cost_per_candidate),
                    self.ewma_solve_ns.unwrap_or(solve_cost_per_bid),
                )
            } else {
                (patch_cost_per_candidate, solve_cost_per_bid)
            };
            // Cold-solve work: one greedy pass over every bid pair (plus
            // fixed per-event bookkeeping).
            let solve_units = (self.instance.num_bids() + self.instance.num_events()) as f64;
            let solve_cost = solve_unit * solve_units;
            let threshold =
                (self.config.escalation_fraction * self.instance.num_users() as f64).max(1.0);
            let incremental_cost = if self.dirty.users.len() as f64 > threshold {
                // The incremental path would escalate to a warm-start
                // re-solve: carry over the previous pairs, then run the
                // full greedy pass anyway — roughly two cold solves.
                2.0 * solve_cost
            } else {
                // Greedy-patch work: candidate pairs around the dirty set
                // plus the full-user attendee scan per dirty event.
                patch_unit * self.patch_units() as f64
            };
            if incremental_cost > solve_cost {
                let started = self
                    .config
                    .online_cost_calibration
                    .then(std::time::Instant::now);
                self.arrangement = self.next_solve(None);
                self.tracker = UtilityTracker::rebuild(&self.instance, &self.arrangement);
                self.view_ops = None;
                self.last_repair_admitted = None;
                if let Some(started) = started {
                    observe_cost(&mut self.ewma_solve_ns, started.elapsed(), solve_units);
                }
                self.dirty.clear();
                self.stats.batch_solves += 1;
                return RepairKind::BatchSolve;
            }
        }
        self.repair()
    }

    /// The cost model's unit count for a greedy patch over the current
    /// dirty set: the candidate pairs around the dirty set. Shared by the
    /// predictor and the online calibration so observed timings normalise
    /// against the same basis the decision multiplies.
    ///
    /// Historically this carried an extra `dirty.events × |U|` term for
    /// the per-dirty-event attendee scan; the arrangement's reverse
    /// attendee index made that listing an O(load) slice borrow (bounded
    /// by the event's bidder count, already counted below), so the term —
    /// and its distortion of the patch-vs-solve decision on large user
    /// populations — is gone. The per-unit constants in
    /// [`BatchPolicy::cost_model`] are calibrated against this basis.
    fn patch_units(&self) -> usize {
        let mut candidates = 0usize;
        for &u in &self.dirty.users {
            candidates += self.instance.user(u).num_bids();
        }
        for &v in &self.dirty.events {
            candidates += self.instance.event(v).num_bidders();
        }
        candidates
    }

    fn repair(&mut self) -> RepairKind {
        if self.dirty.is_empty() {
            self.last_repair_admitted = Some(Vec::new());
            return RepairKind::Untouched;
        }
        let threshold =
            (self.config.escalation_fraction * self.instance.num_users() as f64).max(1.0);
        let repair = if self.dirty.users.len() as f64 > threshold {
            let previous = std::mem::replace(
                &mut self.arrangement,
                Arrangement::empty_for(&self.instance),
            );
            self.arrangement = self.next_solve(Some(&previous));
            self.tracker = UtilityTracker::rebuild(&self.instance, &self.arrangement);
            self.stats.full_resolves += 1;
            self.view_ops = None;
            self.last_repair_admitted = None;
            RepairKind::FullResolve
        } else if self.config.online_cost_calibration {
            let units = self.patch_units();
            let started = std::time::Instant::now();
            let repair = self.greedy_patch();
            observe_cost(&mut self.ewma_patch_ns, started.elapsed(), units as f64);
            repair
        } else {
            self.greedy_patch()
        };
        self.dirty.clear();
        repair
    }

    /// Local repair: prune dirty users' assignments, evict overflow at
    /// dirty events, then greedily re-admit the heaviest feasible
    /// candidate pairs around the dirty set — the shared
    /// [`patch_region`] kernel. The recorded ops then drive the utility
    /// tracker and the view-diff recorder; exact summation makes the
    /// post-hoc tracker replay bit-identical to inline tracking, so
    /// scoring stays O(changed pairs) and no post-repair re-scan is ever
    /// needed.
    fn greedy_patch(&mut self) -> RepairKind {
        let dirty_users: Vec<UserId> = self.dirty.users.iter().copied().collect();
        let dirty_events: Vec<EventId> = self.dirty.events.iter().copied().collect();
        let ops = patch_region(
            &self.instance,
            &mut self.arrangement,
            &dirty_users,
            &dirty_events,
        );

        for &(v, u) in &ops.removed {
            self.tracker.on_unassign(&self.instance, v, u);
        }
        for &(v, u) in &ops.added {
            self.tracker.on_assign(&self.instance, v, u);
        }
        if let Some(diff) = self.view_ops.as_mut() {
            for &(v, u) in &ops.removed {
                diff.record_unassign(v, u);
            }
            for &(v, u) in &ops.added {
                diff.record_assign(v, u);
            }
        }
        let mut admitted: Vec<UserId> = ops.added.iter().map(|&(_, u)| u).collect();
        admitted.sort_unstable();
        admitted.dedup();
        self.last_repair_admitted = Some(admitted);

        if ops.is_empty() {
            RepairKind::Untouched
        } else {
            self.stats.greedy_patches += 1;
            RepairKind::GreedyPatch {
                pruned: ops.removed.len(),
                added: ops.added.len(),
            }
        }
    }

    /// Runs the staleness check when at least
    /// `staleness_check_interval` deltas accumulated since the last one.
    /// Tracking the last-check watermark (rather than exact interval
    /// multiples) means batches that jump over a multiple still trigger
    /// the check, so the configured drift bound holds on every apply
    /// path.
    fn maybe_check_staleness(&mut self) -> bool {
        let interval = self.config.staleness_check_interval;
        if interval == 0 || self.stats.deltas_applied - self.last_staleness_check < interval {
            return false;
        }
        self.last_staleness_check = self.stats.deltas_applied;
        self.check_staleness()
    }

    /// Cold-solves the current instance and adopts the result when the
    /// served utility drifted too far. Returns whether it was adopted.
    /// Under online calibration the cold solve doubles as a solve-cost
    /// observation, so the EWMA converges even on patch-only workloads.
    fn check_staleness(&mut self) -> bool {
        let started = self
            .config
            .online_cost_calibration
            .then(std::time::Instant::now);
        let cold = self.next_solve(None);
        if let Some(started) = started {
            let units = (self.instance.num_bids() + self.instance.num_events()) as f64;
            observe_cost(&mut self.ewma_solve_ns, started.elapsed(), units);
        }
        self.stats.staleness_checks += 1;
        let cold_utility = cold.utility_value(&self.instance);
        let served_utility = self.utility();
        self.stats.last_observed_drift = if cold_utility > 0.0 {
            1.0 - served_utility / cold_utility
        } else {
            0.0
        };
        if served_utility < (1.0 - self.config.max_staleness) * cold_utility {
            self.arrangement = cold;
            self.tracker = UtilityTracker::rebuild(&self.instance, &self.arrangement);
            self.view_ops = None;
            self.stats.staleness_resolves += 1;
            true
        } else {
            false
        }
    }
}

/// Folds one normalised timing observation into an EWMA slot.
fn observe_cost(slot: &mut Option<f64>, elapsed: std::time::Duration, units: f64) {
    if units <= 0.0 {
        return;
    }
    let observed = elapsed.as_nanos() as f64 / units;
    *slot = Some(match *slot {
        Some(previous) => COST_EWMA_ALPHA * observed + (1.0 - COST_EWMA_ALPHA) * previous,
        None => observed,
    });
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("num_events", &self.instance.num_events())
            .field("num_users", &self.instance.num_users())
            .field("num_pairs", &self.arrangement.len())
            .field("dirty", &self.dirty.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_algos::GreedyArrangement;
    use igepa_core::{AttributeVector, ConstantInterest, NeverConflict};

    fn shard_for(num_events: usize, num_users: usize, config: EngineConfig) -> Shard {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..num_events)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..num_users {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores(vec![0.5; num_users]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        Shard::new(
            instance,
            Arc::new(NeverConflict),
            Arc::new(ConstantInterest(0.5)),
            Arc::new(GreedyArrangement),
            config,
        )
    }

    #[test]
    fn quota_and_demand_reflect_the_sub_instance() {
        let mut shard = shard_for(1, 3, EngineConfig::default());
        // Event capacity 2, three bidders with capacity 2 each: two seated.
        assert_eq!(shard.quota_of(EventId::new(0)), 2);
        assert_eq!(shard.load_of(EventId::new(0)), 2);
        assert_eq!(shard.unmet_demand(EventId::new(0)), 1);
        // Raising the quota seats the remaining bidder.
        let (repair, admitted) = shard.apply_quotas(&[(EventId::new(0), 3)]);
        assert!(matches!(repair, RepairKind::GreedyPatch { added: 1, .. }));
        assert_eq!(admitted.as_deref().map(<[UserId]>::len), Some(1));
        assert_eq!(shard.load_of(EventId::new(0)), 3);
        assert_eq!(shard.unmet_demand(EventId::new(0)), 0);
        assert_eq!(shard.stats().quota_updates, 1);
        // Quota updates do not count as external deltas.
        assert_eq!(shard.stats().deltas_applied, 0);
        assert!(shard.arrangement().is_feasible(shard.instance()));
    }

    #[test]
    fn shrinking_quota_evicts_overflow() {
        let mut shard = shard_for(1, 2, EngineConfig::default());
        assert_eq!(shard.load_of(EventId::new(0)), 2);
        shard.apply_quotas(&[(EventId::new(0), 1)]);
        assert_eq!(shard.load_of(EventId::new(0)), 1);
        assert!(shard.arrangement().is_feasible(shard.instance()));
    }

    #[test]
    fn cost_model_runs_one_cold_solve_on_large_bursts() {
        let mut shard = shard_for(
            3,
            8,
            EngineConfig {
                batch_policy: BatchPolicy::cost_model(),
                ..EngineConfig::default()
            },
        );
        // Touch every user: the patch would scan far more than a solve.
        let deltas: Vec<InstanceDelta> = (0..8)
            .map(|u| InstanceDelta::UpdateInteractionScore {
                user: UserId::new(u),
                score: 0.9,
            })
            .collect();
        let outcome = shard.apply_batch(&deltas).unwrap();
        assert_eq!(outcome.repair, RepairKind::BatchSolve);
        assert_eq!(shard.stats().batch_solves, 1);
        assert_eq!(shard.stats().full_resolves, 0);
        assert!(shard.arrangement().is_feasible(shard.instance()));
    }

    #[test]
    fn cost_model_keeps_patching_small_bursts() {
        let mut a = shard_for(
            2,
            40,
            EngineConfig {
                batch_policy: BatchPolicy::cost_model(),
                ..EngineConfig::default()
            },
        );
        let mut b = shard_for(2, 40, EngineConfig::default());
        let delta = InstanceDelta::UpdateInteractionScore {
            user: UserId::new(0),
            score: 0.9,
        };
        let oa = a.apply_batch(std::slice::from_ref(&delta)).unwrap();
        let ob = b.apply_batch(std::slice::from_ref(&delta)).unwrap();
        // A one-delta burst dirtying one user is cheap to patch; the cost
        // model must agree with the escalation policy here.
        assert_eq!(oa.repair, ob.repair);
        assert_eq!(oa.utility.to_bits(), ob.utility.to_bits());
        assert_eq!(a.stats().batch_solves, 0);
    }

    #[test]
    fn pre_batch_policy_configs_still_deserialize() {
        // A config serialized before `batch_policy` existed: the missing
        // field defaults instead of failing. Configs written while the
        // since-removed `repair_threads` knob existed carry it; the key
        // is ignored, whatever its value.
        let legacy = "{\"seed\":7,\"escalation_fraction\":0.25,\
                      \"staleness_check_interval\":256,\"max_staleness\":0.05";
        let config: EngineConfig = serde_json::from_str(&format!("{legacy}}}")).unwrap();
        for tail in [",\"repair_threads\":1}", ",\"repair_threads\":4}"] {
            let payload = format!("{legacy}{tail}");
            let decoded: EngineConfig = serde_json::from_str(&payload).unwrap();
            assert_eq!(decoded, config, "{payload}");
        }
        assert_eq!(config.seed, 7);
        assert_eq!(config.batch_policy, BatchPolicy::Escalation);
        assert!(!config.online_cost_calibration);
        assert_eq!(config.durability, DurabilityPolicy::Off);
        // Configs from before admission control behave unbounded.
        assert_eq!(config.admission, AdmissionPolicy::Unbounded);
        // And the current format round-trips.
        let current = EngineConfig {
            batch_policy: BatchPolicy::cost_model(),
            durability: DurabilityPolicy::EveryN { n: 16 },
            admission: AdmissionPolicy::bounded(128),
            ..EngineConfig::default()
        };
        let json = serde_json::to_string(&current).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, current);
    }

    #[test]
    fn legacy_config_without_admission_is_bit_identical_to_default() {
        // Regression pin for the admission rollout: a config serialized
        // by a pre-admission build (no `admission` key, with or without
        // the since-removed `repair_threads` key) must decode to a config
        // whose behaviour — and whose re-serialization — is
        // bit-identical to constructing the same config today with the
        // default (unbounded) admission.
        let pre_admission = "{\"seed\":3,\"escalation_fraction\":0.25,\
                             \"staleness_check_interval\":256,\"max_staleness\":0.05,\
                             \"batch_policy\":\"Escalation\",\
                             \"online_cost_calibration\":false,\
                             \"durability\":\"Off\"";
        let expected = EngineConfig {
            seed: 3,
            ..EngineConfig::default()
        };
        for tail in ["}", ",\"repair_threads\":1}", ",\"repair_threads\":4}"] {
            let payload = format!("{pre_admission}{tail}");
            let decoded: EngineConfig = serde_json::from_str(&payload).unwrap();
            assert_eq!(decoded, expected, "{payload}");
            assert_eq!(decoded.admission, AdmissionPolicy::Unbounded);
            assert_eq!(
                serde_json::to_string(&decoded).unwrap(),
                serde_json::to_string(&expected).unwrap()
            );
        }
    }

    #[test]
    fn online_calibration_converges_on_observed_costs() {
        let mut shard = shard_for(
            3,
            8,
            EngineConfig {
                batch_policy: BatchPolicy::cost_model(),
                online_cost_calibration: true,
                staleness_check_interval: 0,
                ..EngineConfig::default()
            },
        );
        assert_eq!(shard.online_cost_estimates(), (None, None));
        // A one-user touch runs the greedy patch → a patch observation.
        shard
            .apply(&InstanceDelta::UpdateInteractionScore {
                user: UserId::new(0),
                score: 0.9,
            })
            .unwrap();
        let (patch, _) = shard.online_cost_estimates();
        assert!(patch.is_some_and(|ns| ns > 0.0));
        // A burst touching every user runs one cold batch solve → a
        // solve observation feeding the next decision's per-unit cost.
        let deltas: Vec<InstanceDelta> = (0..8)
            .map(|u| InstanceDelta::UpdateInteractionScore {
                user: UserId::new(u),
                score: 0.8,
            })
            .collect();
        let outcome = shard.apply_batch(&deltas).unwrap();
        assert_eq!(outcome.repair, RepairKind::BatchSolve);
        let (_, solve) = shard.online_cost_estimates();
        assert!(solve.is_some_and(|ns| ns > 0.0));
        assert!(shard.arrangement().is_feasible(shard.instance()));
    }

    #[test]
    fn calibration_off_records_nothing() {
        let mut shard = shard_for(
            2,
            4,
            EngineConfig {
                batch_policy: BatchPolicy::cost_model(),
                ..EngineConfig::default()
            },
        );
        shard
            .apply(&InstanceDelta::UpdateInteractionScore {
                user: UserId::new(0),
                score: 0.9,
            })
            .unwrap();
        assert_eq!(shard.online_cost_estimates(), (None, None));
    }

    #[test]
    fn batch_policy_severity_ordering_is_total() {
        let kinds = [
            RepairKind::Untouched,
            RepairKind::GreedyPatch {
                pruned: 0,
                added: 1,
            },
            RepairKind::FullResolve,
            RepairKind::BatchSolve,
            RepairKind::StalenessResolve,
        ];
        for w in kinds.windows(2) {
            assert!(w[0].severity() < w[1].severity());
        }
    }

    #[test]
    fn merged_stats_sum_counters_and_keep_worst_drift() {
        let a = EngineStats {
            deltas_applied: 3,
            greedy_patches: 2,
            last_observed_drift: 0.01,
            ..EngineStats::default()
        };
        let b = EngineStats {
            deltas_applied: 4,
            full_resolves: 1,
            last_observed_drift: 0.04,
            ..EngineStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.deltas_applied, 7);
        assert_eq!(m.greedy_patches, 2);
        assert_eq!(m.full_resolves, 1);
        assert_eq!(m.last_observed_drift, 0.04);
    }
}
