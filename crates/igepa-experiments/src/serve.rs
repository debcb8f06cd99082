//! Serving study (extension): the incremental engine under an arrival
//! trace.
//!
//! The paper solves one frozen instance; a deployed arrangement service
//! faces a stream of mutations. This scenario generates a Meetup-style
//! delta trace against a Table I base instance, replays it through the
//! `igepa-engine` warm-start repair loop, and reports:
//!
//! * per-delta latency percentiles of the serving engine;
//! * the same trace served by *cold re-solving after every delta* (the
//!   naive baseline), to quantify the speedup;
//! * the utility ratio of the served arrangement against a cold solve of
//!   the final instance — the quality price of incremental serving.

use crate::settings::ExperimentSettings;
use igepa_algos::{ArrangementAlgorithm, GreedyArrangement};
use igepa_core::{ConstantInterest, Instance, LocalityPartitioner, NeverConflict};
use igepa_datagen::{
    generate_clustered_dataset, generate_community_trace, generate_synthetic, generate_trace,
    ClusteredConfig, CommunityTraceConfig, SyntheticConfig, TraceConfig,
};
use igepa_engine::{
    recover, replay, AdmissionPolicy, ClientError, DurabilityController, DurabilityPolicy, Engine,
    EngineClient, EngineConfig, EngineError, EngineQuery, EngineRequest, EngineResponse,
    EngineServer, FaultInjector, FaultPlan, Framing, LatencySummary, MigrationRecord, Recovered,
    RecoveryError, ShardedConfig, ShardedEngine,
};
use serde::{Deserialize, Serialize};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of the serving study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Deltas replayed.
    pub num_deltas: usize,
    /// Users / events of the base instance.
    pub base_users: usize,
    /// Events of the base instance.
    pub base_events: usize,
    /// Users / events after the full trace.
    pub final_users: usize,
    /// Events after the full trace.
    pub final_events: usize,
    /// Per-delta latency of the warm-start engine (µs).
    pub warm_latency: LatencySummary,
    /// Per-delta latency of the cold re-solve baseline (µs).
    pub cold_latency: LatencySummary,
    /// Mean cold latency over mean warm latency (the serving speedup).
    pub speedup: f64,
    /// Final served utility relative to a cold solve of the final
    /// instance.
    pub utility_ratio: f64,
    /// Greedy patches run by the engine.
    pub greedy_patches: u64,
    /// Full re-solves (escalations) run by the engine.
    pub full_resolves: u64,
    /// Staleness-triggered adoptions of a cold solution.
    pub staleness_resolves: u64,
}

impl ServeReport {
    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## Serving study: warm-start engine vs cold re-solve\n\n");
        out.push_str(&format!(
            "Base instance: {} events x {} users; after {} deltas: {} events x {} users.\n\n",
            self.base_events, self.base_users, self.num_deltas, self.final_events, self.final_users
        ));
        out.push_str("| Strategy | mean (µs) | p50 (µs) | p95 (µs) | p99 (µs) | max (µs) |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        let row = |name: &str, l: &LatencySummary| {
            format!(
                "| {name} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                l.mean_us, l.p50_us, l.p95_us, l.p99_us, l.max_us
            )
        };
        out.push_str(&row("warm-start engine", &self.warm_latency));
        out.push_str(&row("cold re-solve", &self.cold_latency));
        out.push_str(&format!(
            "\nSpeedup (mean cold / mean warm): **{:.1}x**. Final utility: **{:.1}%** of a cold solve of the final instance.\n",
            self.speedup,
            self.utility_ratio * 100.0
        ));
        out.push_str(&format!(
            "Repairs: {} greedy patches, {} escalations, {} staleness adoptions.\n",
            self.greedy_patches, self.full_resolves, self.staleness_resolves
        ));
        out
    }
}

/// Builds the serving engine used by the study (and by the benches, so the
/// two measure the same configuration).
pub fn serving_engine(instance: Instance, seed: u64) -> Engine {
    Engine::new(
        instance,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        EngineConfig {
            seed,
            staleness_check_interval: 128,
            max_staleness: 0.05,
            ..EngineConfig::default()
        },
    )
}

/// Runs the serving study: replays `num_deltas` generated deltas through
/// the warm engine and through per-delta cold re-solving.
pub fn run_serve_study(settings: &ExperimentSettings, num_deltas: usize) -> ServeReport {
    let config = settings.scale_config(&SyntheticConfig::small());
    let base = generate_synthetic(&config, settings.base_seed);
    let trace = generate_trace(
        &base,
        &TraceConfig {
            num_deltas,
            ..TraceConfig::default()
        },
        settings.base_seed + 1,
    );
    let requests: Vec<EngineRequest> = trace
        .deltas
        .iter()
        .map(|t| EngineRequest::Apply {
            delta: t.delta.clone(),
        })
        .collect();

    // Warm-start serving path.
    let mut engine = serving_engine(base.clone(), settings.base_seed);
    let outcome = replay(&mut engine, &requests);
    assert_eq!(
        outcome.report.rejected, 0,
        "generated trace must replay cleanly"
    );
    assert!(engine.arrangement().is_feasible(engine.instance()));
    let utility_ratio = engine.cold_solve_ratio();

    // Cold baseline: apply the same deltas to a bare instance and re-solve
    // from scratch after every one.
    let mut cold_instance = base.clone();
    let solver = GreedyArrangement;
    let mut cold_latencies = Vec::with_capacity(trace.len());
    for (i, timed) in trace.deltas.iter().enumerate() {
        let start = Instant::now();
        cold_instance
            .apply_delta(&timed.delta, &NeverConflict, &ConstantInterest(0.5))
            .expect("trace deltas are valid");
        let arrangement = solver.run_seeded(&cold_instance, settings.base_seed + i as u64);
        std::hint::black_box(&arrangement);
        cold_latencies.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let cold_latency = LatencySummary::from_latencies(cold_latencies);

    let warm_latency = outcome.report.latency;
    let stats = *engine.stats();
    ServeReport {
        num_deltas,
        base_users: base.num_users(),
        base_events: base.num_events(),
        final_users: engine.instance().num_users(),
        final_events: engine.instance().num_events(),
        warm_latency,
        cold_latency,
        speedup: if warm_latency.mean_us > 0.0 {
            cold_latency.mean_us / warm_latency.mean_us
        } else {
            f64::INFINITY
        },
        utility_ratio,
        greedy_patches: stats.greedy_patches,
        full_resolves: stats.full_resolves,
        staleness_resolves: stats.staleness_resolves,
    }
}

/// Result of the sharded serving study: the same multi-community trace
/// replayed through a monolithic engine and through N shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedServeReport {
    /// Shards of the partitioned engine.
    pub shards: usize,
    /// Deltas replayed through both engines.
    pub num_deltas: usize,
    /// Events / users of the community-structured base instance.
    pub base_events: usize,
    /// Users of the base instance.
    pub base_users: usize,
    /// Users after the full trace.
    pub final_users: usize,
    /// Per-delta latency of the monolithic engine (µs).
    pub mono_latency: LatencySummary,
    /// Per-delta latency of the sharded engine (µs).
    pub sharded_latency: LatencySummary,
    /// Mean monolithic latency over mean sharded latency.
    pub speedup: f64,
    /// Final utility served by the monolithic engine.
    pub mono_utility: f64,
    /// Final merged utility served by the sharded engine.
    pub sharded_utility: f64,
    /// `sharded_utility / mono_utility` — the quality price of sharding.
    pub utility_ratio: f64,
    /// Whether the merged arrangement is feasible for the full instance.
    pub merged_feasible: bool,
    /// Events whose bidders span shards at the end of the run.
    pub boundary_events: usize,
    /// Reconciliation passes the coordinator ran.
    pub reconcile_passes: u64,
    /// Capacity units the reconciler moved between shards.
    pub quota_moved: u64,
    /// Pairs served per shard at the end of the run.
    pub pairs_per_shard: Vec<usize>,
}

impl ShardedServeReport {
    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Sharded serving study: {} shards vs monolithic\n\n",
            self.shards
        ));
        out.push_str(&format!(
            "Base instance: {} events x {} users; {} deltas of a multi-community trace; {} users at the end.\n\n",
            self.base_events, self.base_users, self.num_deltas, self.final_users
        ));
        out.push_str("| Engine | mean (µs) | p50 (µs) | p95 (µs) | p99 (µs) | max (µs) |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        let row = |name: &str, l: &LatencySummary| {
            format!(
                "| {name} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                l.mean_us, l.p50_us, l.p95_us, l.p99_us, l.max_us
            )
        };
        out.push_str(&row("monolithic", &self.mono_latency));
        out.push_str(&row(
            &format!("{} shards", self.shards),
            &self.sharded_latency,
        ));
        out.push_str(&format!(
            "\nPer-delta speedup (mean mono / mean sharded): **{:.2}x**. \
             Merged utility: **{:.1}%** of the monolithic engine's ({}).\n",
            self.speedup,
            self.utility_ratio * 100.0,
            if self.merged_feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            }
        ));
        out.push_str(&format!(
            "Boundary: {} events span shards; {} reconcile passes moved {} capacity units. Pairs per shard: {:?}.\n",
            self.boundary_events, self.reconcile_passes, self.quota_moved, self.pairs_per_shard
        ));
        out
    }
}

/// Scales the clustered base configuration like
/// [`ExperimentSettings::scale_config`] does for the synthetic one.
fn scaled_clustered(settings: &ExperimentSettings) -> ClusteredConfig {
    let scale = settings.scale.max(0.01);
    let base = ClusteredConfig::default();
    ClusteredConfig {
        num_events: ((base.num_events as f64 * scale).round() as usize).max(8),
        num_users: ((base.num_users as f64 * scale).round() as usize).max(24),
        ..base
    }
}

/// Builds the sharded engine used by the study and the benches: locality
/// partitioning over the conflict graph, periodic reconciliation, and the
/// same repair knobs as [`serving_engine`].
pub fn sharded_serving_engine(instance: Instance, seed: u64, shards: usize) -> ShardedEngine {
    sharded_serving_engine_with_admission(instance, seed, shards, AdmissionPolicy::Unbounded)
}

/// [`sharded_serving_engine`] with an explicit admission policy — the
/// overload-study and benchmark entry point for a server that sheds
/// instead of queueing without bound.
pub fn sharded_serving_engine_with_admission(
    instance: Instance,
    seed: u64,
    shards: usize,
    admission: AdmissionPolicy,
) -> ShardedEngine {
    let partitioner = LocalityPartitioner::from_instance(&instance, shards);
    ShardedEngine::new(
        instance,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(partitioner),
        ShardedConfig {
            num_shards: shards,
            shard: EngineConfig {
                seed,
                staleness_check_interval: 128,
                max_staleness: 0.05,
                admission,
                ..EngineConfig::default()
            },
            reconcile_interval: 64,
            reconcile_rounds: 3,
        },
    )
}

/// Runs the sharded serving study: replays one multi-community trace
/// through a monolithic engine and an N-shard engine and compares
/// latency, utility and the merged arrangement's feasibility.
pub fn run_sharded_serve_study(
    settings: &ExperimentSettings,
    num_deltas: usize,
    shards: usize,
    churn: bool,
) -> ShardedServeReport {
    let dataset = generate_clustered_dataset(&scaled_clustered(settings), settings.base_seed);
    let base = dataset.instance.clone();
    let trace = generate_community_trace(
        &base,
        &dataset.event_communities,
        &trace_mix(num_deltas, shards.max(1), churn),
        settings.base_seed + 1,
    );
    let requests: Vec<EngineRequest> = trace
        .deltas
        .iter()
        .map(|t| EngineRequest::Apply {
            delta: t.delta.clone(),
        })
        .collect();

    // Monolithic path.
    let mut mono = serving_engine(base.clone(), settings.base_seed);
    let mono_outcome = replay(&mut mono, &requests);
    assert_eq!(
        mono_outcome.report.rejected, 0,
        "community trace must replay cleanly"
    );
    let mono_utility = mono.utility();

    // Sharded path.
    let mut sharded = sharded_serving_engine(base, settings.base_seed, shards);
    let sharded_outcome = replay(&mut sharded, &requests);
    assert_eq!(sharded_outcome.report.rejected, 0);
    // One final reconciliation so stranded quota does not linger past the
    // end of the trace.
    let final_report = sharded.rebalance();
    let merged = sharded.merged_arrangement();
    let merged_feasible = merged.is_feasible(sharded.instance());
    let sharded_utility = merged.utility_value(sharded.instance());

    let mono_latency = mono_outcome.report.latency;
    let sharded_latency = sharded_outcome.report.latency;
    ShardedServeReport {
        shards: sharded.num_shards(),
        num_deltas,
        base_events: dataset.instance.num_events(),
        base_users: dataset.instance.num_users(),
        final_users: sharded.instance().num_users(),
        mono_latency,
        sharded_latency,
        speedup: if sharded_latency.mean_us > 0.0 {
            mono_latency.mean_us / sharded_latency.mean_us
        } else {
            f64::INFINITY
        },
        mono_utility,
        sharded_utility,
        utility_ratio: if mono_utility > 0.0 {
            sharded_utility / mono_utility
        } else {
            1.0
        },
        merged_feasible,
        boundary_events: final_report.boundary_events,
        reconcile_passes: sharded.coordinator_stats().reconcile_passes,
        quota_moved: sharded.coordinator_stats().quota_moved,
        pairs_per_shard: (0..sharded.num_shards())
            .map(|k| sharded.shard(k).arrangement().len())
            .collect(),
    }
}

/// Result of driving a delta trace through the TCP transport (loopback or
/// a remote server).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopbackReport {
    /// Shards the server ran (as requested; a remote server's actual
    /// count is whatever it was started with).
    pub shards: usize,
    /// Deltas driven through the client.
    pub num_deltas: usize,
    /// Deltas the server applied.
    pub applied: usize,
    /// Deltas the server rejected.
    pub rejected: usize,
    /// Client-observed round-trip latency per request (µs).
    pub rtt: LatencySummary,
    /// Utility after the final request (from the closing `Utility` query).
    pub final_utility: f64,
    /// Pairs served at the end (from the closing snapshot).
    pub final_pairs: usize,
    /// Whether the recovered server engine's merged arrangement is
    /// feasible — only checkable in loopback mode, where this process
    /// owns the server (`None` when driving a remote server).
    pub merged_feasible: Option<bool>,
}

impl LoopbackReport {
    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## TCP serving smoke: {} deltas over loopback, {} shards\n\n",
            self.num_deltas, self.shards
        ));
        out.push_str(&format!(
            "Applied {} / rejected {}; final utility {:.3} over {} pairs; merged arrangement: {}.\n\n",
            self.applied,
            self.rejected,
            self.final_utility,
            self.final_pairs,
            match self.merged_feasible {
                Some(true) => "feasible",
                Some(false) => "INFEASIBLE",
                None => "not checked (remote server)",
            }
        ));
        out.push_str("| RTT | mean (µs) | p50 (µs) | p95 (µs) | p99 (µs) | max (µs) |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        out.push_str(&format!(
            "| per request | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
            self.rtt.mean_us, self.rtt.p50_us, self.rtt.p95_us, self.rtt.p99_us, self.rtt.max_us
        ));
        out
    }
}

/// The community trace both TCP entry points drive, derived from the same
/// settings on the server and client side so remote runs replay cleanly.
/// The delta mix driven through the serving studies: the
/// partition-friendly workload where sharding shines, or — with `churn`
/// — the announcement-heavy mix that historically diluted it (every
/// event-scoped delta broadcasts; the shared catalogue absorbs them with
/// one publish).
fn trace_mix(num_deltas: usize, num_communities: usize, churn: bool) -> CommunityTraceConfig {
    if churn {
        CommunityTraceConfig::announcement_heavy(num_deltas, num_communities)
    } else {
        CommunityTraceConfig::partition_friendly(num_deltas, num_communities)
    }
}

fn tcp_trace(
    settings: &ExperimentSettings,
    num_deltas: usize,
    shards: usize,
    churn: bool,
) -> Vec<EngineRequest> {
    let dataset = generate_clustered_dataset(&scaled_clustered(settings), settings.base_seed);
    let trace = generate_community_trace(
        &dataset.instance,
        &dataset.event_communities,
        &trace_mix(num_deltas, shards.max(1), churn),
        settings.base_seed + 1,
    );
    trace
        .deltas
        .iter()
        .map(|t| EngineRequest::Apply {
            delta: t.delta.clone(),
        })
        .collect()
}

/// Drives the trace and a closing `Rebalance` / `Utility` /
/// `MergedSnapshot` sequence through a connected client.
fn drive_client(
    client: &mut EngineClient,
    requests: &[EngineRequest],
) -> Result<(usize, usize, LatencySummary, f64, usize), ClientError> {
    let mut applied = 0usize;
    let mut rejected = 0usize;
    let mut rtts = Vec::with_capacity(requests.len());
    for request in requests {
        let start = Instant::now();
        match client.call(request.clone()) {
            Ok(EngineResponse::Applied { .. }) => applied += 1,
            Ok(_) => {}
            Err(ClientError::Engine(_)) => rejected += 1,
            Err(e) => return Err(e),
        }
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    client.call(EngineRequest::Rebalance)?;
    let final_utility = match client.query(EngineQuery::Utility)? {
        EngineResponse::Utility { total, .. } => total,
        other => panic!("Utility query answered {other:?}"),
    };
    let final_pairs = match client.query(EngineQuery::MergedSnapshot)? {
        EngineResponse::Snapshot { pairs, .. } => pairs.len(),
        other => panic!("MergedSnapshot query answered {other:?}"),
    };
    Ok((
        applied,
        rejected,
        LatencySummary::from_latencies(rtts),
        final_utility,
        final_pairs,
    ))
}

/// Builds the sharded engine a TCP server fronts, from the same settings
/// the client derives its trace from.
pub fn tcp_server_engine(settings: &ExperimentSettings, shards: usize) -> ShardedEngine {
    let dataset = generate_clustered_dataset(&scaled_clustered(settings), settings.base_seed);
    sharded_serving_engine(dataset.instance, settings.base_seed, shards)
}

/// Loopback smoke: start a per-shard-worker TCP server on `listen_addr`
/// (use `127.0.0.1:0` for an ephemeral port), drive `num_deltas` through
/// a blocking [`EngineClient`], shut the server down cleanly and verify
/// the recovered engine's merged arrangement is feasible.
pub fn run_loopback_study(
    settings: &ExperimentSettings,
    listen_addr: &str,
    num_deltas: usize,
    shards: usize,
    churn: bool,
) -> LoopbackReport {
    let requests = tcp_trace(settings, num_deltas, shards, churn);
    let listener = TcpListener::bind(listen_addr).expect("listen address binds");
    let handle = EngineServer::serve_sharded(
        listener,
        tcp_server_engine(settings, shards),
        Framing::Lines,
    )
    .expect("server spawns");
    eprintln!("loopback server listening on {}", handle.local_addr());

    let mut client =
        EngineClient::connect(handle.local_addr(), Framing::Lines).expect("client connects");
    let (applied, rejected, rtt, final_utility, final_pairs) =
        drive_client(&mut client, &requests).expect("transport stays up");
    drop(client);

    let engine = handle.shutdown().expect("clean server shutdown");
    let merged_feasible = engine.merged_arrangement().is_feasible(engine.instance());
    LoopbackReport {
        shards,
        num_deltas,
        applied,
        rejected,
        rtt,
        final_utility,
        final_pairs,
        merged_feasible: Some(merged_feasible),
    }
}

/// Client-only variant of the smoke: drive the trace against a server
/// started elsewhere (`igepa-experiments serve --listen ADDR`).
pub fn run_connect_study(
    settings: &ExperimentSettings,
    connect_addr: &str,
    num_deltas: usize,
    shards: usize,
    churn: bool,
) -> LoopbackReport {
    let requests = tcp_trace(settings, num_deltas, shards, churn);
    let mut client = EngineClient::connect(connect_addr, Framing::Lines).expect("server reachable");
    let (applied, rejected, rtt, final_utility, final_pairs) =
        drive_client(&mut client, &requests).expect("transport stays up");
    LoopbackReport {
        shards,
        num_deltas,
        applied,
        rejected,
        rtt,
        final_utility,
        final_pairs,
        merged_feasible: None,
    }
}

/// Result of the elastic-serving smoke: the community trace driven over
/// loopback with a live `Reshard` issued mid-trace while the server
/// keeps answering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowReport {
    /// Shards the server started with.
    pub start_shards: usize,
    /// Shard count requested mid-trace.
    pub grow_to: usize,
    /// Delta index the reshard was issued at.
    pub grow_at: usize,
    /// Deltas driven through the client.
    pub num_deltas: usize,
    /// Deltas the server applied.
    pub applied: usize,
    /// Deltas the server rejected — the headline number; must be zero.
    pub rejected: usize,
    /// Client-observed round-trip latency per delta (µs).
    pub rtt: LatencySummary,
    /// What the migration did, from the server's `Resharded` answer.
    pub migration: MigrationRecord,
    /// Client-observed round trip of the `Reshard` request itself (µs)
    /// — the serving pause the migration cost.
    pub migration_pause_us: f64,
    /// Sum of per-shard `moved_in` counters after the grow.
    pub moved_in_total: u64,
    /// Sum of per-shard `moved_out` counters after the grow.
    pub moved_out_total: u64,
    /// Utility after the final request.
    pub final_utility: f64,
    /// Pairs served at the end.
    pub final_pairs: usize,
    /// Shards answering at the end (from the closing `ShardStats`).
    pub final_shards: usize,
    /// Whether the recovered server engine's merged arrangement is
    /// feasible (checked server-side after shutdown).
    pub merged_feasible: bool,
}

impl GrowReport {
    /// The elastic-serving contract, checked: zero rejections across
    /// the whole trace, the grow took effect, the per-shard migration
    /// counters balance the migration record, and the exit state is
    /// feasible.
    pub fn passed(&self) -> bool {
        self.rejected == 0
            && self.merged_feasible
            && self.final_shards == self.grow_to
            && self.migration.from_shards == self.start_shards
            && self.migration.to_shards == self.grow_to
            && self.moved_in_total == self.migration.moved_users
            && self.moved_in_total == self.moved_out_total
    }

    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Elastic serving smoke: {} -> {} shards at delta {} of {}\n\n",
            self.start_shards, self.grow_to, self.grow_at, self.num_deltas
        ));
        out.push_str(&format!(
            "Applied {} / rejected {}; migration moved {} user(s) and {} capacity unit(s) \
             in {:.1} µs (catalogue epoch {}); per-shard counters: {} in / {} out.\n\n",
            self.applied,
            self.rejected,
            self.migration.moved_users,
            self.migration.quota_moved,
            self.migration_pause_us,
            self.migration.catalog_epoch,
            self.moved_in_total,
            self.moved_out_total,
        ));
        out.push_str(&format!(
            "Final state: utility {:.3} over {} pairs on {} shards; merged arrangement: {}.\n\n",
            self.final_utility,
            self.final_pairs,
            self.final_shards,
            if self.merged_feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            }
        ));
        out.push_str("| RTT | mean (µs) | p50 (µs) | p95 (µs) | p99 (µs) | max (µs) |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        out.push_str(&format!(
            "| per delta | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
            self.rtt.mean_us, self.rtt.p50_us, self.rtt.p95_us, self.rtt.p99_us, self.rtt.max_us
        ));
        out
    }
}

/// Sends one `Reshard` through a connected client and returns the
/// migration record plus the client-observed pause in microseconds.
fn reshard_over(
    client: &mut EngineClient,
    num_shards: usize,
) -> Result<(MigrationRecord, f64), ClientError> {
    let start = Instant::now();
    match client.call(EngineRequest::Reshard { num_shards })? {
        EngineResponse::Resharded { record, .. } => {
            Ok((record, start.elapsed().as_secs_f64() * 1e6))
        }
        other => panic!("Reshard answered {other:?}"),
    }
}

/// Elastic-serving smoke: start a loopback server on `shards` shards,
/// drive the community trace, and at delta `grow_at` issue a live
/// `Reshard { grow_to }` — the migration must not reject a single
/// request, the per-shard migration counters must balance, and the
/// server must exit feasible on the new shard count.
pub fn run_grow_study(
    settings: &ExperimentSettings,
    listen_addr: &str,
    num_deltas: usize,
    shards: usize,
    grow_to: usize,
    grow_at: usize,
    churn: bool,
) -> GrowReport {
    let requests = tcp_trace(settings, num_deltas, shards, churn);
    let grow_at = grow_at.min(requests.len().saturating_sub(1));
    let listener = TcpListener::bind(listen_addr).expect("listen address binds");
    let handle = EngineServer::serve_sharded(
        listener,
        tcp_server_engine(settings, shards),
        Framing::Lines,
    )
    .expect("server spawns");
    eprintln!("elastic smoke server listening on {}", handle.local_addr());
    let mut client =
        EngineClient::connect(handle.local_addr(), Framing::Lines).expect("client connects");

    let mut applied = 0usize;
    let mut rejected = 0usize;
    let mut rtts = Vec::with_capacity(requests.len());
    let mut migration = None;
    let mut migration_pause_us = 0.0;
    for (i, request) in requests.iter().enumerate() {
        if i == grow_at {
            let (record, pause) = reshard_over(&mut client, grow_to).expect("transport stays up");
            migration = Some(record);
            migration_pause_us = pause;
        }
        let start = Instant::now();
        match client.call(request.clone()) {
            Ok(EngineResponse::Applied { .. }) => applied += 1,
            Ok(_) => {}
            Err(ClientError::Engine(_)) => rejected += 1,
            Err(e) => panic!("transport failed mid-trace: {e}"),
        }
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let migration = migration.expect("grow_at is clamped inside the trace");

    client
        .call(EngineRequest::Rebalance)
        .expect("transport stays up");
    let (moved_in_total, moved_out_total, final_shards) =
        match client.query(EngineQuery::ShardStats).expect("stats answer") {
            EngineResponse::ShardStats { shards } => (
                shards.iter().map(|s| s.moved_in).sum::<u64>(),
                shards.iter().map(|s| s.moved_out).sum::<u64>(),
                shards.len(),
            ),
            other => panic!("ShardStats query answered {other:?}"),
        };
    let final_utility = match client.query(EngineQuery::Utility).expect("utility answer") {
        EngineResponse::Utility { total, .. } => total,
        other => panic!("Utility query answered {other:?}"),
    };
    let final_pairs = match client
        .query(EngineQuery::MergedSnapshot)
        .expect("snapshot answer")
    {
        EngineResponse::Snapshot { pairs, .. } => pairs.len(),
        other => panic!("MergedSnapshot query answered {other:?}"),
    };
    drop(client);

    let engine = handle.shutdown().expect("clean server shutdown");
    let merged_feasible = engine.merged_arrangement().is_feasible(engine.instance());
    GrowReport {
        start_shards: shards,
        grow_to,
        grow_at,
        num_deltas: requests.len(),
        applied,
        rejected,
        rtt: LatencySummary::from_latencies(rtts),
        migration,
        migration_pause_us,
        moved_in_total,
        moved_out_total,
        final_utility,
        final_pairs,
        final_shards,
        merged_feasible,
    }
}

/// The `reshard` command: connect to a running `serve --listen` server
/// and issue one live `Reshard { num_shards }`, printing what moved.
pub fn run_reshard_command(connect_addr: &str, num_shards: usize) -> MigrationRecord {
    let mut client = EngineClient::connect(connect_addr, Framing::Lines).expect("server reachable");
    let (record, pause) = reshard_over(&mut client, num_shards).expect("transport stays up");
    println!(
        "resharded {} -> {} shards: {} user(s) and {} capacity unit(s) moved \
         in {:.1} µs at catalogue epoch {}",
        record.from_shards,
        record.to_shards,
        record.moved_users,
        record.quota_moved,
        pause,
        record.catalog_epoch
    );
    record
}

/// Result of the overload study: a multi-client loopback flood against
/// a bounded-admission, fault-injected server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadReport {
    /// Shards the server ran.
    pub shards: usize,
    /// Admission cap in force (`AdmissionPolicy::bounded(cap)`).
    pub admission_cap: usize,
    /// The fault plan driven during the flood.
    pub fault_plan: String,
    /// Mutations the flooders put on the wire.
    pub num_requests: usize,
    /// Mutations acknowledged as applied.
    pub applied: usize,
    /// Typed `Overloaded` refusals observed client-side.
    pub shed: usize,
    /// Other typed engine rejections (out-of-range probes etc.).
    pub rejected: usize,
    /// Cached reads a concurrent connection got answered mid-flood.
    pub reads_answered: usize,
    /// Reader failures — must stay zero: reads keep flowing under shed.
    pub reader_errors: usize,
    /// Applies the injector slowed down.
    pub slow_applies: u64,
    /// View shipments the injector dropped (recovered via barrier).
    pub dropped_views: u64,
    /// Whether the final merged arrangement is feasible.
    pub merged_feasible: bool,
}

impl OverloadReport {
    /// The degradation contract, checked: the server shed (the study is
    /// vacuous otherwise), every request got exactly one typed
    /// response, reads never failed, and the exit state is feasible.
    pub fn passed(&self) -> bool {
        self.merged_feasible
            && self.shed > 0
            && self.reader_errors == 0
            && self.applied + self.shed + self.rejected == self.num_requests
    }

    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Overload study: {} mutations vs cap {} on {} shards\n\n",
            self.num_requests, self.admission_cap, self.shards
        ));
        out.push_str(&format!("Fault plan: `{}`\n\n", self.fault_plan));
        out.push_str(&format!(
            "Applied {} / shed {} / rejected {}; reader answered {} cached reads \
             ({} errors); injector slowed {} applies, dropped {} views; \
             merged arrangement: {}.\n",
            self.applied,
            self.shed,
            self.rejected,
            self.reads_answered,
            self.reader_errors,
            self.slow_applies,
            self.dropped_views,
            if self.merged_feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            }
        ));
        out
    }
}

/// Overload study: flood a `bounded(cap)` 4-flooder loopback server —
/// each flooder pipelining its slice of a community trace at a deep
/// window — while a dedicated connection reads `Utility` from the
/// barrier-free cache the whole time. The fault plan (typically slowed
/// applies) keeps the dispatch queue backed up so the admission gate
/// actually sheds; every refusal must be typed, the reader must never
/// starve, and the server must exit feasible.
pub fn run_overload_study(
    settings: &ExperimentSettings,
    num_requests: usize,
    shards: usize,
    admission_cap: usize,
    fault_plan: FaultPlan,
) -> OverloadReport {
    let dataset = generate_clustered_dataset(&scaled_clustered(settings), settings.base_seed);
    let engine = sharded_serving_engine_with_admission(
        dataset.instance,
        settings.base_seed,
        shards,
        AdmissionPolicy::bounded(admission_cap),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let faults = Arc::new(FaultInjector::new(fault_plan));
    let handle = EngineServer::serve_sharded_faulted(
        listener,
        engine,
        Framing::Lines,
        None,
        Arc::clone(&faults),
    )
    .expect("server spawns");
    let addr = handle.local_addr();

    let requests = tcp_trace(settings, num_requests, shards, false);
    let num_requests = requests.len();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = EngineClient::connect(addr, Framing::Lines).expect("reader connects");
            let mut answered = 0usize;
            let mut errors = 0usize;
            while !stop.load(Ordering::Relaxed) {
                match client.query(EngineQuery::Utility) {
                    Ok(EngineResponse::Utility { .. }) => answered += 1,
                    _ => errors += 1,
                }
            }
            (answered, errors)
        })
    };

    const FLOODERS: usize = 4;
    let chunk = num_requests.div_ceil(FLOODERS).max(1);
    let flooders: Vec<_> = requests
        .chunks(chunk)
        .map(|slice| {
            let slice = slice.to_vec();
            std::thread::spawn(move || {
                let mut client =
                    EngineClient::connect(addr, Framing::Lines).expect("flooder connects");
                client.set_pipeline_window(64);
                let mut applied = 0usize;
                let mut shed = 0usize;
                let mut rejected = 0usize;
                for result in client.pipeline(slice).expect("transport stays up") {
                    match result {
                        Ok(_) => applied += 1,
                        Err(EngineError::Overloaded { .. }) => shed += 1,
                        Err(_) => rejected += 1,
                    }
                }
                (applied, shed, rejected)
            })
        })
        .collect();

    let (mut applied, mut shed, mut rejected) = (0usize, 0usize, 0usize);
    for flooder in flooders {
        let (a, s, r) = flooder.join().expect("flooder thread completes");
        applied += a;
        shed += s;
        rejected += r;
    }
    stop.store(true, Ordering::Relaxed);
    let (reads_answered, reader_errors) = reader.join().expect("reader thread completes");

    let counts = faults.counts();
    let engine = handle.shutdown().expect("clean server shutdown");
    let merged_feasible = engine.merged_arrangement().is_feasible(engine.instance());
    OverloadReport {
        shards,
        admission_cap,
        fault_plan: format!("{:?}", faults.plan()),
        num_requests,
        applied,
        shed,
        rejected,
        reads_answered,
        reader_errors,
        slow_applies: counts.slow_applies,
        dropped_views: counts.dropped_views,
        merged_feasible,
    }
}

/// Parses a `--fsync` CLI value: `off`, `always`, `every=N`, or
/// `interval=MS`.
pub fn parse_fsync_policy(value: &str) -> Option<DurabilityPolicy> {
    match value {
        "off" => Some(DurabilityPolicy::Off),
        "always" => Some(DurabilityPolicy::Always),
        _ => {
            if let Some(n) = value.strip_prefix("every=") {
                n.parse().ok().map(|n| DurabilityPolicy::EveryN { n })
            } else if let Some(ms) = value.strip_prefix("interval=") {
                ms.parse()
                    .ok()
                    .map(|millis| DurabilityPolicy::Interval { millis })
            } else {
                None
            }
        }
    }
}

/// Recovers the TCP server's engine from a durability directory: newest
/// valid snapshot plus WAL-tail replay. The engine is rebuilt through
/// exactly the [`tcp_server_engine`] construction, so `settings` (seed,
/// scale) and `shards` must match the original `serve --wal` run — the
/// restored engine then continues bit-for-bit where the crashed one
/// stopped.
pub fn recover_served_engine(
    settings: &ExperimentSettings,
    dir: &Path,
    shards: usize,
) -> Result<Recovered, RecoveryError> {
    recover(
        dir,
        // The no-snapshot fallback replays from a fresh engine.
        || tcp_server_engine(settings, shards),
        |state| {
            // The partitioner only places users registered after the
            // restore; rebuild it from the same deterministic dataset the
            // original server derived it from.
            let dataset =
                generate_clustered_dataset(&scaled_clustered(settings), settings.base_seed);
            let partitioner = LocalityPartitioner::from_instance(&dataset.instance, shards);
            ShardedEngine::restore_state(
                state,
                Box::new(NeverConflict),
                Box::new(ConstantInterest(0.5)),
                Box::new(GreedyArrangement),
                Box::new(partitioner),
            )
        },
    )
}

/// Result of the `recover <dir>` command: what the durability directory
/// contained and whether the rebuilt state passes its integrity checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverReport {
    /// Shards the engine was rebuilt with.
    pub shards: usize,
    /// WAL sequence covered by the snapshot restored from (`None`: no
    /// usable snapshot, full-log replay).
    pub snapshot_seq: Option<u64>,
    /// Invalid / partial snapshots skipped for an older valid one.
    pub skipped_snapshots: usize,
    /// WAL records found on disk.
    pub wal_records: usize,
    /// WAL records replayed past the snapshot.
    pub replayed: usize,
    /// Bytes of torn WAL tail truncated.
    pub truncated_bytes: u64,
    /// Torn trailing records dropped with them.
    pub truncated_records: u64,
    /// Sequence the next logged request would take on resume.
    pub next_seq: u64,
    /// Merged utility of the recovered arrangement.
    pub final_utility: f64,
    /// Pairs served by the recovered arrangement.
    pub final_pairs: usize,
    /// Whether the recovered merged arrangement is feasible.
    pub feasible: bool,
    /// Whether the recovered utility trackers match a from-scratch
    /// recompute bit for bit.
    pub utility_exact: bool,
}

impl RecoverReport {
    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## Recovery: snapshot restore + WAL-tail replay\n\n");
        out.push_str(&format!(
            "Snapshot: {}; {} WAL record(s) on disk, {} replayed, {} byte(s) of torn tail truncated ({} record(s)); next seq {}.\n\n",
            match self.snapshot_seq {
                Some(seq) => format!("restored at WAL seq {seq}"),
                None => "none (full-log replay)".to_string(),
            },
            self.wal_records,
            self.replayed,
            self.truncated_bytes,
            self.truncated_records,
            self.next_seq,
        ));
        out.push_str(&format!(
            "Recovered state: utility {:.6} over {} pairs, {} shards; feasibility {}; utility recompute {}.\n",
            self.final_utility,
            self.final_pairs,
            self.shards,
            if self.feasible { "OK" } else { "FAILED" },
            if self.utility_exact {
                "bit-exact"
            } else {
                "MISMATCH"
            }
        ));
        out
    }

    /// Whether every integrity check passed.
    pub fn passed(&self) -> bool {
        self.feasible && self.utility_exact
    }
}

/// Runs the `recover <dir>` command: rebuild the engine from the
/// durability directory and verify feasibility plus exact utility.
pub fn run_recover_study(
    settings: &ExperimentSettings,
    dir: &Path,
    shards: usize,
) -> Result<RecoverReport, RecoveryError> {
    let recovered = recover_served_engine(settings, dir, shards)?;
    let engine = recovered.engine;
    let report = recovered.report;
    let merged = engine.merged_arrangement();
    let feasible = merged.is_feasible(engine.instance());
    let recomputed = merged.utility_value(engine.instance());
    let tracked = engine.merged_utility().total;
    Ok(RecoverReport {
        shards: engine.num_shards(),
        snapshot_seq: report.snapshot_seq,
        skipped_snapshots: report.skipped_snapshots,
        wal_records: report.wal_records,
        replayed: report.replayed,
        truncated_bytes: report.truncated_bytes,
        truncated_records: report.truncated_records,
        next_seq: recovered.next_seq,
        final_utility: tracked,
        final_pairs: merged.len(),
        feasible,
        utility_exact: tracked.to_bits() == recomputed.to_bits(),
    })
}

/// Serves forever on `listen_addr` (for an external `--connect` client).
/// Prints the bound address, then parks the main thread.
///
/// With `wal`, the server runs durably: any state already in the
/// directory is recovered first (so a restart resumes where the crash
/// left off), and every mutating request is write-ahead-logged under the
/// given fsync policy before it is acknowledged.
pub fn run_listen(
    settings: &ExperimentSettings,
    listen_addr: &str,
    shards: usize,
    wal: Option<(&Path, DurabilityPolicy)>,
) -> ! {
    let listener = TcpListener::bind(listen_addr).expect("listen address binds");
    println!(
        "igepa-engine: {} shards serving on {}{}",
        shards,
        listener.local_addr().expect("bound address"),
        match wal {
            Some((dir, policy)) => format!(" (durable: {} / fsync {policy:?})", dir.display()),
            None => String::new(),
        }
    );
    let _handle = match wal {
        None => EngineServer::serve_sharded(
            listener,
            tcp_server_engine(settings, shards),
            Framing::Lines,
        ),
        Some((dir, policy)) => {
            std::fs::create_dir_all(dir).expect("durability directory creatable");
            let recovered = recover_served_engine(settings, dir, shards)
                .unwrap_or_else(|e| panic!("cannot recover from {}: {e}", dir.display()));
            if recovered.report.wal_records > 0 || recovered.report.snapshot_seq.is_some() {
                eprintln!(
                    "igepa-engine: resumed from {} (snapshot seq {:?}, {} replayed)",
                    dir.display(),
                    recovered.report.snapshot_seq,
                    recovered.report.replayed
                );
            }
            let controller = DurabilityController::resume(
                dir,
                policy,
                recovered.next_seq,
                recovered.last_checkpoint_seq,
            )
            .expect("durability controller opens");
            EngineServer::serve_sharded_durable(
                listener,
                recovered.engine,
                Framing::Lines,
                controller,
            )
        }
    }
    .expect("server spawns");
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_study_reports_speedup_and_quality() {
        let settings = ExperimentSettings {
            scale: 0.5,
            ..ExperimentSettings::quick()
        };
        let report = run_serve_study(&settings, 300);
        assert_eq!(report.num_deltas, 300);
        assert!(report.final_users >= report.base_users);
        assert!(
            report.utility_ratio >= 0.95,
            "utility ratio {} below the acceptance bar",
            report.utility_ratio
        );
        assert!(
            report.speedup > 1.0,
            "warm serving ({} µs) not faster than cold re-solve ({} µs)",
            report.warm_latency.mean_us,
            report.cold_latency.mean_us
        );
        let md = report.to_markdown();
        assert!(md.contains("Serving study"));
        assert!(md.contains("Speedup"));
    }

    #[test]
    fn serve_report_serializes() {
        let settings = ExperimentSettings::quick();
        let report = run_serve_study(&settings, 50);
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn sharded_study_is_feasible_and_close_to_monolithic() {
        let settings = ExperimentSettings {
            scale: 0.25,
            ..ExperimentSettings::quick()
        };
        let report = run_sharded_serve_study(&settings, 400, 4, false);
        assert_eq!(report.shards, 4);
        assert!(report.merged_feasible, "merged arrangement infeasible");
        assert!(
            report.utility_ratio >= 0.95,
            "sharded utility only {:.3} of monolithic",
            report.utility_ratio
        );
        let md = report.to_markdown();
        assert!(md.contains("Sharded serving study"));
        let json = serde_json::to_string(&report).unwrap();
        let back: ShardedServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn loopback_study_is_feasible_end_to_end() {
        let settings = ExperimentSettings {
            scale: 0.2,
            ..ExperimentSettings::quick()
        };
        let report = run_loopback_study(&settings, "127.0.0.1:0", 120, 2, false);
        assert_eq!(report.num_deltas, 120);
        assert_eq!(report.rejected, 0, "community trace must replay cleanly");
        assert_eq!(report.applied, 120);
        assert_eq!(report.merged_feasible, Some(true));
        assert!(report.final_utility > 0.0);
        let md = report.to_markdown();
        assert!(md.contains("TCP serving smoke"));
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(
            serde_json::from_str::<LoopbackReport>(&json).unwrap(),
            report
        );
    }

    #[test]
    fn grow_study_reshards_live_with_zero_rejections() {
        let settings = ExperimentSettings {
            scale: 0.2,
            ..ExperimentSettings::quick()
        };
        let report = run_grow_study(&settings, "127.0.0.1:0", 120, 2, 3, 60, false);
        assert!(report.passed(), "elastic contract violated: {report:?}");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.migration.from_shards, 2);
        assert_eq!(report.migration.to_shards, 3);
        assert_eq!(report.final_shards, 3);
        assert!(
            report.migration.moved_users > 0,
            "a 2 -> 3 grow moves users"
        );
        let md = report.to_markdown();
        assert!(md.contains("Elastic serving smoke"));
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(serde_json::from_str::<GrowReport>(&json).unwrap(), report);
    }

    #[test]
    fn fsync_policies_parse() {
        assert_eq!(parse_fsync_policy("off"), Some(DurabilityPolicy::Off));
        assert_eq!(parse_fsync_policy("always"), Some(DurabilityPolicy::Always));
        assert_eq!(
            parse_fsync_policy("every=32"),
            Some(DurabilityPolicy::EveryN { n: 32 })
        );
        assert_eq!(
            parse_fsync_policy("interval=5"),
            Some(DurabilityPolicy::Interval { millis: 5 })
        );
        assert_eq!(parse_fsync_policy("sometimes"), None);
        assert_eq!(parse_fsync_policy("every=x"), None);
    }

    #[test]
    fn durable_serve_recovers_the_exact_served_state() {
        // The CLI path end to end, minus the TCP listen loop: serve the
        // community trace durably, shut down, then run the `recover`
        // study against the directory and compare with the live engine.
        let settings = ExperimentSettings {
            scale: 0.2,
            ..ExperimentSettings::quick()
        };
        let shards = 2;
        let dir = std::env::temp_dir().join(format!(
            "igepa-serve-recover-{}-{}",
            std::process::id(),
            settings.base_seed
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();

        let requests = tcp_trace(&settings, 120, shards, false);
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
        let controller =
            DurabilityController::create(&dir, DurabilityPolicy::Off).expect("controller opens");
        let handle = EngineServer::serve_sharded_durable(
            listener,
            tcp_server_engine(&settings, shards),
            Framing::Lines,
            controller,
        )
        .expect("server spawns");
        let mut client =
            EngineClient::connect(handle.local_addr(), Framing::Lines).expect("client connects");
        drive_client(&mut client, &requests).expect("transport stays up");
        drop(client);
        let engine = handle.shutdown().expect("clean shutdown");

        let report = run_recover_study(&settings, &dir, shards).expect("recovery succeeds");
        assert!(report.passed(), "recovered state failed integrity checks");
        // `drive_client` appends a Rebalance after the 120 deltas.
        assert_eq!(report.wal_records, 121);
        assert_eq!(report.replayed, 121);
        assert_eq!(
            report.final_utility.to_bits(),
            engine.merged_utility().total.to_bits(),
            "recovered utility must match the served engine bit for bit"
        );
        assert_eq!(report.final_pairs, engine.merged_arrangement().len());

        let recovered = recover_served_engine(&settings, &dir, shards).expect("recovery succeeds");
        assert_eq!(
            recovered
                .engine
                .merged_arrangement()
                .pairs()
                .collect::<Vec<_>>(),
            engine.merged_arrangement().pairs().collect::<Vec<_>>(),
            "recovered arrangement must match pair for pair"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_shard_study_matches_monolithic_exactly() {
        let settings = ExperimentSettings {
            scale: 0.2,
            ..ExperimentSettings::quick()
        };
        let report = run_sharded_serve_study(&settings, 200, 1, false);
        assert_eq!(report.shards, 1);
        assert!(report.merged_feasible);
        assert_eq!(
            report.sharded_utility.to_bits(),
            report.mono_utility.to_bits(),
            "one shard must reproduce the monolithic utility bit for bit"
        );
    }
}
