//! The four workloads: what each generates from its seed, and the engine
//! every workload serves.

use crate::spans::Tracer;
use igepa_algos::GreedyArrangement;
use igepa_core::io::instance_to_json;
use igepa_core::{
    CapacityTarget, ConstantInterest, EventId, Instance, InstanceDelta, LocalityPartitioner,
    TimeOverlapConflict, UserId,
};
use igepa_datagen::{
    generate_clustered_dataset, generate_community_trace, generate_synthetic, generate_trace,
    ClusteredConfig, CommunityTraceConfig, SyntheticConfig, TraceConfig,
};
use igepa_engine::{
    encode_request, EngineConfig, EngineQuery, EngineRequest, ShardedConfig, ShardedEngine,
};

/// Shards of every served engine (the loopback smokes' shape).
pub const SHARDS: usize = 4;

/// Base instance of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Base {
    /// `ClusteredConfig::default()`: 2000 users, 200 events, planted
    /// communities.
    Clustered,
    /// The paper's Table-I synthetic default: |V| = 200, |U| = 2000.
    TableOne,
}

/// Delta mix of a workload's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// `CommunityTraceConfig::partition_friendly`.
    PartitionFriendly,
    /// `CommunityTraceConfig::announcement_heavy` (timed windows).
    AnnouncementHeavy,
    /// `TraceConfig::default()`, the Meetup-flavoured arrival mix.
    Meetup,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name given on the command line.
    pub name: &'static str,
    /// Base instance family.
    pub base: Base,
    /// Trace mix.
    pub mix: Mix,
    /// Serve through the write-ahead log (`fsync always`).
    pub durable: bool,
    /// Table-I instances solved with `LpPacking::default()` (0: none).
    pub lp_instances: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "community_serve",
        base: Base::Clustered,
        mix: Mix::PartitionFriendly,
        durable: false,
        lp_instances: 0,
    },
    Spec {
        name: "catalog_churn",
        base: Base::Clustered,
        mix: Mix::AnnouncementHeavy,
        durable: false,
        lp_instances: 0,
    },
    Spec {
        name: "durable_recover",
        base: Base::Clustered,
        mix: Mix::PartitionFriendly,
        durable: true,
        lp_instances: 0,
    },
    Spec {
        name: "paper_solve",
        base: Base::TableOne,
        mix: Mix::Meetup,
        durable: false,
        lp_instances: 8,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Everything a run feeds the program, generated from the seed alone.
pub struct Inputs {
    /// The served base instance.
    pub instance: Instance,
    /// The trace, in apply order.
    pub deltas: Vec<InstanceDelta>,
    /// The reader connection's queries, in send order.
    pub reads: Vec<EngineQuery>,
    /// Instances solved by LP packing (`Spec::lp_instances` of them).
    pub lp_instances: Vec<Instance>,
}

/// Generator seed of every workload's served base instance. The base (the
/// user base and the catalogue a run starts from) is the same for every
/// run; `--seed` draws the traffic — the trace and the reads — and, on
/// `paper_solve`, the instances the LP solves.
pub const BASE_SEED: u64 = 1;

/// Table-I instances the serving workloads solve with `LpPacking` for
/// `solve_p50_ms` (one per segment). Unlike `paper_solve`'s own instances
/// they do not depend on `--seed`: they are not part of the served
/// traffic, and fixed instances keep instance difficulty out of the
/// metric's spread.
pub const SERVING_LP_INSTANCES: usize = 4;

/// Seed of the `i`-th LP instance of a run.
pub fn lp_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// The `i`-th Table-I instance of a run.
pub fn lp_instance(seed: u64, i: usize) -> Instance {
    generate_synthetic(&SyntheticConfig::paper_default(), lp_seed(seed, i))
}

/// Generates a run's inputs. `num_deltas` fixes the trace length and so
/// the working set; `num_reads` the reader's query stream.
pub fn generate(
    spec: &Spec,
    seed: u64,
    num_deltas: usize,
    num_reads: usize,
    tracer: &mut Tracer,
) -> Inputs {
    let (instance, communities, lp_instances) =
        tracer.span("datagen.instance", 0, || match spec.base {
            Base::Clustered => {
                let d = generate_clustered_dataset(&ClusteredConfig::default(), BASE_SEED);
                (d.instance, d.event_communities, Vec::new())
            }
            Base::TableOne => {
                let config = SyntheticConfig::paper_default();
                let lp = (0..spec.lp_instances)
                    .map(|i| generate_synthetic(&config, lp_seed(seed, i)))
                    .collect();
                (generate_synthetic(&config, BASE_SEED), Vec::new(), lp)
            }
        });
    let deltas: Vec<InstanceDelta> = tracer.span("datagen.trace", 0, || {
        let trace = match spec.mix {
            Mix::PartitionFriendly => generate_community_trace(
                &instance,
                &communities,
                &CommunityTraceConfig::partition_friendly(num_deltas, SHARDS),
                seed + 1,
            ),
            Mix::AnnouncementHeavy => generate_community_trace(
                &instance,
                &communities,
                &CommunityTraceConfig::announcement_heavy(num_deltas, SHARDS),
                seed + 1,
            ),
            Mix::Meetup => generate_trace(
                &instance,
                &TraceConfig {
                    num_deltas,
                    ..TraceConfig::default()
                },
                seed + 1,
            ),
        };
        trace.deltas.into_iter().map(|t| t.delta).collect()
    });
    let reads = read_stream(&instance, num_reads, seed ^ 0x5eed_4ead);
    Inputs {
        instance,
        deltas,
        reads,
        lp_instances,
    }
}

/// splitmix64: a tiny seeded generator for the read stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cache-served reads over base users and events, which exist for the
/// whole run (removed users stay as empty husks): 45% `AssignmentsOf`,
/// 45% `EventLoad`, 10% `Utility`.
fn read_stream(instance: &Instance, n: usize, seed: u64) -> Vec<EngineQuery> {
    let mut state = seed;
    let users = instance.num_users() as u64;
    let events = instance.num_events() as u64;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut state);
            match r % 20 {
                0..=8 => EngineQuery::AssignmentsOf {
                    user: UserId::new(((r >> 8) % users) as usize),
                },
                9..=17 => EngineQuery::EventLoad {
                    event: EventId::new(((r >> 8) % events) as usize),
                },
                _ => EngineQuery::Utility,
            }
        })
        .collect()
}

/// Whether a delta is event-scoped (a catalogue publish plus a broadcast
/// to every shard) rather than routed to one user's shard.
pub fn is_event_scoped(delta: &InstanceDelta) -> bool {
    matches!(
        delta,
        InstanceDelta::AddEvent { .. }
            | InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(_),
                ..
            }
    )
}

/// FNV-1a over the generated inputs, printed so that two runs with one
/// seed provably saw the same inputs.
pub fn input_hash(inputs: &Inputs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: &str| {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for instance in std::iter::once(&inputs.instance).chain(&inputs.lp_instances) {
        eat(&instance_to_json(instance));
    }
    for delta in &inputs.deltas {
        eat(&encode_request(&EngineRequest::Apply {
            delta: delta.clone(),
        }));
    }
    for query in &inputs.reads {
        eat(&encode_request(&EngineRequest::Query { query: *query }));
    }
    h
}

/// Engine-solve seed of a run.
pub fn engine_seed(seed: u64) -> u64 {
    seed.wrapping_add(17)
}

/// Builds the served engine: 4 shards with locality partitioning,
/// time-window σ for announced events, greedy repair, staleness checks
/// every 128 deltas and reconciliation every 64 (the serving CLI's knobs).
/// The constructor runs the initial greedy solve.
pub fn build_engine(instance: Instance, seed: u64) -> ShardedEngine {
    let partitioner = LocalityPartitioner::from_instance(&instance, SHARDS);
    ShardedEngine::new(
        instance,
        Box::new(TimeOverlapConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(partitioner),
        ShardedConfig {
            num_shards: SHARDS,
            shard: EngineConfig {
                seed: engine_seed(seed),
                staleness_check_interval: 128,
                max_staleness: 0.05,
                ..EngineConfig::default()
            },
            reconcile_interval: 64,
            reconcile_rounds: 3,
        },
    )
}

/// Restores a checkpointed engine with the same functions and a
/// partitioner rebuilt from the base instance.
pub fn restore_engine(
    state: &igepa_engine::EngineSnapshotState,
    base: &Instance,
) -> Result<ShardedEngine, String> {
    ShardedEngine::restore_state(
        state,
        Box::new(TimeOverlapConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(LocalityPartitioner::from_instance(base, SHARDS)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs_and_another_seed_does_not() {
        for spec in WORKLOADS.iter().filter(|s| s.base == Base::Clustered) {
            let mut off = Tracer::new(false);
            let a = generate(spec, 7, 300, 200, &mut off);
            let b = generate(spec, 7, 300, 200, &mut off);
            let c = generate(spec, 8, 300, 200, &mut off);
            assert_eq!(a.deltas, b.deltas, "{}", spec.name);
            assert_eq!(a.reads, b.reads);
            assert_eq!(input_hash(&a), input_hash(&b));
            assert_ne!(input_hash(&a), input_hash(&c));
        }
    }

    #[test]
    fn every_workload_name_resolves() {
        for s in WORKLOADS {
            assert_eq!(spec(s.name), Some(s));
        }
        assert_eq!(spec("nope"), None);
    }

    #[test]
    fn event_scope_follows_the_delta_target() {
        let event = InstanceDelta::UpdateCapacity {
            target: CapacityTarget::Event(EventId::new(0)),
            capacity: 3,
        };
        let user = InstanceDelta::UpdateCapacity {
            target: CapacityTarget::User(UserId::new(0)),
            capacity: 3,
        };
        assert!(is_event_scoped(&event));
        assert!(!is_event_scoped(&user));
    }
}
