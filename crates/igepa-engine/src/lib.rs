//! # igepa-engine — incremental arrangement serving
//!
//! Every solver in `igepa-algos` is batch: freeze an
//! [`Instance`](igepa_core::Instance), produce an
//! [`Arrangement`](igepa_core::Arrangement). Real event-based social
//! networks are not batch — users register, events are announced,
//! capacities change, bid sets churn. This crate turns the reproduction
//! into a *serving* system: a long-lived in-memory instance that absorbs a
//! stream of [`InstanceDelta`](igepa_core::InstanceDelta)s and keeps a
//! feasible, near-optimal arrangement available at all times.
//!
//! ## The delta / repair model
//!
//! 1. **Deltas** ([`igepa_core::delta`]) mutate the instance in place with
//!    full validation. The conflict matrix and interest table are patched
//!    incrementally — σ is evaluated only for new event pairs, `SI` only
//!    for new bid pairs — never rebuilt.
//! 2. **Dirty tracking**: each applied delta reports the users and events
//!    whose constraints or candidate sets changed; the engine folds them
//!    into a [`igepa_core::DirtySet`].
//! 3. **Warm-start repair** ([`Engine::apply`]): for small dirty sets the
//!    engine runs a *greedy patch* — prune assignments made infeasible,
//!    evict overflow at dirty events, then greedily re-admit the heaviest
//!    feasible candidate pairs touching the dirty set. When the dirty set
//!    exceeds [`EngineConfig::escalation_fraction`] of the user base, it
//!    escalates to a full re-solve through the [`igepa_algos::WarmStart`]
//!    trait (seeded by the previous arrangement).
//! 4. **Staleness control**: greedy patching drifts away from what a cold
//!    solve would produce. Every
//!    [`EngineConfig::staleness_check_interval`] deltas the engine runs a
//!    cold solve on the current instance and adopts it when the served
//!    utility has drifted below `1 − max_staleness` of it. Utility drift
//!    is therefore *bounded by configuration*, and the cold solve doubles
//!    as the drift measurement.
//!
//! The engine is fully deterministic: solver invocations draw seeds from a
//! counter, so replaying the same request log from the same initial state
//! reproduces every intermediate arrangement bit-for-bit.
//!
//! ## O(1) utility tracking
//!
//! Scoring never touches the apply hot path. Each shard maintains a
//! [`igepa_core::UtilityTracker`]: every assign/unassign of the served
//! arrangement (greedy patch, eviction, quota repair) updates the
//! Definition-7 `interest_sum`/`interaction_sum` incrementally, instance-
//! side score changes are folded in via the
//! [`DeltaEffect`](igepa_core::DeltaEffect) notifications, and wholesale
//! arrangement replacements (cold/warm solves) rebuild the tracker inside
//! the already-O(instance) solve. [`Shard::utility`], apply outcomes and
//! the transport's query cache therefore read the breakdown in O(1).
//! Determinism survives because both the tracker and the from-scratch
//! [`Arrangement::utility`](igepa_core::Arrangement::utility) sum through
//! [`igepa_core::ExactSum`] — the correctly rounded *exact* sum, which is
//! order- and history-independent — so the incremental value is
//! bit-identical to a recompute (the shard `debug_assert`s exactly that
//! after every repair). The arrangement's reverse attendee index makes
//! `users_of` an O(1) slice borrow, which also removed the
//! `dirty.events × |U|` term from the greedy patch and from
//! [`BatchPolicy::cost_model`]'s unit basis.
//!
//! ## The O(changed) apply path
//!
//! Two choices keep per-apply work proportional to what the apply
//! *changed*, not to the size of the shard:
//!
//! * **Diff-shipped cache views.** The transport's query cache used to
//!   be refreshed by an O(shard pairs) `clone_from` of the arrangement
//!   on every apply completion. Repair already knows exactly which
//!   pairs it touched, so each worker now records them in an
//!   [`ArrangementDiff`](igepa_core::ArrangementDiff) and ships a
//!   compact *view delta* — the net pair edits plus O(1) replacement
//!   metadata — that the cache replays onto its installed snapshot in
//!   place. Deltas are chained by epoch; whenever the worker cannot
//!   vouch for the chain (first apply after a barrier resume, full
//!   re-solves, batch solves) it falls back to shipping a full
//!   snapshot, so the installed view is bit-identical to a fresh clone
//!   either way. `BENCH_engine.json`'s `view_diff/*` rows pin the win:
//!   diff installs are two orders of magnitude cheaper than
//!   `clone_from` at 100k users.
//!
//! * **Serial intra-shard repair.** Repair within a shard is one serial
//!   `patch_region` pass over the dirty set; parallelism comes from the
//!   per-shard workers. A component-parallel split inside the shard
//!   measured 0.72–0.99× of serial speed, so it was removed.
//!
//! The last solver-side gap is closed in `igepa-lp`: the exact simplex
//! backend accepts a crash *basis* from a previous solve
//! (`SimplexSolver::solve_warm`), so escalated re-solves pay only the
//! pivots the change requires — see that crate's docs.
//!
//! ## Sharded serving
//!
//! One repair loop caps how many users a process can serve. The crate
//! therefore splits into three layers:
//!
//! * [`Shard`] ([`shard`]) — the reusable solve/repair core over one
//!   slice of the users (all events, quota'd capacities);
//! * [`Engine`] ([`engine`]) — the monolithic façade: exactly one shard
//!   over the full instance, original API and behaviour;
//! * [`ShardedEngine`] ([`coordinator`]) — N shards behind a routing
//!   coordinator. Users are placed by a pluggable
//!   [`Partitioner`](igepa_core::Partitioner); each event's capacity is
//!   split into per-shard *quotas* that always sum to the true capacity,
//!   which makes the merged arrangement feasible by construction. The
//!   bounded quota-exchange protocol of [`reconcile`] moves slack quota
//!   toward unmet demand at boundary events. `num_shards == 1`
//!   reproduces the monolithic engine's responses bit for bit.
//!
//! ## The shared event catalogue
//!
//! User-side state partitions across shards; event-side state (the event
//! list, true capacities, and the O(|V|²) conflict matrix) must be
//! visible everywhere. The [`EventCatalog`] ([`catalog`]) keeps it
//! **once**: immutable, epoch-versioned [`CatalogSnapshot`]s whose
//! conflict matrix every shard and the coordinator mirror share by
//! `Arc` handle — resident conflict memory is O(|V|²) regardless of
//! shard count. An `AddEvent` broadcast is one coordinator-side publish
//! (σ evaluated exactly once, into a double-buffered copy-on-write
//! matrix) plus an epoch bump each shard absorbs in O(1) by adopting the
//! new snapshot ([`Shard::apply_announcement`]); event-capacity edits
//! republish only a flat capacity vector. Stragglers still holding an
//! old epoch cost one transient matrix copy, never correctness.
//!
//! ## Requests as data
//!
//! [`EngineRequest`] / [`EngineResponse`] form a serde-backed JSON-lines
//! protocol ([`protocol`]); [`replay`] drives an engine from a recorded
//! request log and reports per-delta latency plus the utility achieved.
//! Traces are reproducible artifacts: `igepa-datagen`'s `trace` module
//! generates Meetup-style arrival-process workloads to feed it.
//!
//! ## Service layer and TCP transport
//!
//! Protocol *semantics* live in one place: [`EngineService`] interprets
//! requests against anything implementing [`EngineBackend`] (both engines
//! do), so the monolithic and sharded paths can never drift. On the wire,
//! requests travel as versioned [`RequestEnvelope`]s and come back as
//! [`ResponseEnvelope`]s whose `result` carries a typed [`EngineError`]
//! on failure — while bare pre-envelope request lines still decode (and
//! replay bit for bit) through the legacy dialect.
//!
//! [`transport`] puts the envelopes on TCP: line- or length-prefix-framed
//! JSONL, a blocking [`EngineClient`] (which also *pipelines*: send-ahead
//! with correlation-id matching on receipt, removing the RTT-per-request
//! floor), and one server, [`EngineServer::serve_sharded`] (plus its
//! durable and fault-injected flavours), which runs one worker thread per
//! shard — user-scoped deltas are validated on the coordinator and
//! repaired concurrently on the owning shard's worker; broadcasts,
//! batches and `Rebalance` barrier. Every server path computes the strict
//! typed result; the connection thread projects it into the legacy
//! dialect for bare pre-envelope requests, the one place the dialects
//! split.
//!
//! The **read path is barrier-free**: each worker reports an epoch-tagged
//! read-state view with every apply completion (shipped as an
//! O(changed) diff against the previous view whenever the epoch chain
//! is unbroken — see *The O(changed) apply path* above), and the
//! aggregate queries
//! (`Utility`, `Stats`, `ShardStats`) are answered from that cache in the
//! connection threads — they never enter the dispatch queue, let alone
//! stop the worker pool. The view for an apply is installed *before* its
//! ack is sent, so a client that has seen an ack can never read the
//! pre-apply epoch (and a synchronous client still observes exactly the
//! serial service's responses, bit for bit). Per-entity reads
//! (`AssignmentsOf`, `EventLoad`) come from the same cache, and even
//! `MergedSnapshot` is rebuilt connection-side — cached per-shard views
//! give the pairs, absorbing the per-shard utility trackers gives the
//! exact merged utility — whenever every owner-table row resolves
//! against its shard's view; the dispatch-queue barrier remains only as
//! the fallback for the brief window where a view lags the owner table.
//!
//! ## Durability and recovery
//!
//! The [`durability`] module family makes serving crash-safe without
//! giving up bit-for-bit determinism:
//!
//! * **Write-ahead log** ([`durability::wal`]) — every admitted mutating
//!   request (`Apply`, `ApplyBatch`, `Rebalance` — rejected ones
//!   included, since rejections replay deterministically too) is
//!   appended to a segmented, FNV-checksummed log *before* its
//!   acknowledgement. [`EngineServer::serve_sharded_durable`] wires a
//!   [`DurabilityController`] into the dispatcher; a failed append
//!   refuses the request — what is not logged must not execute.
//! * **Checkpoints** ([`durability::snapshot`]) — explicit `Checkpoint`
//!   requests and automatic every-N-records checkpoints serialize the
//!   full engine state ([`ShardedEngine::snapshot_state`]) at a dispatch
//!   barrier into versioned, checksummed snapshot files, then compact
//!   the WAL segments they cover. Version-1 payloads still load through
//!   the decode-and-migrate path.
//! * **Recovery** ([`recover`]) — newest valid snapshot
//!   ([`ShardedEngine::restore_state`], which *verifies* the rebuilt
//!   utility trackers bit for bit) plus WAL-tail replay reproduces the
//!   pre-crash merged arrangement and utility breakdown exactly. Torn
//!   WAL tails are truncated; partial snapshots are skipped for the
//!   previous valid one. The `DurabilityStats` query reports the live
//!   counters.
//!
//! The fsync policy ([`DurabilityPolicy`], `EngineConfig::durability`)
//! trades apply latency against the window of acknowledged requests a
//! host crash can lose (a *process* crash loses nothing — the OS page
//! cache survives it):
//!
//! | Policy | fsync cadence | Lost on host crash | Apply overhead |
//! |---|---|---|---|
//! | `Off` | never (OS flushes) | up to the whole OS write-back window | cheapest — frame encode + buffered write |
//! | `Interval { millis }` | at most once per interval | ≤ one interval of acks | near `Off` between syncs |
//! | `EveryN { n }` | every `n` records | ≤ `n − 1` acked requests | amortised sync cost |
//! | `Always` | every record | nothing | one fsync per mutating request |
//!
//! `BENCH_engine.json`'s `durability/apply/*` scenarios track the real
//! cost of each policy, and `durability/recover_tail/*` the recovery
//! time as the un-checkpointed tail grows.
//!
//! ## Overload and degradation
//!
//! Overload is a scenario, not an accident: the engine must *degrade*,
//! never collapse. Three mechanisms, all opt-in through configuration
//! and all preserving the pre-overload behaviour when unset:
//!
//! * **Bounded admission** ([`AdmissionPolicy`],
//!   `EngineConfig::admission`) — with a `Bounded { max_queue, .. }`
//!   policy, connection threads check-and-increment the shared queue
//!   depth *before* enqueueing a mutation; at the cap (or in read-only
//!   degraded mode) the mutation is refused immediately with
//!   [`EngineError::Overloaded`] — typed, instant, nothing enqueued.
//!   Cache-answered reads never touch admission, so reads keep flowing
//!   at full speed while mutations shed. The default
//!   [`AdmissionPolicy::Unbounded`] reproduces the pre-admission
//!   server exactly, and legacy configs without the field deserialize
//!   to it bit-identically.
//! * **Per-request deadlines** (`RequestEnvelope::deadline_ms`) — an
//!   optional millisecond budget counted from arrival at the server; a
//!   request whose budget expired while it queued is dropped at
//!   dequeue with [`EngineError::DeadlineExceeded`], before the WAL or
//!   any shard sees it. Envelopes without the field are byte-identical
//!   to the pre-deadline wire format.
//! * **Read-only degraded mode** — a WAL append failure refuses the
//!   failing request *and latches the server read-only*: every
//!   subsequent mutation sheds with `Overloaded` while cached reads
//!   keep answering. A log that failed once cannot vouch for the next
//!   append; only a restart over a repaired durability directory
//!   clears the latch.
//!
//! The [`OverloadStats`] query reports the live counters (depth,
//! high-water, shed, deadline-expired, read-only) straight from the
//! connection thread — observing overload neither queues nor barriers.
//! Client-side, [`EngineClient::call_with_retry`] and
//! [`EngineClient::query_resilient`] honor `retry_after_ms` with
//! deterministic seeded backoff ([`RetryPolicy`]), and resilient reads
//! reconnect-and-replay (reads are idempotent; mutations never replay).
//!
//! The full refusal taxonomy, by where it is decided:
//!
//! | Error | Decided | Meaning | State changed? | Retry? |
//! |---|---|---|---|---|
//! | [`EngineError::Overloaded`] | connection thread (admission) / dispatcher (read-only re-check) | queue at cap, or read-only degraded mode | no | yes, after `retry_after_ms` |
//! | [`EngineError::DeadlineExceeded`] | dispatcher, at dequeue | budget expired while queued | no | caller's choice (budget semantics) |
//! | [`EngineError::Rejected`] | validation / durability | invalid delta, or WAL/checkpoint failure | no | not without changing the request |
//! | [`EngineError::NotFound`] | query execution | unknown user/event | no | no |
//! | [`EngineError::Unsupported`] | version gate | unknown protocol dialect | no | no |
//! | [`EngineError::Malformed`] | decode | undecodable line | no | no |
//! | [`EngineError::Internal`] | dispatch | infrastructure failure | no | against a recovered server |
//!
//! Legacy (bare-line) clients receive the same refusals as
//! `Rejected { reason }` strings carrying the typed error's Display
//! text — a shed is *always* a response, never a silent drop.
//!
//! The [`faults`] module closes the loop: a seeded
//! [`FaultPlan`](faults::FaultPlan) injects slow shards, dropped worker
//! view shipments and WAL stalls/failures into
//! [`EngineServer::serve_sharded_faulted`], and the `overload` proptest
//! suite proves the invariants under any plan — every accepted request
//! gets exactly one typed response, the server neither panics nor
//! deadlocks, and the merged arrangement stays feasible.
//!
//! ## Elastic resharding
//!
//! [`EngineRequest::Reshard`]` { num_shards }` grows or shrinks the
//! shard set of a live server. Migration is **pure re-partitioning**:
//! every user is re-placed through the engine's
//! [`Partitioner`](igepa_core::Partitioner) at the new shard count and
//! moved — bid sub-state, interest columns, per-event quota share and
//! [`UtilityTracker`](igepa_core::UtilityTracker) contributions
//! together, pair for pair with exact-sum bits preserved — so served
//! utility is bit-identical across the move and the merged arrangement
//! stays feasible throughout (the new quota split floors at per-shard
//! load: zero evictions by construction). The answer is
//! [`EngineResponse::Resharded`] carrying a [`MigrationRecord`].
//!
//! On a durable server the migration is a transaction on the
//! durability seam, ordered against catalogue broadcasts by the WAL's
//! epoch tagging:
//!
//! 1. the dispatcher barriers (in-flight work drains; incoming
//!    requests *park* in the backlog rather than being refused);
//! 2. a pre-migration checkpoint is cut at S-1 — skipped when S-1 is
//!    already covered, because snapshots rewrite in place and tearing
//!    a redundant rewrite would clobber the valid file;
//! 3. the `Reshard` was already WAL-logged at S (before the ack, like
//!    every mutation), tagged with the catalogue epoch it executed
//!    under — so replay re-runs the migration at exactly the same
//!    point in the broadcast order;
//! 4. the owner table and quota vectors are rewritten, shard
//!    sub-instances extracted/absorbed, per-slot stats and migration
//!    counters carried over;
//! 5. a post-migration checkpoint is cut at S, the query cache's view
//!    vector is rebuilt and swapped in one write-lock hold (readers
//!    never observe a torn owner table), parked requests replay
//!    against the new owners, and the worker pool is resized.
//!
//! Crash recovery replays `Reshard` records like any other mutation,
//! so a kill on *either* side of the owner rewrite recovers bit-exact
//! (`tests/crash_recovery.rs` drives torn-record, torn-checkpoint and
//! both owner-rewrite kill points). The reconcile loop surfaces
//! skew-triggered migration proposals
//! ([`ShardedEngine::migration_proposal`]) which an operator executes
//! by pinning the moves in an
//! [`OverridePartitioner`](igepa_core::OverridePartitioner) and
//! resharding at the current count; proposals are never auto-executed.
//! `ShardStats` reports per-shard `moved_in`/`moved_out` counters, and
//! `BENCH_engine.json`'s `reshard/*` rows price the migration pause
//! and the per-user move cost.
//!
//! ### Client/server quickstart
//!
//! ```
//! use igepa_core::{AttributeVector, ConstantInterest, EventId, Instance,
//!                  HashPartitioner, InstanceDelta, NeverConflict};
//! use igepa_algos::GreedyArrangement;
//! use igepa_engine::{EngineClient, EngineQuery, EngineResponse, EngineServer,
//!                    Framing, ShardedConfig, ShardedEngine};
//! use std::net::TcpListener;
//!
//! // Server: a 2-shard engine behind per-shard workers on an ephemeral port.
//! let mut b = Instance::builder();
//! let v = b.add_event(4, AttributeVector::empty());
//! for _ in 0..3 { b.add_user(1, AttributeVector::empty(), vec![v]); }
//! b.interaction_scores(vec![0.5; 3]);
//! let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
//! let engine = ShardedEngine::new(
//!     instance,
//!     Box::new(NeverConflict),
//!     Box::new(ConstantInterest(0.5)),
//!     Box::new(GreedyArrangement),
//!     Box::new(HashPartitioner),
//!     ShardedConfig::with_shards(2),
//! );
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let server = EngineServer::serve_sharded(listener, engine, Framing::Lines).unwrap();
//!
//! // Client: blocking calls, versioned envelopes, typed errors.
//! let mut client = EngineClient::connect(server.local_addr(), Framing::Lines).unwrap();
//! let applied = client.apply(InstanceDelta::AddUser {
//!     capacity: 1,
//!     attrs: AttributeVector::empty(),
//!     bids: vec![EventId::new(0)],
//!     interaction: 0.9,
//! }).unwrap();
//! assert!(matches!(applied, EngineResponse::Applied { .. }));
//! assert!(matches!(
//!     client.query(EngineQuery::Utility).unwrap(),
//!     EngineResponse::Utility { .. }
//! ));
//!
//! // Clean shutdown hands the engine back for inspection.
//! drop(client);
//! let engine = server.shutdown().unwrap();
//! assert!(engine.merged_arrangement().is_feasible(engine.instance()));
//! ```
//!
//! ```
//! use igepa_core::{AttributeVector, EventId, InstanceDelta, Instance,
//!                  ConstantInterest, NeverConflict};
//! use igepa_engine::{Engine, EngineConfig};
//! use igepa_algos::GreedyArrangement;
//!
//! let mut b = Instance::builder();
//! let v = b.add_event(2, AttributeVector::empty());
//! b.add_user(1, AttributeVector::empty(), vec![v]);
//! b.interaction_scores(vec![0.4]);
//! let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
//!
//! let mut engine = Engine::new(
//!     instance,
//!     Box::new(NeverConflict),
//!     Box::new(ConstantInterest(0.5)),
//!     Box::new(GreedyArrangement),
//!     EngineConfig::default(),
//! );
//! let outcome = engine.apply(&InstanceDelta::AddUser {
//!     capacity: 1,
//!     attrs: AttributeVector::empty(),
//!     bids: vec![EventId::new(0)],
//!     interaction: 0.9,
//! }).unwrap();
//! assert!(engine.arrangement().is_feasible(engine.instance()));
//! assert!(outcome.utility > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod coordinator;
pub mod durability;
pub mod engine;
pub mod error;
pub mod faults;
pub mod protocol;
pub mod reconcile;
pub mod replay;
pub mod service;
pub mod shard;
pub mod transport;

pub use catalog::{CatalogSnapshot, EventCatalog};
pub use coordinator::{CoordinatorStats, ShardStatsEntry, ShardedConfig, ShardedEngine};
pub use durability::{
    recover, DurabilityController, EngineSnapshotState, Recovered, RecoveryError, RecoveryReport,
    WalRecord, STATE_VERSION,
};
pub use engine::{ApplyOutcome, Engine, EngineConfig, EngineStats, RepairKind};
pub use error::{EngineError, EntityRef, RejectReason};
pub use faults::{FaultCounts, FaultInjector, FaultPlan};
pub use protocol::{
    decode_request, decode_request_envelope, decode_response, decode_response_envelope,
    encode_request, encode_request_envelope, encode_response, encode_response_envelope,
    requests_from_jsonl, requests_to_jsonl, EngineQuery, EngineRequest, EngineResponse,
    MigrationRecord, OverloadStats, ProtocolError, RequestEnvelope, ResponseEnvelope,
    LEGACY_VERSION, PROTOCOL_VERSION,
};
pub use reconcile::ReconcileReport;
pub use replay::{replay, replay_jsonl, LatencySummary, ReplayOutcome, ReplayReport};
pub use service::{EngineBackend, EngineService};
pub use shard::{AdmissionPolicy, BatchPolicy, DurabilityPolicy, Shard, ShardOp};
pub use transport::{ClientError, EngineClient, EngineServer, Framing, RetryPolicy, ServerHandle};
