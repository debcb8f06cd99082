//! The service layer: protocol semantics defined once, over any backend.
//!
//! Before this module existed, [`Engine`](crate::Engine) and
//! [`ShardedEngine`](crate::ShardedEngine) each carried their own ~90-line
//! `handle`/`answer` implementation — two near-duplicate copies of the
//! protocol's meaning that had already begun to drift. The redesign moves
//! every semantic decision here:
//!
//! * [`EngineBackend`] is the complete surface a protocol implementation
//!   needs from a serving engine (apply, rebalance, and the read-side
//!   accessors). Both engines implement it; the monolithic one behaves as
//!   a single logical shard.
//! * [`EngineService`] interprets requests against a backend. Every
//!   request is answered in the **strict** dialect — a typed
//!   `Result<EngineResponse, EngineError>`, the shape
//!   [`RequestEnvelope`]s at [`PROTOCOL_VERSION`] receive. The **legacy**
//!   dialect of the pre-envelope protocol (stringly `Rejected`, silent
//!   `[]` / `(0, 0)` answers for unknown ids) is not a second code path
//!   but one projection of the strict result, `legacy_response`, applied
//!   at the response edge: by [`handle_request`] in process and by the
//!   TCP server's connection threads for [`LEGACY_VERSION`] envelopes.
//!
//! A recorded pre-envelope JSONL log therefore replays through
//! [`EngineService`] with byte-identical responses, while new clients get
//! a versioned, typed API on the same code path.

use crate::coordinator::{ShardStatsEntry, ShardedEngine};
use crate::engine::Engine;
use crate::error::{EngineError, EntityRef};
use crate::protocol::{
    EngineQuery, EngineRequest, EngineResponse, MigrationRecord, RequestEnvelope, ResponseEnvelope,
    LEGACY_VERSION, PROTOCOL_VERSION,
};
use crate::reconcile::ReconcileReport;
use crate::shard::{ApplyOutcome, EngineStats};
use igepa_core::{CoreError, EventId, InstanceDelta, UserId, UtilityBreakdown};

/// Everything the protocol needs from a serving engine. The replay driver
/// and the TCP transport are generic over this trait, so one service
/// implementation covers monolithic and sharded serving.
pub trait EngineBackend {
    /// Applies one delta and repairs the served arrangement.
    fn apply(&mut self, delta: &InstanceDelta) -> Result<ApplyOutcome, CoreError>;

    /// Applies a burst of deltas with one repair pass per touched shard.
    fn apply_batch(&mut self, deltas: &[InstanceDelta]) -> Result<ApplyOutcome, CoreError>;

    /// Runs a reconciliation pass and reports it plus the utility after
    /// the pass (a no-op report on a monolithic engine).
    fn rebalance(&mut self) -> (ReconcileReport, f64);

    /// Re-places every user across `num_shards` shards (see
    /// [`ShardedEngine::reshard`]). A monolithic engine serves exactly one
    /// logical shard: resharding *to* one is a no-op, any other target is
    /// rejected. Errors are human-readable rejection details.
    fn reshard(&mut self, num_shards: usize) -> Result<MigrationRecord, String>;

    /// Utility breakdown of the served (merged) arrangement.
    fn utility_breakdown(&self) -> UtilityBreakdown;

    /// Users in the served instance (including retired ones).
    fn num_users(&self) -> usize;

    /// Events in the served instance.
    fn num_events(&self) -> usize;

    /// Events currently assigned to a user. Callers have already
    /// bounds-checked `user`; the service layer decides how out-of-range
    /// ids are reported.
    fn assignments_of(&self, user: UserId) -> Vec<EventId>;

    /// `(load, capacity)` of an in-range event.
    fn event_load(&self, event: EventId) -> (usize, usize);

    /// Aggregated activity counters.
    fn engine_stats(&self) -> EngineStats;

    /// Per-shard summaries (one entry on a monolithic engine).
    fn shard_stats(&self) -> Vec<ShardStatsEntry>;

    /// `(num_events, num_users, utility, pairs)` of the merged snapshot.
    fn merged_snapshot(&self) -> (usize, usize, f64, Vec<(EventId, UserId)>);

    /// Utility currently served (merged across shards where applicable).
    fn served_utility(&self) -> f64;

    /// Pairs currently served (merged across shards where applicable).
    fn served_pairs(&self) -> usize;

    /// Current epoch of the shared event catalogue (0 on backends without
    /// one). WAL records carry it so a replayed log can be audited against
    /// the catalogue history it was recorded under.
    fn catalog_epoch(&self) -> u64 {
        0
    }

    /// Handles one protocol request with legacy semantics. Defined once,
    /// here, for every backend.
    fn handle(&mut self, request: &EngineRequest) -> EngineResponse
    where
        Self: Sized,
    {
        handle_request(self, request)
    }
}

/// Builds the `Applied` response from an apply outcome (shared by the
/// service dispatch and the per-shard worker transport).
pub(crate) fn applied_response(outcome: ApplyOutcome) -> EngineResponse {
    EngineResponse::Applied {
        kind: outcome.kind,
        repair: outcome.repair,
        utility: outcome.utility,
        num_pairs: outcome.num_pairs,
    }
}

/// The single protocol interpretation, in the strict dialect: failures
/// are typed, and out-of-range query ids are [`EngineError::NotFound`].
pub(crate) fn try_dispatch<B: EngineBackend>(
    backend: &mut B,
    request: &EngineRequest,
) -> Result<EngineResponse, EngineError> {
    match request {
        EngineRequest::Apply { delta } => backend
            .apply(delta)
            .map(applied_response)
            .map_err(|e| EngineError::from(&e)),
        EngineRequest::ApplyBatch { deltas } => backend
            .apply_batch(deltas)
            .map(applied_response)
            .map_err(|e| EngineError::from(&e)),
        EngineRequest::Rebalance => {
            let (report, utility) = backend.rebalance();
            Ok(EngineResponse::Rebalanced { report, utility })
        }
        // Checkpoints are an admin action on the durability layer; the
        // durable TCP server intercepts them before dispatch. A backend
        // reached directly has no WAL to checkpoint.
        EngineRequest::Checkpoint => Err(EngineError::Rejected {
            reason: crate::error::RejectReason::Invalid {
                detail: "durability not enabled on this server".to_string(),
            },
        }),
        // The TCP server wraps this arm in its migration seam (barrier,
        // pre/post checkpoints, worker-pool resize); dispatched directly it
        // is the bare engine-side migration, which is what WAL replay needs
        // to re-perform the identical re-placement.
        EngineRequest::Reshard { num_shards } => backend
            .reshard(*num_shards)
            .map(|record| {
                let utility = backend.served_utility();
                EngineResponse::Resharded { record, utility }
            })
            .map_err(|detail| EngineError::Rejected {
                reason: crate::error::RejectReason::Invalid { detail },
            }),
        EngineRequest::Query { query } => answer(backend, *query),
    }
}

fn answer<B: EngineBackend>(
    backend: &B,
    query: EngineQuery,
) -> Result<EngineResponse, EngineError> {
    match query {
        EngineQuery::Utility => {
            let breakdown = backend.utility_breakdown();
            Ok(EngineResponse::Utility {
                total: breakdown.total,
                interest_sum: breakdown.interest_sum,
                interaction_sum: breakdown.interaction_sum,
            })
        }
        EngineQuery::AssignmentsOf { user } => {
            if user.index() >= backend.num_users() {
                return Err(EngineError::NotFound {
                    entity: EntityRef::User { user },
                });
            }
            Ok(EngineResponse::Assignments {
                user,
                events: backend.assignments_of(user),
            })
        }
        EngineQuery::EventLoad { event } => {
            if event.index() >= backend.num_events() {
                return Err(EngineError::NotFound {
                    entity: EntityRef::Event { event },
                });
            }
            let (load, capacity) = backend.event_load(event);
            Ok(EngineResponse::EventLoad {
                event,
                load,
                capacity,
            })
        }
        EngineQuery::Stats => Ok(EngineResponse::Stats {
            stats: backend.engine_stats(),
        }),
        EngineQuery::ShardStats => Ok(EngineResponse::ShardStats {
            shards: backend.shard_stats(),
        }),
        EngineQuery::MergedSnapshot => {
            let (num_events, num_users, utility, pairs) = backend.merged_snapshot();
            Ok(EngineResponse::Snapshot {
                num_events,
                num_users,
                utility,
                pairs,
            })
        }
        // The durable TCP server answers this at its dispatcher with live
        // counters; a backend reached directly reports durability off.
        EngineQuery::DurabilityStats => Ok(EngineResponse::DurabilityStats {
            enabled: false,
            policy: "off".to_string(),
            wal_records: 0,
            wal_bytes: 0,
            fsyncs: 0,
            segments: 0,
            checkpoints: 0,
            last_checkpoint_seq: 0,
        }),
        // The TCP server answers this at its connection threads with live
        // counters; a backend reached directly has no dispatch queue.
        EngineQuery::OverloadStats => Ok(EngineResponse::OverloadStats {
            stats: crate::protocol::OverloadStats {
                policy: "unbounded".to_string(),
                queue_depth: 0,
                high_water: 0,
                shed: 0,
                deadline_expired: 0,
                read_only: false,
            },
        }),
    }
}

/// The legacy (pre-envelope) dialect as a projection of a strict result —
/// the one place the two dialects differ. A typed rejection becomes the
/// stringly `Rejected` response, an out-of-range lookup the silent
/// `[]` / `(0, 0)` answer, and any other error its display text in a
/// `Rejected`.
pub(crate) fn legacy_response(result: Result<EngineResponse, EngineError>) -> EngineResponse {
    match result {
        Ok(response) => response,
        Err(EngineError::Rejected { reason }) => EngineResponse::Rejected {
            reason: reason.to_string(),
        },
        Err(EngineError::NotFound {
            entity: EntityRef::User { user },
        }) => EngineResponse::Assignments {
            user,
            events: Vec::new(),
        },
        Err(EngineError::NotFound {
            entity: EntityRef::Event { event },
        }) => EngineResponse::EventLoad {
            event,
            load: 0,
            capacity: 0,
        },
        Err(other) => EngineResponse::Rejected {
            reason: other.to_string(),
        },
    }
}

/// Handles one request with legacy (pre-envelope) semantics: rejections
/// come back as the stringly `Rejected` response and out-of-range query
/// ids answer silently. This is the path replayed request logs take.
pub fn handle_request<B: EngineBackend>(
    backend: &mut B,
    request: &EngineRequest,
) -> EngineResponse {
    legacy_response(try_dispatch(backend, request))
}

/// The engine service: one backend plus the protocol interpretation.
///
/// ```
/// use igepa_core::{AttributeVector, ConstantInterest, Instance, NeverConflict};
/// use igepa_algos::GreedyArrangement;
/// use igepa_engine::{Engine, EngineConfig, EngineQuery, EngineRequest, EngineService};
///
/// let mut b = Instance::builder();
/// let v = b.add_event(2, AttributeVector::empty());
/// b.add_user(1, AttributeVector::empty(), vec![v]);
/// b.interaction_scores(vec![0.4]);
/// let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
/// let engine = Engine::new(
///     instance,
///     Box::new(NeverConflict),
///     Box::new(ConstantInterest(0.5)),
///     Box::new(GreedyArrangement),
///     EngineConfig::default(),
/// );
///
/// let mut service = EngineService::new(engine);
/// let response = service.handle(&EngineRequest::Query {
///     query: EngineQuery::Utility,
/// });
/// assert!(matches!(response, igepa_engine::EngineResponse::Utility { .. }));
/// ```
pub struct EngineService<B: EngineBackend> {
    backend: B,
}

impl<B: EngineBackend> EngineService<B> {
    /// Wraps a backend.
    pub fn new(backend: B) -> Self {
        EngineService { backend }
    }

    /// The wrapped backend, read-only.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutable (for direct engine access between
    /// requests).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Unwraps the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Handles one request with legacy semantics (see [`handle_request`]).
    pub fn handle(&mut self, request: &EngineRequest) -> EngineResponse {
        handle_request(&mut self.backend, request)
    }

    /// Handles one request with strict semantics: typed errors, and
    /// `NotFound` for out-of-range query ids.
    pub fn try_handle(&mut self, request: &EngineRequest) -> Result<EngineResponse, EngineError> {
        try_dispatch(&mut self.backend, request)
    }

    /// Handles one enveloped request. The envelope's version selects the
    /// dialect: [`PROTOCOL_VERSION`] is strict, [`LEGACY_VERSION`] (the
    /// version assigned to bare pre-envelope requests by the decoder)
    /// keeps legacy semantics, and anything else is
    /// [`EngineError::Unsupported`].
    pub fn handle_envelope(&mut self, envelope: &RequestEnvelope) -> ResponseEnvelope {
        let result = match envelope.version {
            PROTOCOL_VERSION => self.try_handle(&envelope.body),
            LEGACY_VERSION => Ok(self.handle(&envelope.body)),
            version => Err(EngineError::Unsupported { version }),
        };
        ResponseEnvelope {
            id: envelope.id,
            result,
        }
    }
}

// ------------------------------------------------------- backend impls

impl EngineBackend for Engine {
    fn apply(&mut self, delta: &InstanceDelta) -> Result<ApplyOutcome, CoreError> {
        Engine::apply(self, delta)
    }

    fn apply_batch(&mut self, deltas: &[InstanceDelta]) -> Result<ApplyOutcome, CoreError> {
        Engine::apply_batch(self, deltas)
    }

    fn rebalance(&mut self) -> (ReconcileReport, f64) {
        // A monolithic engine has no shard boundary to reconcile.
        (ReconcileReport::default(), self.utility())
    }

    fn reshard(&mut self, num_shards: usize) -> Result<MigrationRecord, String> {
        if num_shards == 1 {
            // Already the requested shape: a vacuous migration.
            return Ok(MigrationRecord {
                from_shards: 1,
                to_shards: 1,
                moved_users: 0,
                quota_moved: 0,
                catalog_epoch: 0,
            });
        }
        Err(format!(
            "a monolithic engine serves one logical shard; cannot reshard to {num_shards}"
        ))
    }

    fn utility_breakdown(&self) -> UtilityBreakdown {
        // O(1): the engine's incrementally tracked breakdown (bit-identical
        // to a from-scratch recompute over the served arrangement).
        Engine::utility_breakdown(self)
    }

    fn num_users(&self) -> usize {
        self.instance().num_users()
    }

    fn num_events(&self) -> usize {
        self.instance().num_events()
    }

    fn assignments_of(&self, user: UserId) -> Vec<EventId> {
        self.arrangement().events_of(user).to_vec()
    }

    fn event_load(&self, event: EventId) -> (usize, usize) {
        (
            self.arrangement().load_of(event),
            self.instance().event(event).capacity,
        )
    }

    fn engine_stats(&self) -> EngineStats {
        *self.stats()
    }

    fn shard_stats(&self) -> Vec<ShardStatsEntry> {
        vec![ShardStatsEntry {
            shard: 0,
            users: self.instance().num_users(),
            pairs: self.arrangement().len(),
            utility: self.utility(),
            stats: *self.stats(),
            moved_in: 0,
            moved_out: 0,
        }]
    }

    fn merged_snapshot(&self) -> (usize, usize, f64, Vec<(EventId, UserId)>) {
        (
            self.instance().num_events(),
            self.instance().num_users(),
            self.utility(),
            self.arrangement().pairs().collect(),
        )
    }

    fn served_utility(&self) -> f64 {
        self.utility()
    }

    fn served_pairs(&self) -> usize {
        self.arrangement().len()
    }
}

impl EngineBackend for ShardedEngine {
    fn apply(&mut self, delta: &InstanceDelta) -> Result<ApplyOutcome, CoreError> {
        ShardedEngine::apply(self, delta)
    }

    fn apply_batch(&mut self, deltas: &[InstanceDelta]) -> Result<ApplyOutcome, CoreError> {
        ShardedEngine::apply_batch(self, deltas)
    }

    fn rebalance(&mut self) -> (ReconcileReport, f64) {
        let report = ShardedEngine::rebalance(self);
        let utility = self.merged_utility().total;
        (report, utility)
    }

    fn reshard(&mut self, num_shards: usize) -> Result<MigrationRecord, String> {
        ShardedEngine::reshard(self, num_shards)
    }

    fn utility_breakdown(&self) -> UtilityBreakdown {
        self.merged_utility()
    }

    fn num_users(&self) -> usize {
        self.instance().num_users()
    }

    fn num_events(&self) -> usize {
        self.instance().num_events()
    }

    fn assignments_of(&self, user: UserId) -> Vec<EventId> {
        ShardedEngine::assignments_of(self, user)
    }

    fn event_load(&self, event: EventId) -> (usize, usize) {
        (
            (0..self.num_shards())
                .map(|k| self.shard(k).load_of(event))
                .sum(),
            self.instance().event(event).capacity,
        )
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }

    fn shard_stats(&self) -> Vec<ShardStatsEntry> {
        self.shard_stats_entries()
    }

    fn merged_snapshot(&self) -> (usize, usize, f64, Vec<(EventId, UserId)>) {
        let merged = self.merged_arrangement();
        (
            self.instance().num_events(),
            self.instance().num_users(),
            merged.utility_value(self.instance()),
            merged.pairs().collect(),
        )
    }

    fn served_utility(&self) -> f64 {
        self.utility()
    }

    fn served_pairs(&self) -> usize {
        self.num_pairs()
    }

    fn catalog_epoch(&self) -> u64 {
        self.catalog().epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::error::RejectReason;
    use igepa_algos::GreedyArrangement;
    use igepa_core::{AttributeVector, ConstantInterest, Instance, NeverConflict};

    fn service_for(num_events: usize, num_users: usize) -> EngineService<Engine> {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..num_events)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..num_users {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores(vec![0.5; num_users]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        EngineService::new(Engine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            EngineConfig::default(),
        ))
    }

    #[test]
    fn legacy_out_of_range_queries_answer_silently() {
        let mut service = service_for(2, 2);
        let assignments = service.handle(&EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(99),
            },
        });
        assert_eq!(
            assignments,
            EngineResponse::Assignments {
                user: UserId::new(99),
                events: Vec::new(),
            }
        );
        let load = service.handle(&EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(99),
            },
        });
        assert_eq!(
            load,
            EngineResponse::EventLoad {
                event: EventId::new(99),
                load: 0,
                capacity: 0,
            }
        );
    }

    #[test]
    fn strict_out_of_range_queries_are_not_found() {
        let mut service = service_for(2, 2);
        let err = service
            .try_handle(&EngineRequest::Query {
                query: EngineQuery::AssignmentsOf {
                    user: UserId::new(99),
                },
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NotFound {
                entity: EntityRef::User {
                    user: UserId::new(99),
                },
            }
        );
        let err = service
            .try_handle(&EngineRequest::Query {
                query: EngineQuery::EventLoad {
                    event: EventId::new(99),
                },
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NotFound {
                entity: EntityRef::Event {
                    event: EventId::new(99),
                },
            }
        );
    }

    #[test]
    fn strict_rejections_are_typed() {
        let mut service = service_for(2, 2);
        let err = service
            .try_handle(&EngineRequest::Apply {
                delta: igepa_core::InstanceDelta::UpdateInteractionScore {
                    user: UserId::new(9),
                    score: 0.5,
                },
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Rejected {
                reason: RejectReason::UnknownUser {
                    user: UserId::new(9),
                },
            }
        );
    }

    #[test]
    fn envelope_version_gates_the_dialect() {
        let mut service = service_for(2, 2);
        let query = EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(99),
            },
        };
        // Strict version: NotFound.
        let strict =
            service.handle_envelope(&RequestEnvelope::new(1, PROTOCOL_VERSION, query.clone()));
        assert_eq!(strict.id, 1);
        assert!(matches!(strict.result, Err(EngineError::NotFound { .. })));
        // Legacy version: silent empty answer.
        let legacy =
            service.handle_envelope(&RequestEnvelope::new(2, LEGACY_VERSION, query.clone()));
        assert!(matches!(
            legacy.result,
            Ok(EngineResponse::Assignments { ref events, .. }) if events.is_empty()
        ));
        // Future version: unsupported.
        let future = service.handle_envelope(&RequestEnvelope::new(3, 42, query));
        assert_eq!(future.result, Err(EngineError::Unsupported { version: 42 }));
    }

    /// Pins the legacy projection for every error kind the server can
    /// produce for a legacy request, against the exact responses the
    /// legacy dialect has always carried.
    #[test]
    fn legacy_projection_table() {
        let rejected = |reason: &str| EngineResponse::Rejected {
            reason: reason.to_string(),
        };
        let cases = vec![
            (
                EngineError::Rejected {
                    reason: RejectReason::UnknownUser {
                        user: UserId::new(9),
                    },
                },
                rejected("user u9 does not exist in the instance"),
            ),
            (
                EngineError::Rejected {
                    reason: RejectReason::Invalid {
                        detail:
                            "write-ahead log append failed: disk full; serving is now read-only"
                                .to_string(),
                    },
                },
                rejected("write-ahead log append failed: disk full; serving is now read-only"),
            ),
            (
                EngineError::NotFound {
                    entity: EntityRef::User {
                        user: UserId::new(99),
                    },
                },
                EngineResponse::Assignments {
                    user: UserId::new(99),
                    events: Vec::new(),
                },
            ),
            (
                EngineError::NotFound {
                    entity: EntityRef::Event {
                        event: EventId::new(99),
                    },
                },
                EngineResponse::EventLoad {
                    event: EventId::new(99),
                    load: 0,
                    capacity: 0,
                },
            ),
            (
                EngineError::Internal {
                    detail: "shard 2 worker is gone".to_string(),
                },
                rejected("internal error: shard 2 worker is gone"),
            ),
            (
                EngineError::Overloaded {
                    queue_depth: 4,
                    retry_after_ms: 50,
                },
                rejected("overloaded: 4 requests queued, retry after 50 ms"),
            ),
            (
                EngineError::DeadlineExceeded { deadline_ms: 0 },
                rejected("deadline exceeded: 0 ms budget expired before dispatch"),
            ),
        ];
        for (error, expected) in cases {
            assert_eq!(legacy_response(Err(error.clone())), expected, "{error:?}");
        }
        let ok = EngineResponse::EventLoad {
            event: EventId::new(1),
            load: 1,
            capacity: 2,
        };
        assert_eq!(legacy_response(Ok(ok.clone())), ok);
    }
}
