//! In-process replay of a run's request stream through `ShardedEngine`,
//! optionally with the durability and protocol layers around each call,
//! under the span tracer.
//!
//! The stream is the served one: the open-loop applies interleaved with
//! the reads by due time, then the saturating applies back to back, then
//! the closing `Rebalance`. Paced, the open-loop part keeps the served
//! cadence; unpaced, it runs back to back in the same order.

use crate::schedule::Schedule;
use crate::served::read_ok;
use crate::spans::Tracer;
use crate::workload::is_event_scoped;
use igepa_core::InstanceDelta;
use igepa_engine::durability::snapshot::load_newest;
use igepa_engine::durability::DurabilityStatsView;
use igepa_engine::service::handle_request;
use igepa_engine::{
    decode_request_envelope, decode_response_envelope, encode_request_envelope,
    encode_response_envelope, DurabilityController, DurabilityPolicy, EngineBackend, EngineQuery,
    EngineRequest, EngineResponse, ReconcileReport, RequestEnvelope, ResponseEnvelope,
    ShardedEngine, PROTOCOL_VERSION,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Logged requests between automatic checkpoints (served and replayed).
pub const SNAPSHOT_EVERY: u64 = 512;
/// WAL segment size, small enough that checkpoints compact segments.
pub const SEGMENT_BYTES: u64 = 64 * 1024;

/// Opens a durability controller with the benchmark's checkpoint cadence.
pub fn controller(dir: &Path, policy: DurabilityPolicy) -> Result<DurabilityController, String> {
    let mut c = DurabilityController::create(dir, policy)
        .map_err(|e| format!("cannot open wal in {}: {e}", dir.display()))?;
    c.set_snapshot_every(SNAPSHOT_EVERY);
    c.set_segment_max_bytes(SEGMENT_BYTES);
    Ok(c)
}

/// How to replay.
pub struct Options<'a> {
    /// Applies sent open loop before the saturating part.
    pub open_applies: usize,
    /// Open-loop apply rate.
    pub apply_rate: f64,
    /// Read rate.
    pub read_rate: f64,
    /// Keep the open-loop cadence (sleep until each request is due).
    pub paced: bool,
    /// Encode and decode every request and response envelope.
    pub codec: bool,
    /// Log every mutating request ahead of its apply and checkpoint on
    /// the served cadence.
    pub wal: Option<(&'a Path, DurabilityPolicy)>,
}

/// What a replay produced.
pub struct Replayed {
    /// Merged utility after the closing rebalance.
    pub utility: f64,
    /// Whether the merged arrangement is feasible.
    pub feasible: bool,
    /// Deltas the engine rejected.
    pub rejected: u64,
    /// Reads whose answer failed its check.
    pub bad_reads: u64,
    /// Per apply call, in apply order: whether it ran a solve (a full
    /// re-solve, a batch solve, or a staleness check's cold solve, adopted
    /// or not).
    pub solve_flags: Vec<bool>,
    /// The closing rebalance's report.
    pub rebalance: ReconcileReport,
    /// Wall time from the first request to the end of the rebalance.
    pub wall_s: f64,
    /// Envelope sizes (bytes) of requests and responses (with `codec`).
    pub req_bytes: Vec<f64>,
    /// Response envelope sizes (bytes).
    pub resp_bytes: Vec<f64>,
    /// Durability counters (with `wal`).
    pub wal: Option<DurabilityStatsView>,
    /// Size of the last snapshot written (with `wal`).
    pub snapshot_bytes: u64,
}

enum Op {
    Apply(usize),
    Read(usize),
}

/// The served order: open-loop applies and reads merged by due time
/// (applies first on ties), then the remaining applies.
fn order(
    open_applies: usize,
    total: usize,
    reads: usize,
    apply: Schedule,
    read: Schedule,
) -> Vec<(Op, u64)> {
    let mut ops = Vec::with_capacity(total + reads);
    let (mut a, mut r) = (0, 0);
    while a < open_applies || r < reads {
        let take_apply = r >= reads || (a < open_applies && apply.due_ns(a) <= read.due_ns(r));
        if take_apply {
            ops.push((Op::Apply(a), apply.due_ns(a)));
            a += 1;
        } else {
            ops.push((Op::Read(r), read.due_ns(r)));
            r += 1;
        }
    }
    ops.extend((open_applies..total).map(|i| (Op::Apply(i), 0)));
    ops
}

struct Codec<'t> {
    on: bool,
    tracer: &'t mut Tracer,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

impl Codec<'_> {
    fn request(&mut self, id: u64, body: &EngineRequest) -> Result<(), String> {
        if !self.on {
            return Ok(());
        }
        let envelope = RequestEnvelope::new(id, PROTOCOL_VERSION, body.clone());
        let line = self.tracer.span("protocol.req_encode", id, || {
            encode_request_envelope(&envelope)
        });
        self.req_bytes.push(line.len() as f64);
        let decoded = self.tracer.span("protocol.req_decode", id, || {
            decode_request_envelope(&line, id)
        });
        black_box(decoded.map_err(|e| format!("request envelope does not decode: {e:?}"))?);
        Ok(())
    }

    fn response(&mut self, id: u64, response: EngineResponse) -> Result<(), String> {
        if !self.on {
            return Ok(());
        }
        let envelope = ResponseEnvelope {
            id,
            result: Ok(response),
        };
        let line = self.tracer.span("protocol.resp_encode", id, || {
            encode_response_envelope(&envelope)
        });
        self.resp_bytes.push(line.len() as f64);
        let decoded = self.tracer.span("protocol.resp_decode", id, || {
            decode_response_envelope(&line)
        });
        black_box(decoded.map_err(|e| format!("response envelope does not decode: {e:?}"))?);
        Ok(())
    }
}

/// Solves the engine has run so far: full re-solves, batch solves and
/// staleness checks (each check is a cold solve, adopted or not).
fn solves(engine: &ShardedEngine) -> u64 {
    let s = engine.stats();
    s.full_resolves + s.batch_solves + s.staleness_checks
}

/// Replays `deltas` and `reads` into `engine` (see the module docs).
pub fn replay(
    engine: &mut ShardedEngine,
    deltas: &[InstanceDelta],
    reads: &[EngineQuery],
    options: &Options,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let mut wal = match options.wal {
        Some((dir, policy)) => Some(controller(dir, policy)?),
        None => None,
    };
    let mut out = Replayed {
        utility: 0.0,
        feasible: false,
        rejected: 0,
        bad_reads: 0,
        solve_flags: Vec::with_capacity(deltas.len()),
        rebalance: ReconcileReport::default(),
        wall_s: 0.0,
        req_bytes: Vec::new(),
        resp_bytes: Vec::new(),
        wal: None,
        snapshot_bytes: 0,
    };
    let ops = order(
        options.open_applies,
        deltas.len(),
        reads.len(),
        Schedule::at_rate(options.apply_rate),
        Schedule::at_rate(options.read_rate),
    );
    let mut codec = Codec {
        on: options.codec,
        tracer,
        req_bytes: Vec::new(),
        resp_bytes: Vec::new(),
    };
    let t0 = Instant::now();
    for (n, (op, due_ns)) in ops.iter().enumerate() {
        let id = n as u64 + 1;
        if options.paced {
            let now = t0.elapsed().as_nanos() as u64;
            if *due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
        }
        let root = codec.tracer.enter("bench.request", id);
        match *op {
            Op::Apply(i) => {
                let delta = &deltas[i];
                let body = EngineRequest::Apply {
                    delta: delta.clone(),
                };
                codec.request(id, &body)?;
                if let Some(c) = wal.as_mut() {
                    let epoch = engine.catalog_epoch();
                    codec
                        .tracer
                        .span("durability.log", id, || c.log(id, epoch, &body))
                        .map_err(|e| format!("wal append failed: {e}"))?;
                }
                let name = if is_event_scoped(delta) {
                    "coordinator.apply_event"
                } else {
                    "coordinator.apply_user"
                };
                let solves_before = solves(engine);
                let result = codec.tracer.span(name, id, || engine.apply(delta));
                out.solve_flags.push(solves(engine) > solves_before);
                let response = match result {
                    Ok(o) => EngineResponse::Applied {
                        kind: o.kind,
                        repair: o.repair,
                        utility: o.utility,
                        num_pairs: o.num_pairs,
                    },
                    Err(e) => {
                        out.rejected += 1;
                        EngineResponse::Rejected {
                            reason: e.to_string(),
                        }
                    }
                };
                codec.response(id, response)?;
                if let Some(c) = wal.as_mut() {
                    if c.auto_checkpoint_due() {
                        let outcome = codec.tracer.span("durability.checkpoint", id, || {
                            c.checkpoint(&engine.snapshot_state(c.last_seq()))
                        });
                        out.snapshot_bytes = outcome
                            .map_err(|e| format!("checkpoint failed: {e}"))?
                            .bytes;
                    }
                }
            }
            Op::Read(j) => {
                let body = EngineRequest::Query { query: reads[j] };
                codec.request(id, &body)?;
                let response = codec
                    .tracer
                    .span("coordinator.read", id, || handle_request(engine, &body));
                if !read_ok(&body, &response) {
                    out.bad_reads += 1;
                }
                codec.response(id, response)?;
            }
        }
        codec.tracer.exit(root);
    }
    let id = ops.len() as u64 + 1;
    if let Some(c) = wal.as_mut() {
        let epoch = engine.catalog_epoch();
        codec
            .tracer
            .span("durability.log", id, || {
                c.log(id, epoch, &EngineRequest::Rebalance)
            })
            .map_err(|e| format!("wal append failed: {e}"))?;
    }
    out.rebalance = codec
        .tracer
        .span("reconcile.rebalance", id, || engine.rebalance());
    out.wall_s = t0.elapsed().as_secs_f64();
    out.req_bytes = codec.req_bytes;
    out.resp_bytes = codec.resp_bytes;
    out.utility = engine.merged_utility().total;
    out.feasible = engine.merged_arrangement().is_feasible(engine.instance());
    out.wal = wal.map(|c| c.stats());
    Ok(out)
}

/// Time to read the newest snapshot of `dir` (ms), as recovery does.
pub fn snapshot_load_ms(dir: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let (loaded, _) = load_newest(dir).map_err(|e| format!("snapshot load failed: {e}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    black_box(loaded.ok_or("no snapshot to load")?);
    Ok(ms)
}
