//! The served phases: the trace over loopback TCP through `EngineClient`,
//! one writer connection and one reader connection.
//!
//! 1. **Open loop.** The writer sends applies at the workload's fixed
//!    offered rate while the reader sends cache-served reads at its own
//!    fixed rate; every request is timed from its due time.
//! 2. **Saturating.** The rest of the trace goes out on the same writer
//!    connection, pipelined at a fixed window; completed applies per
//!    second give the throughput.
//! 3. **Close.** `OverloadStats` (queue high-water), a closing
//!    `Rebalance`, the served `Utility` and, when durable,
//!    `DurabilityStats`.

use crate::schedule::{OpenLoopLog, Schedule};
use igepa_core::InstanceDelta;
use igepa_engine::{
    ClientError, EngineClient, EngineQuery, EngineRequest, EngineResponse, Framing,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// `EngineClient` send-ahead window of the saturating phase.
pub const PIPELINE_WINDOW: usize = 32;
/// Consecutive chunks the saturating phase is timed in; the throughput is
/// their median rate, so one stall of the host moves it less.
pub const SATURATING_CHUNKS: usize = 5;

/// Attempted, succeeded and failed operations of one phase. A refused or
/// rejected request and a response that fails its check count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered as expected.
    pub succeeded: u64,
    /// Requests refused, rejected, or answered wrongly.
    pub failed: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }

    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// Durability counters read from the server before shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalCounters {
    /// Records appended.
    pub records: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

/// What the served phases measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Open-loop apply timings.
    pub applies: OpenLoopLog,
    /// Open-loop read timings.
    pub reads: OpenLoopLog,
    /// Open-loop applies.
    pub open: Counts,
    /// Reads.
    pub read: Counts,
    /// Saturating-phase applies.
    pub saturating: Counts,
    /// Applies completed per second in each saturating chunk.
    pub saturating_rps: Vec<f64>,
    /// Closing requests (`OverloadStats`, `Rebalance`, `Utility`, ...).
    pub close: Counts,
    /// Dispatch-queue high-water mark after the saturating phase.
    pub queue_high_water: u64,
    /// Merged utility in the closing `Rebalanced` response.
    pub utility: f64,
    /// Answer of the cache-served `Utility` query after the rebalance
    /// (shard totals summed in shard order, as the serial service does).
    pub cached_utility: f64,
    /// Durability counters (durable workloads only).
    pub wal: Option<WalCounters>,
    /// Largest distance (ulps) seen between the cache-served `Utility`
    /// read and the engine's own `Utility` answer after shutdown.
    pub cached_ulps: u64,
}

impl Served {
    /// Pools another segment's measurements into this one; the first
    /// segment's utilities are kept (every segment must serve the same).
    pub fn absorb(&mut self, other: Served) {
        let first = self.open.attempted == 0;
        self.applies.extend(other.applies);
        self.reads.extend(other.reads);
        self.open.add(other.open);
        self.read.add(other.read);
        self.saturating.add(other.saturating);
        self.close.add(other.close);
        self.saturating_rps.extend(other.saturating_rps);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        if first {
            self.utility = other.utility;
            self.cached_utility = other.cached_utility;
        }
    }
}

fn transport(e: impl std::fmt::Display) -> String {
    format!("transport failure: {e}")
}

/// Drives one connection open loop: request `i` is due at
/// `schedule.due_ns(i)` after `t0`. Every due request is sent before the
/// oldest outstanding one is awaited, so a slow response delays the
/// requests behind it only as far as the single connection forces, and
/// that delay is charged to them from their due time. `check` judges each
/// response.
fn open_loop(
    client: &mut EngineClient,
    bodies: &[EngineRequest],
    schedule: Schedule,
    t0: Instant,
    mut check: impl FnMut(&EngineRequest, &EngineResponse) -> bool,
) -> Result<(OpenLoopLog, Counts), String> {
    let ns = || t0.elapsed().as_nanos() as u64;
    let mut log = OpenLoopLog::default();
    let mut counts = Counts::default();
    let mut outstanding: VecDeque<(u64, usize, u64)> = VecDeque::new();
    let mut next = 0;
    while next < bodies.len() || !outstanding.is_empty() {
        while next < bodies.len() && schedule.due_ns(next) <= ns() {
            let sent = ns();
            let id = client.send(bodies[next].clone()).map_err(transport)?;
            outstanding.push_back((id, next, sent));
            next += 1;
        }
        if let Some((id, i, sent)) = outstanding.pop_front() {
            let result = client.recv(id);
            log.record(schedule.due_ns(i), sent, ns());
            match result {
                Ok(response) => counts.tally(check(&bodies[i], &response)),
                Err(ClientError::Engine(_)) => counts.tally(false),
                Err(e) => return Err(transport(e)),
            }
        } else if next < bodies.len() {
            let wait = schedule.due_ns(next).saturating_sub(ns());
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
    Ok((log, counts))
}

/// Whether a read's answer is well-formed for the query asked.
pub fn read_ok(request: &EngineRequest, response: &EngineResponse) -> bool {
    match (request, response) {
        (
            EngineRequest::Query {
                query: EngineQuery::AssignmentsOf { user },
            },
            EngineResponse::Assignments { user: u, .. },
        ) => u == user,
        (
            EngineRequest::Query {
                query: EngineQuery::EventLoad { event },
            },
            EngineResponse::EventLoad {
                event: e,
                load,
                capacity,
            },
        ) => e == event && load <= capacity,
        (
            EngineRequest::Query {
                query: EngineQuery::Utility,
            },
            EngineResponse::Utility { total, .. },
        ) => total.is_finite() && *total >= 0.0,
        _ => false,
    }
}

fn applied(response: &EngineResponse) -> bool {
    matches!(response, EngineResponse::Applied { .. })
}

/// Runs the served phases against the server at `addr`: the first
/// `open_applies` deltas open loop at `apply_rate` with `reads` at
/// `read_rate` alongside, the rest pipelined.
pub fn drive(
    addr: SocketAddr,
    deltas: &[InstanceDelta],
    open_applies: usize,
    apply_rate: f64,
    reads: &[EngineQuery],
    read_rate: f64,
    durable: bool,
) -> Result<Served, String> {
    let apply = |d: &InstanceDelta| EngineRequest::Apply { delta: d.clone() };
    let open_bodies: Vec<EngineRequest> = deltas[..open_applies].iter().map(apply).collect();
    let read_bodies: Vec<EngineRequest> = reads
        .iter()
        .map(|&query| EngineRequest::Query { query })
        .collect();
    let mut writer = EngineClient::connect(addr, Framing::Lines).map_err(transport)?;
    let mut reader = EngineClient::connect(addr, Framing::Lines).map_err(transport)?;
    let mut served = Served::default();

    let t0 = Instant::now();
    let (writes, read_result) = std::thread::scope(|s| {
        let read_thread = s.spawn(|| {
            open_loop(
                &mut reader,
                &read_bodies,
                Schedule::at_rate(read_rate),
                t0,
                read_ok,
            )
        });
        let writes = open_loop(
            &mut writer,
            &open_bodies,
            Schedule::at_rate(apply_rate),
            t0,
            |_, r| applied(r),
        );
        (writes, read_thread.join())
    });
    (served.applies, served.open) = writes?;
    (served.reads, served.read) =
        read_result.map_err(|_| "reader thread panicked".to_string())??;
    drop(reader);

    writer.set_pipeline_window(PIPELINE_WINDOW);
    let rest = &deltas[open_applies..];
    for chunk in rest.chunks(rest.len().div_ceil(SATURATING_CHUNKS).max(1)) {
        let bodies: Vec<EngineRequest> = chunk.iter().map(apply).collect();
        let start = Instant::now();
        let results = writer.pipeline(bodies).map_err(transport)?;
        let seconds = start.elapsed().as_secs_f64();
        let done = results
            .iter()
            .filter(|r| matches!(r, Ok(x) if applied(x)))
            .count();
        served.saturating_rps.push(done as f64 / seconds);
        for r in &results {
            served.saturating.tally(matches!(r, Ok(x) if applied(x)));
        }
    }

    let mut close = |client: &mut EngineClient, request: EngineRequest| {
        let result = client.call(request);
        served.close.tally(result.is_ok());
        match result {
            Ok(response) => Ok(Some(response)),
            Err(ClientError::Engine(_)) => Ok(None),
            Err(e) => Err(transport(e)),
        }
    };
    let query = |q| EngineRequest::Query { query: q };
    if let Some(EngineResponse::OverloadStats { stats }) =
        close(&mut writer, query(EngineQuery::OverloadStats))?
    {
        served.queue_high_water = stats.high_water;
    }
    match close(&mut writer, EngineRequest::Rebalance)? {
        Some(EngineResponse::Rebalanced { utility, .. }) => served.utility = utility,
        other => return Err(format!("Rebalance answered {other:?}")),
    }
    match close(&mut writer, query(EngineQuery::Utility))? {
        Some(EngineResponse::Utility { total, .. }) => served.cached_utility = total,
        other => return Err(format!("Utility query answered {other:?}")),
    }
    if durable {
        if let Some(EngineResponse::DurabilityStats {
            wal_records,
            wal_bytes,
            fsyncs,
            checkpoints,
            ..
        }) = close(&mut writer, query(EngineQuery::DurabilityStats))?
        {
            served.wal = Some(WalCounters {
                records: wal_records,
                bytes: wal_bytes,
                fsyncs,
                checkpoints,
            });
        }
    }
    Ok(served)
}
