//! `arrbench`: the end-to-end benchmark of the arrangement server.
//!
//! ```text
//! cargo run --release --manifest-path arrbench/Cargo.toml -- \
//!     --apply-rps community_serve=1200,catalog_churn=500,durable_recover=600,paper_solve=700 \
//!     --workload community_serve --seed 1 --seconds 26 --trace 0
//! ```
//!
//! One run generates the workload's inputs from the seed, serves them over
//! loopback TCP, checks the outputs and prints a report followed by one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced in-process replay with `--trace 1`. See README.md.

mod replay;
mod schedule;
mod served;
mod spans;
mod stats;
mod workload;

use igepa_algos::{ArrangementAlgorithm, GreedyArrangement, LpPacking};
use igepa_core::{AdmissibleSetIndex, Instance, InstanceDelta};
use igepa_engine::service::handle_request;
use igepa_engine::{
    recover, DurabilityPolicy, EngineQuery, EngineRequest, EngineResponse, EngineServer, Framing,
    Recovered, ServerHandle, ShardedEngine,
};
use schedule::Schedule;
use spans::Tracer;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{build_engine, Inputs, Spec};

const USAGE: &str = "usage: arrbench --workload NAME --seed N --seconds S --trace 0|1 \
--apply-rps NAME=RATE[,NAME=RATE...]";

/// `recover()` calls after each serving segment; `recover_s` is the
/// median over all of them.
const RECOVERS_PER_SEGMENT: usize = 4;
/// Fresh servers a run serves the inputs on, one after the other; their
/// samples are pooled, which evens out what one server instance's thread
/// placement does to the figures.
const SEGMENTS: usize = 4;
/// Set-ups timed in a plain loop after each serving segment, each shut
/// down unused; `setup_s` is the median of these and the segments' own.
const EXTRA_SETUPS_PER_SEGMENT: usize = 3;
/// Offered rate of the reader connection (reads/s).
const READ_RPS: f64 = 2000.0;
/// Share of the serving window spent open loop; the saturating phase gets
/// as many applies as twice the offered rate delivers in a quarter of it.
const OPEN_SHARE: f64 = 0.6;
const SATURATING_SHARE: f64 = 0.25;
/// `paper_solve` spends half its window serving; its LP solves take the rest.
const PAPER_SERVE_SHARE: f64 = 0.5;
/// Fsync policy of the durable workload (the serving CLI's default).
const DURABLE_FSYNC: DurabilityPolicy = DurabilityPolicy::Always;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    apply_rps: BTreeMap<String, f64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let num = |name: &str, v: String| v.parse::<f64>().map_err(|_| format!("bad {name}: {v}"));
    let workload = take("--workload")?;
    let seed = take("--seed")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed: {seed}"))?;
    let seconds = num("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace: {other}")),
    };
    let mut apply_rps = BTreeMap::new();
    for pair in take("--apply-rps")?.split(',') {
        let (name, rate) = pair
            .split_once('=')
            .ok_or(format!("bad --apply-rps entry: {pair}"))?;
        apply_rps.insert(name.to_string(), num("--apply-rps", rate.to_string())?);
    }
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if seconds <= 0.0 || apply_rps.values().any(|r| *r <= 0.0) {
        return Err("seconds and rates must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        apply_rps,
    })
}

/// Request counts of one serving segment, fixed by the workload's rates
/// and the window length so that every run with one seed does identical
/// work.
struct Plan {
    apply_rate: f64,
    read_rate: f64,
    open_applies: usize,
    total_applies: usize,
    reads: usize,
}

impl Plan {
    fn new(spec: &Spec, apply_rate: f64, read_rate: f64, seconds: f64) -> Plan {
        let share = if spec.lp_instances > 0 {
            PAPER_SERVE_SHARE
        } else {
            1.0
        };
        let serve_s = seconds * share / SEGMENTS as f64;
        let open_s = serve_s * OPEN_SHARE;
        let open_applies = Schedule::at_rate(apply_rate).count_within(open_s);
        let saturating = (2.0 * apply_rate * serve_s * SATURATING_SHARE).round() as usize;
        Plan {
            apply_rate,
            read_rate,
            open_applies,
            total_applies: open_applies + saturating,
            reads: Schedule::at_rate(read_rate).count_within(open_s),
        }
    }

    fn replay_options<'a>(
        &self,
        paced: bool,
        codec: bool,
        wal: Option<(&'a Path, DurabilityPolicy)>,
    ) -> replay::Options<'a> {
        replay::Options {
            open_applies: self.open_applies,
            apply_rate: self.apply_rate,
            read_rate: self.read_rate,
            paced,
            codec,
            wal,
        }
    }
}

/// Metrics, checks and op counts of one run.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, how: String) {
        self.lines
            .push(format!("metric {name} = {value} {unit} ({how})"));
        if !value.is_finite() {
            self.check(&format!("{name} is a finite number"), false);
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    fn timing(&mut self, p50: &str, tail: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::windowed(samples);
        self.metric(p50, s.p50, unit, format!("median, n={}", s.n));
        self.metric(
            tail,
            s.tail.value(),
            unit,
            format!("{}, n={}", s.tail.label(), s.n),
        );
    }

    /// A figure printed in the report but not in the JSON.
    fn reported(&mut self, name: &str, value: f64, unit: &str, how: String) {
        self.note(format!("report {name} = {value} {unit} ({how})"));
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.lines.push(format!(
            "check {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.checks.push((what.to_string(), ok));
    }

    fn ops(&mut self, phase: &str, c: served::Counts) {
        self.note(format!(
            "ops {phase}: attempted {} succeeded {} failed {}",
            c.attempted, c.succeeded, c.failed
        ));
        self.attempted += c.attempted;
        self.failed += c.failed;
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; `metric` already failed the
                // run for such a value.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (MB), from `VmHWM`.
fn rss_peak_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(io_err("/proc/self/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn start_server(
    engine: ShardedEngine,
    wal: Option<&Path>,
) -> Result<ServerHandle<ShardedEngine>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind loopback"))?;
    match wal {
        None => EngineServer::serve_sharded(listener, engine, Framing::Lines),
        Some(dir) => EngineServer::serve_sharded_durable(
            listener,
            engine,
            Framing::Lines,
            replay::controller(dir, DURABLE_FSYNC)?,
        ),
    }
    .map_err(io_err("server start"))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io_err("clear scratch dir"))?;
    }
    std::fs::create_dir_all(dir).map_err(io_err("create scratch dir"))
}

/// `recover()` of `dir` with the workload's engine functions; returns the
/// wall time (s), the part of it spent restoring the snapshot's engine
/// (s), and the recovered engine.
fn recover_timed(dir: &Path, base: &Instance, seed: u64) -> Result<(f64, f64, Recovered), String> {
    let restore_s = std::cell::Cell::new(0.0);
    let start = Instant::now();
    let recovered = recover(
        dir,
        || build_engine(base.clone(), seed),
        |state| {
            let start = Instant::now();
            let engine = workload::restore_engine(state, base);
            restore_s.set(secs(start));
            engine
        },
    )
    .map_err(|e| e.to_string())?;
    Ok((secs(start), restore_s.get(), recovered))
}

/// The served figures that are reported on every run but, too unsteady on
/// a shared host to carry a regression bound, enter the JSON only as
/// per-layer metrics of the traced run (see README.md).
fn unbounded_figures(seg: &Segments) -> Vec<(&'static str, f64, &'static str, String)> {
    let served = &seg.served;
    let applies = Summary::windowed(&served.applies.latency_us);
    let reads = Summary::windowed(&served.reads.latency_us);
    let tail = |s: Summary| format!("from due time; {}, n={}", s.tail.label(), s.n);
    vec![
        (
            "apply_p50_us",
            applies.p50,
            "us",
            format!("median from due time, n={}", applies.n),
        ),
        ("apply_p99_us", applies.tail.value(), "us", tail(applies)),
        ("read_p99_us", reads.tail.value(), "us", tail(reads)),
        (
            "apply_tput_rps",
            median(&served.saturating_rps),
            "1/s",
            format!(
                "median over {} chunks of about {} pipelined applies, window {}",
                served.saturating_rps.len(),
                served.saturating.attempted / served.saturating_rps.len().max(1) as u64,
                served::PIPELINE_WINDOW
            ),
        ),
        (
            "recover_s",
            median(&seg.recover_s),
            "s",
            format!("median of {} recover() calls", seg.recover_s.len()),
        ),
    ]
}

/// Distance between two finite same-sign doubles in units of the last place.
fn ulps(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

fn bits_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

struct Ctx {
    spec: Spec,
    seed: u64,
    plan: Plan,
    work: PathBuf,
}

impl Ctx {
    fn generate(&self, tracer: &mut Tracer) -> Inputs {
        workload::generate(
            &self.spec,
            self.seed,
            self.plan.total_applies,
            self.plan.reads,
            tracer,
        )
    }
}

/// Set-up: generation, engine build with its initial solve, server start.
struct Setup {
    server: ServerHandle<ShardedEngine>,
    deltas: Vec<InstanceDelta>,
    reads: Vec<EngineQuery>,
    /// Wall time of the set-up (s).
    setup_s: f64,
}

/// Sets up one server; a durable one logs to a fresh `wal` directory.
fn set_up(ctx: &Ctx, wal: &Path, tracer: &mut Tracer) -> Result<Setup, String> {
    if ctx.spec.durable {
        fresh_dir(wal)?;
    }
    let start = Instant::now();
    let inputs = ctx.generate(tracer);
    let build = tracer.enter("coordinator.build", 0);
    let engine = build_engine(inputs.instance, ctx.seed);
    let server = start_server(engine, ctx.spec.durable.then_some(wal))?;
    tracer.exit(build);
    Ok(Setup {
        server,
        deltas: inputs.deltas,
        reads: inputs.reads,
        setup_s: secs(start),
    })
}

/// `EXTRA_SETUPS_PER_SEGMENT` set-ups, one after the other, each checked
/// against `inputs` and shut down unused.
fn extra_setups(ctx: &Ctx, inputs: &Inputs, r: &mut Report) -> Result<Vec<f64>, String> {
    let mut setup_s = Vec::new();
    for rep in 0..EXTRA_SETUPS_PER_SEGMENT {
        let wal = ctx.work.join(format!("setup-wal-{rep}"));
        let setup = set_up(ctx, &wal, &mut Tracer::new(false))?;
        r.check(
            "set-up inputs match the regenerated ones",
            setup.deltas == inputs.deltas && setup.reads == inputs.reads,
        );
        setup
            .server
            .shutdown()
            .map_err(io_err("shut down a set-up server"))?;
        setup_s.push(setup.setup_s);
    }
    Ok(setup_s)
}

/// Everything the serving segments measured.
#[derive(Default)]
struct Segments {
    served: served::Served,
    /// Every set-up's wall time (s): the segments' and the extra ones.
    setup_s: Vec<f64>,
    /// Peak RSS through the first segment: set-up, serving, recovery and
    /// its LP solves (MB).
    rss_mb: f64,
    recover_s: Vec<f64>,
    /// LP-packing solves, ms, and (on `paper_solve`) their utilities.
    lp_ms: Vec<f64>,
    lp_utility: Vec<f64>,
}

/// Serves `inputs` on `segments` fresh servers in turn. After each
/// segment it checks the shut-down engine, times `recover()` of the
/// segment's restart point and, spread over the segments so that a slow
/// spell of the host touches only part of them, the LP solves of `lp_set`
/// behind `solve_p50_ms` and (untraced) extra set-ups behind `setup_s`.
fn serve_segments(
    ctx: &Ctx,
    inputs: &Inputs,
    lp_set: &[Instance],
    segments: usize,
    trace: bool,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<Segments, String> {
    let (plan, seed, base) = (&ctx.plan, ctx.seed, &inputs.instance);
    let mut out = Segments::default();
    let mut utilities = Vec::new();
    for segment in 0..segments {
        let wal = ctx.work.join(format!("served-wal-{segment}"));
        let setup = set_up(ctx, &wal, tracer)?;
        out.setup_s.push(setup.setup_s);
        r.check(
            "set-up inputs match the regenerated ones",
            setup.deltas == inputs.deltas && setup.reads == inputs.reads,
        );
        let served = served::drive(
            setup.server.local_addr(),
            &setup.deltas,
            plan.open_applies,
            plan.apply_rate,
            &setup.reads,
            plan.read_rate,
            ctx.spec.durable,
        )?;
        let mut engine = setup.server.shutdown().map_err(io_err("server shutdown"))?;
        r.check(
            "zero rejected trace deltas",
            served.open.failed + served.saturating.failed == 0,
        );
        r.check(
            "merged arrangement feasible after shutdown",
            engine.merged_arrangement().is_feasible(engine.instance()),
        );
        r.check(
            "served utility equals the shut-down engine's",
            bits_equal(served.utility, engine.merged_utility().total),
        );
        if ctx.spec.durable {
            // Every apply and the closing Rebalance went through the log.
            let logged = plan.total_applies as u64 + 1;
            r.check(
                "every mutating request logged and fsynced",
                served.wal.is_some_and(|w| {
                    w.records == logged && w.fsyncs >= logged && w.checkpoints > 0
                }),
            );
        }
        // The cache sums shard totals in plain floating point while the
        // engine's own `Utility` answer is the exact merge, so the two can
        // differ in the last bits. Reported, not gated: see README.md.
        let query = EngineRequest::Query {
            query: EngineQuery::Utility,
        };
        if let EngineResponse::Utility { total, .. } = handle_request(&mut engine, &query) {
            out.served.cached_ulps = out
                .served
                .cached_ulps
                .max(ulps(served.cached_utility, total));
        }
        utilities.push(served.utility);

        // The restart point: the served log, or (without a log) a
        // checkpoint of the shut-down state.
        let restart = if ctx.spec.durable {
            wal
        } else {
            let dir = ctx.work.join(format!("checkpoint-{segment}"));
            fresh_dir(&dir)?;
            replay::controller(&dir, DurabilityPolicy::Off)?
                .checkpoint(&engine.snapshot_state(0))
                .map_err(io_err("checkpoint after shutdown"))?;
            dir
        };
        drop(engine);
        let mut recovered_ok = true;
        for _ in 0..RECOVERS_PER_SEGMENT {
            let (s, _, rec) = recover_timed(&restart, base, seed)?;
            out.recover_s.push(s);
            recovered_ok &= rec
                .engine
                .merged_arrangement()
                .is_feasible(rec.engine.instance())
                && bits_equal(rec.engine.merged_utility().total, served.utility);
            r.attempted += 1;
        }
        r.check(
            "recovered state feasible and bit-equal to the served utility",
            recovered_ok,
        );
        out.served.absorb(served);

        // The LP solves behind `solve_p50_ms`, spread over the segments;
        // the traced run times the LP layer itself instead.
        for (i, instance) in lp_set.iter().enumerate() {
            if trace || i % segments != segment {
                continue;
            }
            let start = Instant::now();
            let arrangement = LpPacking::default().run_seeded(instance, workload::lp_seed(seed, i));
            out.lp_ms.push(secs(start) * 1e3);
            r.check(
                "LP-packing arrangement feasible",
                arrangement.is_feasible(instance),
            );
            out.lp_utility.push(arrangement.utility_value(instance));
            r.attempted += 1;
        }
        if segment == 0 {
            // Only one engine has lived so far, so the peak holds a single
            // engine's lifetime plus the segment's recoveries and LP solves.
            out.rss_mb = rss_peak_mb()?;
        }
        // More set-up samples, spread over the run like the LP solves.
        if !trace {
            out.setup_s.extend(extra_setups(ctx, inputs, r)?);
        }
    }
    r.check(
        "every segment served a bit-equal utility",
        utilities.iter().all(|u| bits_equal(*u, utilities[0])),
    );
    Ok(out)
}

fn run(args: &Args) -> Result<Report, String> {
    let spec =
        workload::spec(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let apply_rate = *args
        .apply_rps
        .get(spec.name)
        .ok_or(format!("no --apply-rps rate for {}", spec.name))?;
    let plan = Plan::new(&spec, apply_rate, READ_RPS, args.seconds);
    let work = PathBuf::from(".bench_out").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    fresh_dir(&work)?;
    let ctx = Ctx {
        spec,
        seed: args.seed,
        plan,
        work,
    };
    let result = measure(&ctx, args.trace);
    std::fs::remove_dir_all(&ctx.work).ok();
    result
}

fn measure(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let (spec, seed, plan) = (&ctx.spec, ctx.seed, &ctx.plan);
    let mut r = Report::default();
    let mut tracer = Tracer::new(trace);
    let segments = if trace { 1 } else { SEGMENTS };
    r.note(format!(
        "arrbench workload={} seed={} trace={}: {segments} serving segment(s), each a fresh \
         server fed {} deltas ({} open loop at {}/s, {} saturating) and {} reads at {}/s",
        spec.name,
        seed,
        trace as u8,
        plan.total_applies,
        plan.open_applies,
        plan.apply_rate,
        plan.total_applies - plan.open_applies,
        plan.reads,
        plan.read_rate
    ));
    // The inputs, generated once more outside any timing: every set-up must
    // reproduce them, and the reference replay below runs them.
    let inputs = ctx.generate(&mut Tracer::new(false));
    r.note(format!(
        "input hash {:#018x}",
        workload::input_hash(&inputs)
    ));

    // The Table-I instances behind `solve_p50_ms`: `paper_solve`'s own
    // inputs, or a fixed set generated outside any timing.
    let lp_set: Vec<Instance> = if inputs.lp_instances.is_empty() {
        (0..workload::SERVING_LP_INSTANCES)
            .map(|i| workload::lp_instance(workload::BASE_SEED, i))
            .collect()
    } else {
        inputs.lp_instances.clone()
    };

    // ---- serving segments
    let seg = serve_segments(ctx, &inputs, &lp_set, segments, trace, &mut tracer, &mut r)?;
    let served = &seg.served;
    r.ops("open-loop applies", served.open);
    r.ops("reads", served.read);
    r.ops("saturating applies", served.saturating);
    r.ops("closing requests", served.close);
    let late = Summary::of(&served.applies.lateness_us);
    r.note(format!(
        "generator lateness: median {} us, {} {} us (n={})",
        late.p50,
        late.tail.label(),
        late.tail.value(),
        late.n
    ));
    r.note(format!(
        "cached Utility read vs the engine's exact Utility answer: up to {} ulps apart",
        served.cached_ulps
    ));

    // ---- in-process reference replay of the same stream
    let mut reference = build_engine(inputs.instance.clone(), seed);
    let replayed = replay::replay(
        &mut reference,
        &inputs.deltas,
        &inputs.reads,
        &plan.replay_options(false, false, None),
        &mut Tracer::new(false),
    )?;
    drop(reference);
    r.check("in-process replay rejects nothing", replayed.rejected == 0);
    r.check(
        "served utility bit-equal to the in-process replay",
        bits_equal(served.utility, replayed.utility),
    );

    if trace {
        traced(ctx, &mut r, &mut tracer, &seg, &inputs, &lp_set)?;
    } else {
        r.metric(
            "setup_s",
            median(&seg.setup_s),
            "s",
            format!(
                "median of {} set-ups, {} of them shut down unused",
                seg.setup_s.len(),
                seg.setup_s.len() - segments
            ),
        );
        let reads = Summary::windowed(&served.reads.latency_us);
        r.metric(
            "read_p50_us",
            reads.p50,
            "us",
            format!("median from due time, n={}", reads.n),
        );
        for (name, value, unit, how) in unbounded_figures(&seg) {
            r.reported(name, value, unit, how);
        }
        let (utility, how) = if spec.lp_instances == 0 {
            (
                served.utility,
                "merged, after the closing Rebalance".to_string(),
            )
        } else {
            (
                median(&seg.lp_utility),
                format!(
                    "median LP-packing utility of {} instances",
                    seg.lp_utility.len()
                ),
            )
        };
        r.metric("utility", utility, "utility", how);
        r.metric(
            "solve_p50_ms",
            median(&seg.lp_ms),
            "ms",
            format!(
                "median LpPacking::default() solve of a Table-I instance, n={}",
                seg.lp_ms.len()
            ),
        );
        r.metric(
            "rss_peak_mb",
            seg.rss_mb,
            "MB",
            "VmHWM after the first segment: set-up, serving, recovery, LP solves".into(),
        );
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    r.note(format!(
        "ops_failed_frac = {frac} ({} failed of {} attempted)",
        r.failed, r.attempted
    ));
    if trace {
        r.metric(
            "bench.ops_failed_frac",
            frac,
            "ratio",
            format!("{} of {}", r.failed, r.attempted),
        );
    }
    Ok(r)
}

/// Per-layer metrics: the stream replayed in process under the tracer at
/// the served cadence, plus an untraced/traced pair for the overhead.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    tracer: &mut Tracer,
    seg: &Segments,
    inputs: &Inputs,
    lp_set: &[Instance],
) -> Result<(), String> {
    let served = &seg.served;
    let base = &inputs.instance;
    let (spec, seed, plan) = (&ctx.spec, ctx.seed, &ctx.plan);
    let policy = if spec.durable {
        DURABLE_FSYNC
    } else {
        DurabilityPolicy::Off
    };
    let ms = |name: &str, t: &Tracer| t.durations_us(name).iter().sum::<f64>() / 1e3;
    r.metric(
        "datagen.instance_ms",
        ms("datagen.instance", tracer),
        "ms",
        "generation of the base instance(s)".into(),
    );
    r.metric(
        "datagen.trace_ms",
        ms("datagen.trace", tracer),
        "ms",
        "trace generation".into(),
    );
    r.metric(
        "coordinator.build_ms",
        ms("coordinator.build", tracer),
        "ms",
        "ShardedEngine::new + server spawn".into(),
    );
    let start = Instant::now();
    black_box(GreedyArrangement.run_seeded(base, workload::engine_seed(seed)));
    r.metric(
        "algos.greedy_ms",
        secs(start) * 1e3,
        "ms",
        "GreedyArrangement on the base instance".into(),
    );

    // Overhead: the same unpaced replay untraced and traced, in the order
    // untraced, traced, traced, untraced so that a drift cancels.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (i, on) in [false, true, true, false].into_iter().enumerate() {
        let dir = ctx.work.join(format!("overhead-{i}"));
        fresh_dir(&dir)?;
        let mut t = Tracer::new(on);
        let mut engine = build_engine(inputs.instance.clone(), seed);
        let options = plan.replay_options(false, true, Some((&dir, policy)));
        let wall =
            replay::replay(&mut engine, &inputs.deltas, &inputs.reads, &options, &mut t)?.wall_s;
        *(if on { &mut traced_s } else { &mut untraced_s }) += wall;
    }

    // The per-layer replay, at the served cadence.
    let dir = ctx.work.join("traced-wal");
    fresh_dir(&dir)?;
    let mut engine = build_engine(inputs.instance.clone(), seed);
    let before = engine.stats();
    let out = replay::replay(
        &mut engine,
        &inputs.deltas,
        &inputs.reads,
        &plan.replay_options(true, true, Some((&dir, policy))),
        tracer,
    )?;
    let after = engine.stats();
    r.check(
        "traced replay rejects nothing",
        out.rejected == 0 && out.bad_reads == 0,
    );
    r.check(
        "traced replay utility bit-equal to the served one",
        bits_equal(out.utility, served.utility),
    );
    r.check("traced replay feasible", out.feasible);

    for name in ["req_encode", "req_decode", "resp_encode", "resp_decode"] {
        let samples = tracer.durations_us(&format!("protocol.{name}"));
        r.metric(
            &format!("protocol.{name}_us"),
            Summary::of(&samples).p50,
            "us",
            format!("median, n={}", samples.len()),
        );
    }
    r.metric(
        "protocol.req_bytes",
        stats::mean(&out.req_bytes),
        "bytes",
        format!("mean, n={}", out.req_bytes.len()),
    );
    r.metric(
        "protocol.resp_bytes",
        stats::mean(&out.resp_bytes),
        "bytes",
        format!("mean, n={}", out.resp_bytes.len()),
    );

    // Per-op codec cost is the same function for applies and reads; the
    // request ids tell them apart.
    let read_ids: std::collections::HashSet<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "coordinator.read")
        .map(|s| s.request)
        .collect();
    let codec_of = |read: bool| -> f64 {
        [
            "protocol.req_encode",
            "protocol.req_decode",
            "protocol.resp_encode",
            "protocol.resp_decode",
        ]
        .iter()
        .map(|n| {
            let d: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.name == *n && read_ids.contains(&s.request) == read)
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect();
            Summary::of(&d).p50
        })
        .sum()
    };
    let mut apply_us = tracer.durations_us("coordinator.apply_user");
    let event_us = tracer.durations_us("coordinator.apply_event");
    let read_us = tracer.durations_us("coordinator.read");
    apply_us.extend(&event_us);
    let inproc_apply = Summary::of(&apply_us).p50;
    let inproc_read = Summary::of(&read_us).p50;
    // The durable server logs every apply before running it; the others
    // serve without a log, so only their replay's logging is left out.
    let inproc_log = if spec.durable {
        Summary::of(&tracer.durations_us("durability.log")).p50
    } else {
        0.0
    };
    r.metric(
        "transport.apply_overhead_us",
        Summary::of(&served.applies.rtt_us).p50 - inproc_apply - codec_of(false) - inproc_log,
        "us",
        "served RTT p50 - in-process apply p50 - codec p50s (- WAL log p50 when durable)".into(),
    );
    r.metric(
        "transport.read_overhead_us",
        Summary::of(&served.reads.rtt_us).p50 - inproc_read - codec_of(true),
        "us",
        "served RTT p50 - in-process read p50 - codec p50s".into(),
    );
    for (name, value, unit, how) in unbounded_figures(seg) {
        r.metric(name, value, unit, how);
    }
    r.metric(
        "transport.queue_high_water",
        served.queue_high_water as f64,
        "count",
        "OverloadStats after the saturating phase".into(),
    );
    r.timing(
        "coordinator.apply_user_p50_us",
        "coordinator.apply_user_p99_us",
        "us",
        &tracer.durations_us("coordinator.apply_user"),
    );
    r.timing(
        "coordinator.apply_event_p50_us",
        "coordinator.apply_event_p99_us",
        "us",
        &event_us,
    );
    r.metric(
        "coordinator.read_p50_us",
        inproc_read,
        "us",
        format!("median, n={}", read_us.len()),
    );

    let applies = inputs.deltas.len() as f64 / 1e3;
    let per_k = |a: u64, b: u64| (a - b) as f64 / applies;
    r.metric(
        "shard.greedy_patches",
        per_k(after.greedy_patches, before.greedy_patches),
        "per_1k",
        "per 1k applies".into(),
    );
    r.metric(
        "shard.full_resolves",
        per_k(after.full_resolves, before.full_resolves),
        "per_1k",
        "per 1k applies".into(),
    );
    r.metric(
        "shard.staleness_checks",
        per_k(after.staleness_checks, before.staleness_checks),
        "per_1k",
        "per 1k applies".into(),
    );
    r.metric(
        "shard.staleness_resolves",
        per_k(after.staleness_resolves, before.staleness_resolves),
        "per_1k",
        "per 1k applies".into(),
    );
    r.metric(
        "shard.quota_updates",
        per_k(after.quota_updates, before.quota_updates),
        "per_1k",
        "per 1k applies".into(),
    );
    let checks = after.staleness_checks - before.staleness_checks;
    let adopted = after.staleness_resolves - before.staleness_resolves;
    r.metric(
        "shard.staleness_adopt_ratio",
        if checks == 0 {
            0.0
        } else {
            adopted as f64 / checks as f64
        },
        "ratio",
        format!("{adopted} of {checks}"),
    );
    let apply_spans: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("coordinator.apply_"))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let solve_ms: Vec<f64> = apply_spans
        .iter()
        .zip(&out.solve_flags)
        .filter(|(_, f)| **f)
        .map(|(d, _)| *d)
        .collect();
    r.metric(
        "shard.resolve_ms",
        stats::median(&solve_ms),
        "ms",
        format!("median of {} applies that ran a solve", solve_ms.len()),
    );

    let rebalance_us = tracer.durations_us("reconcile.rebalance");
    r.metric(
        "reconcile.rebalance_us",
        rebalance_us.iter().sum(),
        "us",
        "closing rebalance".into(),
    );
    let cs = engine.coordinator_stats();
    r.metric(
        "reconcile.passes",
        cs.reconcile_passes as f64,
        "count",
        "coordinator_stats".into(),
    );
    r.metric(
        "reconcile.quota_moved",
        cs.quota_moved as f64,
        "count",
        "coordinator_stats".into(),
    );
    r.metric(
        "reconcile.boundary_events",
        out.rebalance.boundary_events as f64,
        "count",
        "closing rebalance report".into(),
    );
    r.metric(
        "catalog.events_final",
        engine.catalog().num_events() as f64,
        "count",
        "catalog()".into(),
    );
    r.metric(
        "catalog.epoch_final",
        engine.catalog().epoch() as f64,
        "count",
        "catalog()".into(),
    );

    r.timing(
        "durability.log_p50_us",
        "durability.log_p99_us",
        "us",
        &tracer.durations_us("durability.log"),
    );
    let ckpt = tracer.durations_us("durability.checkpoint");
    r.metric(
        "durability.checkpoint_ms",
        stats::median(&ckpt) / 1e3,
        "ms",
        format!("median, n={}", ckpt.len()),
    );
    let wal = out.wal.clone().ok_or("traced replay kept no wal")?;
    let records = wal.wal_records.max(1) as f64;
    r.metric(
        "durability.wal_bytes_per_record",
        wal.wal_bytes as f64 / records,
        "bytes",
        format!("{} records, fsync {}", wal.wal_records, wal.policy),
    );
    r.metric(
        "durability.fsyncs_per_record",
        wal.fsyncs as f64 / records,
        "ratio",
        format!("{} fsyncs", wal.fsyncs),
    );
    r.metric(
        "durability.checkpoints",
        wal.checkpoints as f64,
        "count",
        "DurabilityController::stats".into(),
    );
    r.metric(
        "durability.snapshot_bytes",
        out.snapshot_bytes as f64,
        "bytes",
        "last snapshot written".into(),
    );
    let load_ms = replay::snapshot_load_ms(&dir)?;
    r.metric(
        "durability.snapshot_load_ms",
        load_ms,
        "ms",
        "load_newest".into(),
    );
    let (rec_s, restore_s, rec) = recover_timed(&dir, base, seed)?;
    r.check(
        "traced wal recovers bit-exact",
        bits_equal(rec.engine.merged_utility().total, served.utility),
    );
    let tail = rec.report.replayed.max(1) as f64;
    let replay_us = (rec_s - restore_s) * 1e6 - load_ms * 1e3;
    r.metric(
        "durability.replay_us_per_record",
        replay_us / tail,
        "us",
        format!(
            "(recover - snapshot load - restore) / {} tail records",
            rec.report.replayed
        ),
    );

    // LP layer on the first two instances of the run's Table-I set. The
    // LP is timed before and after the full solve so that a drift between
    // them cancels.
    let lp_inputs = &lp_set[..lp_set.len().min(2)];
    let lp = LpPacking::default();
    let lp_only = |instance: &Instance| -> Result<f64, String> {
        let start = Instant::now();
        let index = AdmissibleSetIndex::build_with_limit(instance, lp.admissible_set_limit)
            .map_err(|e| format!("admissible sets: {e}"))?;
        black_box(lp.solve_benchmark_lp(instance, &index));
        Ok(secs(start) * 1e3)
    };
    let (mut lp_ms, mut round_ms) = (Vec::new(), Vec::new());
    for (i, instance) in lp_inputs.iter().enumerate() {
        let before = lp_only(instance)?;
        let start = Instant::now();
        let arrangement = lp.run_seeded(instance, workload::lp_seed(seed, i));
        let arrange = secs(start) * 1e3;
        r.check(
            "LP-packing arrangement feasible",
            arrangement.is_feasible(instance),
        );
        let lp_mean = (before + lp_only(instance)?) / 2.0;
        lp_ms.push(lp_mean);
        round_ms.push(arrange - lp_mean);
    }
    r.metric(
        "algos.lp_ms",
        median(&lp_ms),
        "ms",
        format!(
            "admissible sets + solve_benchmark_lp, median of {}",
            lp_ms.len()
        ),
    );
    r.metric(
        "algos.rounding_ms",
        median(&round_ms),
        "ms",
        format!("run_seeded - LP, median of {}", round_ms.len()),
    );

    for (layer, self_ms) in spans::layer_self_ms(tracer.spans()) {
        r.metric(
            &format!("self.{layer}_ms"),
            self_ms,
            "ms",
            "span self time summed over the traced run".into(),
        );
    }
    let late = Summary::of(&served.applies.lateness_us);
    r.metric(
        "transport.cached_utility_ulps",
        served.cached_ulps as f64,
        "count",
        "cached Utility read vs the engine's exact merge".into(),
    );
    r.metric(
        "bench.gen_late_p99_us",
        late.tail.value(),
        "us",
        format!("{}, n={}", late.tail.label(), late.n),
    );
    r.metric(
        "bench.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
        format!("traced {traced_s} s vs untraced {untraced_s} s over two unpaced replays each"),
    );

    let path = PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", spec.name, seed));
    tracer.write_jsonl(&path).map_err(io_err("write spans"))?;
    r.note(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arrbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            if !report.correct() {
                eprintln!("arrbench: an output check failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("arrbench: {e}");
            std::process::exit(1);
        }
    }
}
