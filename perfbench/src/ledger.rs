//! The per-layer ledger of the traced run.
//!
//! Two sources feed it. *Layer replays* call each layer's public entry
//! points at the exact shapes the workloads produce (BRGEMM blocks, plan
//! projections, decoder steps, pool regions, router calls) and divide the
//! achieved rate by the host roofline the probe measured. *Live counters*
//! come from the traced half of the workload run itself: pool and prefix
//! state, batcher counters, placement, and the generator's own timing.
//!
//! Metric names are the same on every workload: each workload measures
//! the union of the operating points all workloads run, on its own model,
//! so a metric predicted not to move on a workload is measured there too.

use crate::gen::{Kind, Log};
use crate::inputs::{self, Stream};
use crate::probe::Host;
use crate::spec::Workload;
use crate::stats::{median, percentile};
use crate::target::Target;
use crate::trace::Tracer;
use pl_dnn::{
    prefill_chunk_widths, DecoderModel, DecoderState, KvPagePool, KvSnapshot, MatmulPlan,
    DEFAULT_PAGE_TOKENS,
};
use pl_kernels::GemmShape;
use pl_router::{Router, RouterConfig};
use pl_runtime::ThreadPool;
use pl_tpp::{Brgemm, BrgemmDesc};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The plan projections of a decoder block, by `(m, k)`.
pub const PROJECTIONS: [&str; 3] = ["qkvo", "ffn_up", "ffn_down"];

fn projection_name(m: usize, k: usize, hidden: usize) -> &'static str {
    match (m == hidden, k == hidden) {
        (true, true) => "qkvo",
        (false, true) => "ffn_up",
        _ => "ffn_down",
    }
}

/// The operating points every workload's ledger measures: the union over
/// `workloads` of decode `(batch, context)` points and activation widths.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Decode `(batch, mean context)` points, one per workload.
    pub decode: Vec<(usize, usize)>,
    /// Prefill chunk widths the workloads run.
    pub prefill: Vec<usize>,
    /// Activation widths of plan executions: decode (1) and the chunks.
    pub widths: Vec<usize>,
}

impl Grid {
    /// The grid of a workload set.
    pub fn of(workloads: &[Workload]) -> Grid {
        let mut decode = Vec::new();
        let mut prefill = Vec::new();
        for w in workloads {
            if !decode.contains(&w.decode_point()) {
                decode.push(w.decode_point());
            }
            prefill.extend(prefill_chunk_widths(w.prompt_tokens(), w.prefill_chunk));
        }
        prefill.sort_unstable();
        prefill.dedup();
        let mut widths = vec![1];
        widths.extend(prefill.iter().copied().filter(|&n| n != 1));
        Grid { decode, prefill, widths }
    }
}

/// Every per-layer metric name with its unit, in report order.
pub fn names(grid: &Grid) -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("host.fma_gflops_1t".into(), "GFLOPS"),
        ("host.fma_gflops_2t".into(), "GFLOPS"),
        ("host.stream_gbs".into(), "GB/s"),
    ];
    for role in ["decode", "prefill"] {
        out.push((format!("tpp.brgemm_gflops.{role}"), "GFLOPS"));
        out.push((format!("tpp.brgemm_roofline_frac.{role}"), "ratio"));
    }
    for proj in PROJECTIONS {
        for n in &grid.widths {
            out.push((format!("prepared.gflops.{proj}.n{n}"), "GFLOPS"));
            out.push((format!("prepared.roofline_frac.{proj}.n{n}"), "ratio"));
        }
    }
    for n in &grid.widths {
        out.push((format!("prepared.pack_us.n{n}"), "us"));
    }
    for (b, c) in &grid.decode {
        out.push((format!("llm.decode_us.b{b}.ctx{c}"), "us"));
    }
    for w in &grid.prefill {
        out.push((format!("llm.prefill_us.w{w}"), "us"));
    }
    out.push(("llm.non_gemm_frac".into(), "ratio"));
    for (n, u) in [
        ("kvpool.pages_peak", "pages"),
        ("kvpool.bytes_per_session", "B"),
        ("kvpool.shared_page_frac", "ratio"),
        ("kvpool.cow_splits", "count"),
        ("kvpool.spilled", "count"),
        ("serve.mean_batch", "items"),
        ("serve.batch_fill_frac", "ratio"),
        ("serve.wait_us", "us"),
        ("serve.prefill_chunks", "count"),
        ("serve.mixed_batches", "count"),
        ("serve.rejected_frac", "ratio"),
        ("router.create_us", "us"),
        ("router.step_overhead_us", "us"),
        ("router.prefix_local_frac", "ratio"),
        ("router.shard_imbalance", "ratio"),
        ("runtime.region_us", "us"),
        ("gen.lag_p99_ms", "ms"),
        ("gen.sent", "count"),
        ("gen.succeeded", "count"),
        ("gen.failed", "count"),
        ("trace.overhead_frac", "ratio"),
    ] {
        out.push((n.into(), u));
    }
    out
}

/// Per-call time budget of one replay measurement.
const BUDGET: Duration = Duration::from_millis(250);
/// Minimum timed repetitions of one replay measurement.
const MIN_REPS: usize = 3;

/// Times `run` (each call on a fresh `setup()` value, built off the
/// clock) until both [`MIN_REPS`] and [`BUDGET`] are met, recording one
/// span per call. Returns the median call time in µs.
fn measure<S>(
    tr: &mut Tracer,
    name: &'static str,
    parent: u64,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    run(setup()); // warm caches and lazily built kernels
    let begin = Instant::now();
    let mut us = Vec::new();
    while us.len() < MIN_REPS || (begin.elapsed() < BUDGET && us.len() < 100_000) {
        let s = setup();
        let start = Instant::now();
        run(s);
        let end = Instant::now();
        tr.record(name, parent, 0, start, end);
        us.push((end - start).as_secs_f64() * 1e6);
    }
    median(&us)
}

/// [`measure`] for an operation too cheap to time singly: each timed
/// sample repeats it for at least ~200 µs. Returns µs per call.
fn measure_cheap(tr: &mut Tracer, name: &'static str, parent: u64, mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    call();
    let one = start.elapsed().as_secs_f64();
    let per = ((200e-6 / one.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    measure(
        tr,
        name,
        parent,
        || (),
        |()| {
            for _ in 0..per {
                call();
            }
        },
    ) / per as f64
}

/// A fresh decoder state restored from `snap` into a private pool.
fn state_at(model: &DecoderModel, snap: &KvSnapshot) -> DecoderState {
    let pool = KvPagePool::new(model.config().hidden, DEFAULT_PAGE_TOKENS);
    model.state_from_snapshot(&pool, snap).expect("an unbounded pool never exhausts")
}

/// The KV state after a seeded `ctx`-token prompt, with room for `extra`
/// more tokens. The prompt is prefilled once, off the clock, in 64-wide
/// chunks; each timed state is restored from the snapshot.
fn snapshot(model: &DecoderModel, pool: &ThreadPool, ctx: usize, extra: usize) -> KvSnapshot {
    let h = model.config().hidden;
    let prompt = inputs::vector(0x5EED, Stream::Prompt, u64::MAX, ctx as u64, h * ctx);
    let mut state = model.new_state(ctx + extra);
    model.forward_chunked(&mut state, &prompt, ctx, 64, pool);
    state.snapshot()
}

/// Decode steps timed per restored batch of states (context drifts by at
/// most this many tokens from the nominal point).
const STEPS_PER_RESTORE: usize = 4;

/// Median µs of one `step_batch` over `b` sessions at context `ctx`.
fn decode_us(
    tr: &mut Tracer,
    parent: u64,
    model: &DecoderModel,
    pool: &ThreadPool,
    b: usize,
    ctx: usize,
) -> f64 {
    let h = model.config().hidden;
    let snap = snapshot(model, pool, ctx, STEPS_PER_RESTORE + 1);
    let x = inputs::vector(1, Stream::Step, 0, 0, h);
    let states = std::cell::RefCell::new(Vec::<DecoderState>::new());
    let mut used = STEPS_PER_RESTORE;
    measure(
        tr,
        "pl_dnn.llm.step_batch",
        parent,
        || {
            if used == STEPS_PER_RESTORE {
                *states.borrow_mut() = (0..b).map(|_| state_at(model, &snap)).collect();
                used = 0;
            }
            used += 1;
        },
        |()| {
            let mut states = states.borrow_mut();
            let batch = states.iter_mut().map(|s| (s, x.as_slice())).collect();
            black_box(model.step_batch(batch, pool));
        },
    )
}

/// Share of a single-session decode step at context `ctx` spent outside
/// the projection GEMMs (attention, norms, glue). Each round times one
/// step, then the plan executions a step makes (per layer: four `qkvo`,
/// one `ffn_up`, one `ffn_down` at n = 1), so a drift in host speed hits
/// both sides of the ratio alike.
fn non_gemm_frac(
    tr: &mut Tracer,
    parent: u64,
    model: &DecoderModel,
    pool: &ThreadPool,
    ctx: usize,
) -> f64 {
    let cfg = *model.config();
    let mut problems = Vec::new();
    model.plan_problems(1, &mut problems);
    let plans: Vec<(MatmulPlan, Vec<f32>, usize)> = problems
        .iter()
        .map(|p| {
            let weights = inputs::vector(4, Stream::Prompt, p.m as u64, p.k as u64, p.m * p.k);
            let plan = MatmulPlan::new(&weights, pl_dnn::matmul::Trans::No, p.m, p.k);
            plan.warm(1);
            let per_layer = if projection_name(p.m, p.k, cfg.hidden) == "qkvo" { 4 } else { 1 };
            (plan, inputs::vector(5, Stream::Prompt, p.k as u64, 1, p.k), per_layer * cfg.layers)
        })
        .collect();
    let snap = snapshot(model, pool, ctx, 2);
    let x = inputs::vector(1, Stream::Step, 0, 0, cfg.hidden);
    let (mut b_buf, mut c_buf) = (pl_dnn::ActivationBuf::new(), pl_dnn::ActivationBuf::new());
    let begin = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < 2 * MIN_REPS || begin.elapsed() < BUDGET {
        let mut state = state_at(model, &snap);
        let t = Instant::now();
        black_box(model.step_batch(vec![(&mut state, x.as_slice())], pool));
        let m = Instant::now();
        for (plan, act, reps) in &plans {
            let packed = plan.pack_activations(act, 1, &mut b_buf);
            for _ in 0..*reps {
                black_box(plan.execute_packed(packed, &mut c_buf, pool));
            }
        }
        let e = Instant::now();
        tr.record("pl_dnn.llm.step_batch", parent, 0, t, m);
        tr.record("pl_dnn.prepared.execute_packed", parent, 0, m, e);
        ratios.push((e - m).as_secs_f64() / (m - t).as_secs_f64());
    }
    1.0 - median(&ratios)
}

/// Replays every layer entry point at the grid's shapes on `model`.
pub fn replay_layers(
    w: &Workload,
    model: &Arc<DecoderModel>,
    host: &Host,
    grid: &Grid,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let cfg = *model.config();
    let h = cfg.hidden;
    let threads = w.threads;
    let pool = ThreadPool::new(threads);
    let mut out = vec![
        metric("host.fma_gflops_1t", host.fma_1t, "GFLOPS"),
        metric("host.fma_gflops_2t", host.fma_2t, "GFLOPS"),
        metric("host.stream_gbs", host.stream_gbs, "GB/s"),
    ];

    // pl_tpp: one BRGEMM call at the FFN-up projection's block shape.
    let root = tr.reserve();
    let start = Instant::now();
    let own_chunk = prefill_chunk_widths(w.prompt_tokens(), w.prefill_chunk)[0];
    for (role, n) in [("decode", 1usize), ("prefill", own_chunk)] {
        let (bm, bn, bk) = (
            GemmShape::default_block(cfg.ffn),
            GemmShape::default_block(n),
            GemmShape::default_block(h),
        );
        let br = h / bk;
        let a = inputs::vector(2, Stream::Prompt, 0, 0, bm * bk * br);
        let b = inputs::vector(3, Stream::Prompt, 0, 0, bk * bn * br);
        let mut c = vec![0.0f32; bm * bn];
        let kernel = Brgemm::<f32, f32, f32>::new(BrgemmDesc::blocked(bm, bn, bk));
        let us = measure_cheap(tr, "pl_tpp.brgemm.execute_stride", root, || {
            kernel.execute_stride(&a, bm * bk, &b, bk * bn, black_box(&mut c), br)
        });
        let flops = 2.0 * (bm * bn * bk * br) as f64;
        let bytes = 4.0 * (bm * bk * br + bk * bn * br + bm * bn) as f64;
        let gflops = flops / us / 1e3;
        out.push(metric(format!("tpp.brgemm_gflops.{role}"), gflops, "GFLOPS"));
        out.push(metric(
            format!("tpp.brgemm_roofline_frac.{role}"),
            gflops / host.roof(1, flops / bytes),
            "ratio",
        ));
    }
    tr.record_as(root, "ledger.pl_tpp", 0, 0, start, Instant::now());

    // pl_dnn::prepared: each projection plan at each width.
    let root = tr.reserve();
    let start = Instant::now();
    for &n in &grid.widths {
        let mut problems = Vec::new();
        model.plan_problems(n, &mut problems);
        let mut rows: Vec<(&str, f64, f64)> = Vec::new();
        for p in &problems {
            let weights = inputs::vector(4, Stream::Prompt, p.m as u64, p.k as u64, p.m * p.k);
            let plan = MatmulPlan::new(&weights, pl_dnn::matmul::Trans::No, p.m, p.k);
            plan.warm(n);
            let act = inputs::vector(5, Stream::Prompt, p.k as u64, n as u64, p.k * n);
            let mut b_buf = pl_dnn::ActivationBuf::new();
            let mut c_buf = pl_dnn::ActivationBuf::new();
            let packed = plan.pack_activations(&act, n, &mut b_buf);
            let us = measure(
                tr,
                "pl_dnn.prepared.execute_packed",
                root,
                || (),
                |()| {
                    black_box(plan.execute_packed(packed, &mut c_buf, &pool));
                },
            );
            let flops = 2.0 * (p.m * n * p.k) as f64;
            let bytes = 4.0 * (p.m * p.k + p.k * n + p.m * n) as f64;
            let gflops = flops / us / 1e3;
            rows.push((
                projection_name(p.m, p.k, h),
                gflops,
                gflops / host.roof(threads, flops / bytes),
            ));
        }
        for proj in PROJECTIONS {
            let (_, g, f) = rows.iter().find(|r| r.0 == proj).copied().unwrap_or((proj, 0.0, 0.0));
            out.push(metric(format!("prepared.gflops.{proj}.n{n}"), g, "GFLOPS"));
            out.push(metric(format!("prepared.roofline_frac.{proj}.n{n}"), f, "ratio"));
        }
    }
    for &n in &grid.widths {
        let weights = inputs::vector(4, Stream::Prompt, 0, 0, h * h);
        let plan = MatmulPlan::new(&weights, pl_dnn::matmul::Trans::No, h, h);
        let act = inputs::vector(5, Stream::Prompt, 0, n as u64, h * n);
        let mut buf = pl_dnn::ActivationBuf::new();
        let us = measure_cheap(tr, "pl_dnn.prepared.pack_activations", root, || {
            black_box(plan.pack_activations(&act, n, &mut buf));
        });
        out.push(metric(format!("prepared.pack_us.n{n}"), us, "us"));
    }
    tr.record_as(root, "ledger.pl_dnn.prepared", 0, 0, start, Instant::now());

    // pl_dnn::llm: decoder steps and prefill chunks at the grid points.
    let root = tr.reserve();
    let start = Instant::now();
    for &(b, ctx) in &grid.decode {
        let us = decode_us(tr, root, model, &pool, b, ctx);
        out.push(metric(format!("llm.decode_us.b{b}.ctx{ctx}"), us, "us"));
    }
    for &width in &grid.prefill {
        let x = inputs::vector(6, Stream::Prompt, 0, 0, h * width);
        let us = measure(
            tr,
            "pl_dnn.llm.forward",
            root,
            || model.new_state(width),
            |mut s| {
                black_box(model.forward(&mut s, &x, width, &pool));
            },
        );
        out.push(metric(format!("llm.prefill_us.w{width}"), us, "us"));
    }
    let frac = non_gemm_frac(tr, root, model, &pool, w.decode_point().1);
    out.push(metric("llm.non_gemm_frac", frac, "ratio"));
    tr.record_as(root, "ledger.pl_dnn.llm", 0, 0, start, Instant::now());

    // pl_runtime: an empty two-thread region.
    let root = tr.reserve();
    let start = Instant::now();
    let pool2 = ThreadPool::new(2);
    let us = measure_cheap(tr, "pl_runtime.parallel", root, || pool2.parallel(|_| {}));
    out.push(metric("runtime.region_us", us, "us"));
    tr.record_as(root, "ledger.pl_runtime", 0, 0, start, Instant::now());

    out.extend(router_replay(w, model, tr));
    out
}

/// Times `Router::create_session` and the router's per-step overhead over
/// a direct call into the owning shard, on a fresh two-shard router.
fn router_replay(w: &Workload, model: &Arc<DecoderModel>, tr: &mut Tracer) -> Vec<Metric> {
    let root = tr.reserve();
    let start = Instant::now();
    let cfg = RouterConfig {
        shards: 2,
        total_threads: 2,
        server: w.server_config(),
        ..RouterConfig::default()
    };
    let mut router = Router::new(Arc::clone(model), cfg).expect("a valid router config");
    router.start();
    let mut create = Vec::new();
    for _ in 0..40 {
        let t = Instant::now();
        let id = router.create_session(0).expect("an idle router admits a session");
        let e = Instant::now();
        tr.record("pl_router.create_session", root, 0, t, e);
        create.push((e - t).as_secs_f64() * 1e6);
        router.close_session(id).expect("closing an idle session");
    }
    let h = w.model.hidden;
    let x = inputs::vector(7, Stream::Step, 0, 0, h);
    let routed = router.create_session(0).expect("admit");
    router.prefill(routed, &x, 1).expect("one-token prefill");
    let shard = router.placement_of(routed).expect("a placed session");
    let server = router.shard(shard).server();
    let direct = server.create_session(0).expect("admit");
    server.prefill(direct, &x, 1).expect("one-token prefill");
    // The step itself costs the same either way; time only the submission
    // (routing lookup + shard dispatch), waiting for each reply off the clock.
    let steps = 32.min(w.kv_capacity() - 1);
    let (mut via_router, mut via_shard) = (Vec::new(), Vec::new());
    for _ in 0..steps {
        let t = Instant::now();
        let reply = router.submit_step(routed, &x).expect("router submit");
        let e = Instant::now();
        tr.record("pl_router.submit_step", root, 0, t, e);
        via_router.push((e - t).as_secs_f64() * 1e6);
        black_box(reply.recv().expect("a reply").expect("router step"));
        let t = Instant::now();
        let reply = server.submit_step(direct, &x).expect("shard submit");
        let e = Instant::now();
        tr.record("pl_serve.submit_step", root, 0, t, e);
        via_shard.push((e - t).as_secs_f64() * 1e6);
        black_box(reply.recv().expect("a reply").expect("shard step"));
    }
    router.shutdown();
    tr.record_as(root, "ledger.pl_router", 0, 0, start, Instant::now());
    vec![
        metric("router.create_us", median(&create), "us"),
        metric("router.step_overhead_us", median(&via_router) - median(&via_shard), "us"),
    ]
}

/// Counters from the traced half of the run (`log.w_mid ..= log.w_end`).
pub fn live_layers(w: &Workload, log: &Log, target: &Target, decode_point_us: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let servers = target.servers();
    let page_bytes = servers[0].kv_pool().page_bytes() as f64;
    let peak: usize = servers.iter().map(|s| s.kv_pool().peak_pages()).sum();
    let with_sessions: Vec<_> = log.samples.iter().filter(|s| s.sessions > 0).collect();
    let per_session: Vec<f64> = with_sessions
        .iter()
        .map(|s| s.kv_allocated as f64 * page_bytes / s.sessions as f64)
        .collect();
    let allocated: usize = log.samples.iter().map(|s| s.kv_allocated).sum();
    let shared: usize = log.samples.iter().map(|s| s.kv_shared).sum();
    let (mid, end) = (&log.marks[1], &log.marks[2]);
    out.push(metric("kvpool.pages_peak", peak as f64, "pages"));
    out.push(metric("kvpool.bytes_per_session", mean(&per_session), "B"));
    out.push(metric("kvpool.shared_page_frac", ratio(shared as f64, allocated as f64), "ratio"));
    out.push(metric("kvpool.cow_splits", (end.cow_splits - mid.cow_splits) as f64, "count"));
    let spilled = log.samples.iter().map(|s| s.spilled).max().unwrap_or(0);
    out.push(metric("kvpool.spilled", spilled as f64, "count"));

    let delta = |f: fn(&pl_serve::StatsSnapshot) -> u64| (f(&end.stats) - f(&mid.stats)) as f64;
    let count_at = |s: &pl_serve::StatsSnapshot, size: usize| {
        s.batch_distribution.iter().find(|(b, _)| *b == size).map_or(0, |(_, c)| *c)
    };
    let (mut items, mut batches) = (0.0, 0.0);
    for &(size, n) in &end.stats.batch_distribution {
        let d = (n - count_at(&mid.stats, size)) as f64;
        items += d * size as f64;
        batches += d;
    }
    let mean_batch = ratio(items, batches);
    let traced_ops: Vec<_> = log.ops.iter().filter(|o| o.sent >= log.w_mid).collect();
    let itl: Vec<f64> = traced_ops
        .iter()
        .filter(|o| o.ok && o.kind == Kind::Step && o.sent < log.w_end)
        .map(|o| (o.done - o.sent).as_secs_f64() * 1e6)
        .collect();
    out.push(metric("serve.mean_batch", mean_batch, "items"));
    out.push(metric("serve.batch_fill_frac", mean_batch / w.max_batch as f64, "ratio"));
    out.push(metric("serve.wait_us", median(&itl) - decode_point_us, "us"));
    out.push(metric("serve.prefill_chunks", delta(|s| s.prefill_chunks), "count"));
    out.push(metric("serve.mixed_batches", delta(|s| s.mixed_batches), "count"));
    let rejected = delta(|s| s.rejected_backpressure) + delta(|s| s.rejected_sessions);
    out.push(metric("serve.rejected_frac", ratio(rejected, traced_ops.len() as f64), "ratio"));

    let traced_reqs: Vec<_> =
        log.reqs.iter().filter(|r| r.due >= log.w_mid && r.due < log.w_end).collect();
    let placed: Vec<bool> = traced_reqs.iter().filter_map(|r| r.prefix_local).collect();
    let local = placed.iter().filter(|&&l| l).count();
    out.push(metric("router.prefix_local_frac", ratio(local as f64, placed.len() as f64), "ratio"));
    let imbalance: Vec<f64> = log
        .samples
        .iter()
        .filter(|s| s.score_mean > 0.0)
        .map(|s| s.score_max as f64 / s.score_mean)
        .collect();
    let imbalance = if imbalance.is_empty() { 1.0 } else { mean(&imbalance) };
    out.push(metric("router.shard_imbalance", imbalance, "ratio"));

    let lags: Vec<f64> = log
        .lags
        .iter()
        .filter(|(at, _)| *at >= log.w_mid && *at < log.w_end)
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .collect();
    out.push(metric("gen.lag_p99_ms", percentile(&lags, 0.99).value, "ms"));
    let window_reqs: Vec<_> =
        log.reqs.iter().filter(|r| r.due >= log.w_start && r.due < log.w_end).collect();
    let failed = window_reqs.iter().filter(|r| r.failed).count();
    out.push(metric("gen.sent", window_reqs.len() as f64, "count"));
    out.push(metric("gen.succeeded", (window_reqs.len() - failed) as f64, "count"));
    out.push(metric("gen.failed", failed as f64, "count"));

    // Median time per decode step, traced half over untraced half. In a
    // closed loop this is the inverse ratio of their decode rates; an open
    // loop's rate follows its schedule, so only the step time can show
    // what tracing costs.
    let itl_median = |from, to| {
        let itl: Vec<f64> = log
            .ops
            .iter()
            .filter(|o| o.ok && o.kind == Kind::Step && o.sent >= from && o.sent < to)
            .map(|o| (o.done - o.sent).as_secs_f64())
            .collect();
        median(&itl)
    };
    let untraced = itl_median(log.w_start, log.w_mid);
    let traced = itl_median(log.w_mid, log.w_end);
    out.push(metric("trace.overhead_frac", ratio(traced, untraced) - 1.0, "ratio"));
    out
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;

    #[test]
    fn grid_unions_workload_points() {
        let g = Grid::of(&workloads());
        assert_eq!(g.decode, vec![(8, 72), (2, 896), (1, 80), (2, 80)]);
        assert_eq!(g.prefill, vec![16, 64]);
        assert_eq!(g.widths, vec![1, 16, 64]);
        let names = names(&g);
        let unique: std::collections::HashSet<_> = names.iter().map(|n| &n.0).collect();
        assert_eq!(unique.len(), names.len());
    }
}
