//! `perfbench`: the serving benchmark of this repository.
//!
//! One run drives one seeded workload ([`spec`]) against the public
//! `pl_serve::Server` / `pl_router::Router` API ([`gen`]), checks sampled
//! outputs bitwise against a single-session replay ([`check`]) and reports
//! end-to-end metrics ([`report`]). A traced run (`--trace 1`) reports the
//! per-layer ledger instead ([`ledger`]): layer replays at the workload's
//! shapes divided by a host roofline measured in a separate process
//! ([`probe`]), and live counters from a traced half-window whose spans
//! ([`trace`]) are written under `perfbench/out/`.

pub mod check;
pub mod gen;
pub mod inputs;
pub mod ledger;
pub mod probe;
pub mod report;
pub mod spec;
pub mod stats;
pub mod target;
pub mod trace;

use ledger::{Grid, Metric};
use pl_dnn::DecoderModel;
use pl_perfmodel::Platform;
use pl_router::{Router, RouterConfig};
use pl_runtime::ThreadPool;
use pl_serve::Server;
use spec::{Load, Traffic, Workload, SETUPS, WARMUP_S};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};
use target::Target;
use trace::Tracer;

/// Seed of the model weights (the same on every run; `--seed` drives the
/// inputs).
pub const MODEL_SEED: u64 = 0x5EED_0001;

/// Builds the model and the serving stack, warms tuning and starts the
/// batchers — everything before the first request can be sent. Returns
/// the stack and the seconds it took.
pub fn setup(w: &Workload) -> (Arc<DecoderModel>, Target, f64) {
    let start = Instant::now();
    let model = Arc::new(DecoderModel::new(w.model, MODEL_SEED));
    let target = match w.traffic {
        Traffic::Closed { .. } => {
            let pool = Arc::new(ThreadPool::new(w.threads));
            let mut server = Server::new(Arc::clone(&model), pool, w.server_config());
            server.warm_tuning(&Platform::generic_host(w.threads), w.threads);
            server.start();
            Target::Server(server)
        }
        Traffic::Chat { shards, .. } => {
            let cfg = RouterConfig {
                shards,
                total_threads: shards * w.threads,
                server: w.server_config(),
                ..RouterConfig::default()
            };
            let mut router = Router::new(Arc::clone(&model), cfg).expect("a valid router config");
            router.warm_tuning(&Platform::generic_host(shards * w.threads));
            router.start();
            Target::Router(Box::new(router))
        }
    };
    (model, target, start.elapsed().as_secs_f64())
}

/// Where a run writes its files: `perfbench/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything one run produced.
pub struct Outcome {
    /// Whether every checked output matched its replay.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed, refused, timed out or mismatched.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or the per-layer ledger (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report.
    pub report: String,
}

/// How a run is invoked.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Produce the per-layer ledger instead of end-to-end metrics.
    pub trace: bool,
    /// Run at the self-test size: [`Workload::tiny`] and small probe
    /// arrays.
    pub tiny: bool,
    /// This benchmark's executable, which runs the host probe
    /// (`<exe> --probe`) and the timed set-ups (`<exe> --setup <name>`).
    pub exe: PathBuf,
    /// Where the traced run writes its spans (`None`: nowhere).
    pub spans_dir: Option<PathBuf>,
}

impl Options {
    /// `w` at the size this run uses.
    pub fn scale(&self, w: &Workload) -> Workload {
        if self.tiny {
            w.tiny()
        } else {
            w.clone()
        }
    }

    /// The per-layer operating points: those of every workload, at the
    /// size this run uses.
    pub fn grid(&self) -> Grid {
        let ws: Vec<Workload> = spec::workloads().iter().map(|w| self.scale(w)).collect();
        Grid::of(&ws)
    }

    fn probe_mib(&self) -> usize {
        if self.tiny {
            4
        } else {
            spec::PROBE_MIB
        }
    }
}

/// Times one set-up of workload `name` in a fresh process
/// (`<exe> --setup <name>`), so every sample starts with empty kernel
/// and plan caches. Returns its seconds.
pub fn setup_child(exe: &Path, name: &str, tiny: bool) -> Result<f64, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--setup", name]);
    if tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("starting a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
        .ok_or_else(|| "set-up process printed no time".into())
}

/// Runs workload `w` (scaled by `opt`).
pub fn run(w: &Workload, opt: &Options) -> Result<Outcome, String> {
    let w = &opt.scale(w);
    let mut report = format!("# {} seed={} host {}\n", w.name, opt.seed, probe::fingerprint());
    // Probe first, in its own process, before this one allocates anything.
    let host = if opt.trace { Some(probe::run_child(&opt.exe, opt.probe_mib())?) } else { None };

    // Every timed set-up runs cold, in a process of its own; this
    // process's own set-up is not timed.
    let setup_s = (0..SETUPS)
        .map(|_| setup_child(&opt.exe, w.name, opt.tiny))
        .collect::<Result<Vec<_>, _>>()?;
    let (model, target, _) = setup(w);
    let target = Arc::new(target);

    let mut tracer = Tracer::new(false);
    let plan = gen::Plan {
        warmup: Duration::from_secs_f64(WARMUP_S),
        window: Duration::from_secs_f64(opt.seconds),
        trace_split: opt.trace,
    };
    let log = gen::run(w, Arc::clone(&target), opt.seed, plan, &mut tracer);
    let rss = report::peak_rss_mb();

    let pool = ThreadPool::new(w.threads);
    let verdict = check::replay(w, &model, opt.seed, &log.checks, &pool);
    report.push_str(&format!(
        "# output check: {} sessions, {} outputs replayed, {} mismatched{}\n",
        verdict.sessions,
        verdict.outputs,
        verdict.mismatches,
        verdict.first.as_deref().map(|f| format!(" (first: {f})")).unwrap_or_default(),
    ));
    for (why, n) in &log.errors {
        report.push_str(&format!("# failure x{n}: {why}\n"));
    }
    report.push_str(&format!("# set-ups (s): {setup_s:?}\n"));
    let (attempted, failed) = report::failures(&log, verdict.mismatches);
    let correct = verdict.mismatches == 0 && verdict.sessions > 0;

    let metrics = match host {
        None => {
            let rows = report::end_to_end(w, &log, &setup_s, rss, verdict.mismatches);
            report.push_str(&report::table(&rows));
            rows.into_iter().map(|r| r.metric).collect()
        }
        Some(host) => {
            let live_point = w.decode_point();
            let grid = opt.grid();
            let mut metrics = ledger::replay_layers(w, &model, &host, &grid, &mut tracer);
            let point_us = metrics
                .iter()
                .find(|m| m.name == format!("llm.decode_us.b{}.ctx{}", live_point.0, live_point.1))
                .map_or(0.0, |m| m.value);
            metrics.extend(ledger::live_layers(w, &log, &target, point_us));
            let order = ledger::names(&grid);
            metrics.sort_by_key(|m| order.iter().position(|(n, _)| *n == m.name));
            for m in &metrics {
                report.push_str(&format!("{:<40} {:>16.6} {}\n", m.name, m.value, m.unit));
            }
            if let Some(dir) = &opt.spans_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                let path = dir.join(format!("spans-{}.jsonl", w.name));
                let header = format!(
                    "{{\"workload\":\"{}\",\"seed\":{},\"host\":\"{}\"}}",
                    w.name,
                    opt.seed,
                    probe::fingerprint().replace('"', "'")
                );
                std::fs::write(&path, tracer.to_jsonl(&header))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                report.push_str(&format!(
                    "# {} spans written to {}\n",
                    tracer.spans().len(),
                    path.display()
                ));
            }
            metrics
        }
    };
    Ok(Outcome { correct, attempted, failed, metrics, report })
}

/// Closed-loop request capacity (requests/s) of a chat workload's request
/// mix: `clients` requests kept in flight back to back for `seconds`, with
/// the failures seen. The frozen arrival rate of an open-loop workload in
/// [`spec`] is a fraction of it.
pub fn capacity(w: &Workload, clients: usize, seconds: f64) -> (f64, Vec<(String, usize)>) {
    let mut w = w.clone();
    if let Traffic::Chat { ref mut load, .. } = w.traffic {
        *load = Load::Clients(clients);
    }
    let (_model, target, _) = setup(&w);
    let plan = gen::Plan {
        warmup: Duration::from_secs(1),
        window: Duration::from_secs_f64(seconds),
        trace_split: false,
    };
    let log = gen::run(&w, Arc::new(target), 1, plan, &mut Tracer::new(false));
    let done = log
        .ops
        .iter()
        .filter(|o| {
            o.ok && o.kind == gen::Kind::Close && o.done >= log.w_start && o.done < log.w_end
        })
        .count();
    (done as f64 / seconds, log.errors)
}
