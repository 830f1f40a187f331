//! The workloads: model, serving topology, traffic shape and SLO limits.
//!
//! Every constant a run depends on lives here and is frozen: the arrival
//! rate of `chat-router`, the client counts and the SLO limits are fixed
//! once and never recalibrated per run (see `BENCHMARK.json` for the
//! one-line reasons).

use pl_dnn::DecoderConfig;
use pl_serve::ServerConfig;

/// Latency limits a request must meet to count in `slo_ok_frac`.
///
/// Each workload's limits are 2x its own baseline, measured when the
/// benchmark was defined (median over a set of seeds of 45 s runs on a
/// shared 2-vCPU Xeon, AVX-512 capable) and rounded up to two significant
/// digits: `ttft_ms` is 2x the baseline `ttft_p90_ms` and `itl_ms` 2x the
/// baseline `itl_p99_us`. A request misses only when it runs twice as slow
/// as the baseline tail. 1.5x was tried first: contention from other
/// tenants of the host then made `slo_ok_frac` on `decode-h256` drop to
/// 0.74 in one run of ten, a reading of the host rather than the program.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Time-to-first-output limit (ms).
    pub ttft_ms: f64,
    /// Limit on every inter-token latency of the request (ms).
    pub itl_ms: f64,
}

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// A fixed number of sessions against one `Server`, each sending its
    /// next request when the previous reply arrives. A session prefills a
    /// unique prompt, decodes until its context reaches `ctx_target`,
    /// closes, and a fresh session takes its slot.
    Closed {
        /// Concurrent sessions.
        sessions: usize,
        /// Prompt tokens per session.
        prompt: usize,
        /// Context length (prompt + decoded tokens) at which a session closes.
        ctx_target: usize,
    },
    /// Chat turns through a `Router`; each request is a whole turn:
    /// `create_session`, a prompt made of a shared system prefix plus
    /// unique tokens, `decode_steps` decode steps, `close_session`.
    Chat {
        /// Router shards (one single-thread pool each).
        shards: usize,
        /// How requests arrive.
        load: Load,
        /// Distinct shared system prefixes (chosen Zipf-skewed, s = 1).
        prefixes: usize,
        /// Tokens per shared prefix.
        prefix_tokens: usize,
        /// Unique tokens appended to the prefix.
        unique_tokens: usize,
        /// Decode steps per request.
        decode_steps: usize,
    },
}

/// How the requests of a chat workload arrive.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: Poisson arrivals at this rate (requests per second),
    /// each timed from when it was due.
    Poisson(f64),
    /// Closed loop: this many clients, each opening its next request when
    /// the previous one closes.
    Clients(usize),
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Decoder architecture.
    pub model: DecoderConfig,
    /// Pool threads per `Server` (per shard under a router).
    pub threads: usize,
    /// `ServerConfig::max_batch`.
    pub max_batch: usize,
    /// `ServerConfig::prefill_chunk`.
    pub prefill_chunk: usize,
    /// Offered load.
    pub traffic: Traffic,
    /// Latency limits of `slo_ok_frac`.
    pub slo: Slo,
    /// Roughly one session in this many is replayed for the output check.
    pub check_every: u64,
    /// Upper bound on replayed sessions.
    pub check_max: usize,
}

/// Size of each stream-probe array: 4x the host's 105 MiB L3, so the
/// triad streams from DRAM.
pub const PROBE_MIB: usize = 4 * 105;

/// Set-ups timed per run, each in a fresh process; `setup_s` reports
/// their median.
pub const SETUPS: usize = 5;

/// Seconds of traffic before the measured window opens.
pub const WARMUP_S: f64 = 2.0;

/// Each shard's SLO objective (`ServerConfig::slo_p99_us`) as a multiple
/// of the workload's ITL limit, 10x the baseline `itl_p99_us`.
///
/// A shard that spends its 1% error budget over its 60 s window is
/// Degraded, and a router refuses every new session while all shards are
/// Degraded, for up to the window after the burn. With the objective at
/// the ITL limit (factor 1), a contention episode from other tenants of a
/// shared host was enough: two busy loops beside `chat-closed-h256` on a
/// 2-vCPU host put its `itl_p99_us` at 885 ms and the router refused 99
/// of 261 operations, and one of two 10-run sets of the same code failed
/// 190 operations where the other failed none. At 5x a shard sheds load
/// only when its steps run an order of magnitude slower than the
/// baseline tail. (The 50 ms default is shorter than one decode step of
/// the h=256 model on one thread.)
pub const SHARD_SLO_FACTOR: f64 = 5.0;

/// The benchmark workloads.
pub fn workloads() -> Vec<Workload> {
    let h64 = DecoderConfig { layers: 2, hidden: 64, heads: 4, ffn: 256, vocab: 128, ffn_mats: 2 };
    let h256 =
        DecoderConfig { layers: 4, hidden: 256, heads: 8, ffn: 1024, vocab: 128, ffn_mats: 2 };
    vec![
        Workload {
            name: "decode-h256",
            model: h256,
            threads: 2,
            max_batch: 8,
            prefill_chunk: 16,
            traffic: Traffic::Closed { sessions: 8, prompt: 16, ctx_target: 128 },
            // Baseline ttft_p90 314 ms, itl_p99 309 ms.
            slo: Slo { ttft_ms: 630.0, itl_ms: 620.0 },
            check_every: 8,
            check_max: 2,
        },
        Workload {
            name: "long-ctx-h64",
            model: h64,
            threads: 2,
            max_batch: 8,
            prefill_chunk: 64,
            traffic: Traffic::Closed { sessions: 2, prompt: 768, ctx_target: 1024 },
            // Baseline ttft_p90 620 ms, itl_p99 62 ms.
            slo: Slo { ttft_ms: 1300.0, itl_ms: 130.0 },
            check_every: 4,
            check_max: 2,
        },
        Workload {
            name: "chat-router",
            model: h64,
            threads: 1,
            max_batch: 8,
            prefill_chunk: 16,
            traffic: Traffic::Chat {
                shards: 2,
                // About half the mix's closed-loop capacity (23-35 req/s,
                // `perfbench --capacity chat-router`).
                load: Load::Poisson(15.0),
                prefixes: 4,
                prefix_tokens: 48,
                unique_tokens: 16,
                decode_steps: 32,
            },
            // Baseline ttft_p90 62 ms, itl_p99 12.3 ms.
            slo: Slo { ttft_ms: 130.0, itl_ms: 25.0 },
            check_every: 16,
            check_max: 6,
        },
        Workload {
            name: "chat-closed-h256",
            model: h256,
            threads: 1,
            max_batch: 8,
            prefill_chunk: 16,
            traffic: Traffic::Chat {
                shards: 2,
                load: Load::Clients(4),
                prefixes: 4,
                prefix_tokens: 48,
                unique_tokens: 16,
                decode_steps: 32,
            },
            // Baseline ttft_p90 1531 ms, itl_p99 271 ms.
            slo: Slo { ttft_ms: 3100.0, itl_ms: 550.0 },
            check_every: 8,
            check_max: 4,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Tokens of one session's prompt.
    pub fn prompt_tokens(&self) -> usize {
        match self.traffic {
            Traffic::Closed { prompt, .. } => prompt,
            Traffic::Chat { prefix_tokens, unique_tokens, .. } => prefix_tokens + unique_tokens,
        }
    }

    /// KV capacity every session is admitted with.
    pub fn kv_capacity(&self) -> usize {
        match self.traffic {
            Traffic::Closed { ctx_target, .. } => ctx_target,
            Traffic::Chat { decode_steps, .. } => self.prompt_tokens() + decode_steps,
        }
    }

    /// The serving configuration of every `Server` (shard) in the
    /// workload. Only capacity knobs are set; execution-mode knobs keep
    /// their defaults.
    pub fn server_config(&self) -> ServerConfig {
        let mut cfg = ServerConfig {
            max_batch: self.max_batch,
            prefill_chunk: self.prefill_chunk,
            kv_capacity: self.kv_capacity(),
            // The shard's SLO objective: a router stops placing on a shard
            // once its steps burn this objective (see `SHARD_SLO_FACTOR`).
            slo_p99_us: (SHARD_SLO_FACTOR * self.slo.itl_ms * 1e3) as u64,
            ..ServerConfig::default()
        };
        if let Traffic::Chat { .. } = self.traffic {
            // The worst-case bound documented on `ServerConfig::kv_pool_pages`.
            cfg.kv_pool_pages = cfg.max_sessions * cfg.kv_capacity.div_ceil(cfg.kv_page_tokens);
        }
        cfg
    }

    /// The decode batch width and mean context the workload runs at — the
    /// operating point its `serve.wait_us` is measured against.
    pub fn decode_point(&self) -> (usize, usize) {
        match self.traffic {
            Traffic::Closed { sessions, prompt, ctx_target } => {
                (sessions.min(self.max_batch), (prompt + ctx_target) / 2)
            }
            Traffic::Chat { shards, load, decode_steps, .. } => {
                let batch = match load {
                    Load::Poisson(_) => 1,
                    Load::Clients(n) => n.div_ceil(shards).min(self.max_batch),
                };
                (batch, self.prompt_tokens() + decode_steps / 2)
            }
        }
    }

    /// Whether requests arrive on a schedule (timed from when they were
    /// due) rather than from clients that wait for their replies.
    pub fn open_loop(&self) -> bool {
        matches!(self.traffic, Traffic::Chat { load: Load::Poisson(_), .. })
    }

    /// A scaled-down copy for the self-test: tiny model, short sessions.
    /// Topology and code paths are unchanged.
    pub fn tiny(&self) -> Workload {
        let mut w = self.clone();
        w.model =
            DecoderConfig { layers: 1, hidden: 32, heads: 2, ffn: 64, vocab: 32, ffn_mats: 2 };
        w.traffic = match self.traffic {
            Traffic::Closed { sessions, .. } => {
                Traffic::Closed { sessions: sessions.min(3), prompt: 12, ctx_target: 24 }
            }
            Traffic::Chat { shards, load, .. } => Traffic::Chat {
                shards,
                load: match load {
                    Load::Poisson(_) => Load::Poisson(40.0),
                    Load::Clients(n) => Load::Clients(n.min(3)),
                },
                prefixes: 2,
                prefix_tokens: 16,
                unique_tokens: 4,
                decode_steps: 6,
            },
        };
        w.prefill_chunk = 8;
        w.check_every = 1;
        w.check_max = 3;
        w
    }
}
