//! The shared router measurement driver.
//!
//! Both `benches/serve_throughput.rs` and `examples/router_llm.rs` print
//! measured multi-shard steps/s next to the `ScalingModel` projection and
//! write rows into the same trajectory artifact — so the closed-loop
//! driver, the routing-overhead figure the projection is evaluated at,
//! and the artifact row labels live **here, once**. Two hand-synchronized
//! copies would let the router under test and the printed projection
//! silently drift apart.

use pl_dnn::DecoderModel;
use pl_router::{Router, RouterConfig};
use pl_serve::ServerConfig;
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;
use std::time::Duration;

/// The routing/aggregation overhead (fraction of one shard-interval per
/// log2 hop) used for **both** the measured router's configuration and
/// the projection printed next to it.
pub const ROUTING_OVERHEAD: f64 = 0.02;

/// File name of the serving trajectory artifact (resolve with
/// [`crate::workspace_path`]).
pub const SERVE_ARTIFACT: &str = "BENCH_serve.json";

/// Canonical artifact row label for a router measurement.
pub const ROUTER_MODE: &str = "router";

/// One closed-loop router load shape.
#[derive(Debug, Clone, Copy)]
pub struct RouterLoad {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Decode steps per session.
    pub steps: usize,
    /// Tenants the sessions round-robin over.
    pub tenants: usize,
    /// Per-session KV capacity.
    pub kv_capacity: usize,
    /// Base seed for the per-session input vectors.
    pub seed: u64,
}

/// What one router drive measured: throughput plus the fleet-wide step
/// latency tail, so artifact rows carry a real p99 instead of 0.
#[derive(Debug, Clone, Copy)]
pub struct RouterMeasurement {
    /// Decode steps/s over the client phase wall time.
    pub steps_per_s: f64,
    /// Fleet-wide p99 step latency (µs), recomputed from the shards'
    /// **merged** latency buckets (`StatsSnapshot::merge`), never from
    /// averaged per-shard quantiles.
    pub p99_us: u64,
}

/// Drives `load` through a router at `shards` shards over
/// `total_threads` (split disjointly) and returns decode steps/s
/// measured over the **client phase wall time only** (the stats
/// snapshot's own `tokens_per_s` clock starts at server construction, so
/// it would charge higher shard counts for building more pools — a
/// systematic anti-scaling bias on short runs), along with the merged
/// p99 step latency. Each shard's `max_batch` is sized to its share of
/// the sessions — a shard holding `sessions / shards` streams can never
/// fill a fleet-wide batch and would otherwise pay the full coalesce
/// linger on every batch, skewing the scaling comparison.
pub fn measure_router_steps_per_s(
    model: &Arc<DecoderModel>,
    shards: usize,
    total_threads: usize,
    load: &RouterLoad,
) -> RouterMeasurement {
    let mut router = Router::new(
        Arc::clone(model),
        RouterConfig {
            shards,
            total_threads,
            routing_overhead: ROUTING_OVERHEAD,
            server: ServerConfig {
                tenants: load.tenants,
                max_batch: load.sessions.div_ceil(shards).min(load.sessions),
                kv_capacity: load.kv_capacity,
                coalesce_wait: Duration::from_micros(500),
                ..Default::default()
            },
        },
    )
    .expect("router config");
    router.start();
    let hidden = model.config().hidden;
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for s in 0..load.sessions {
            let router = &router;
            scope.spawn(move || {
                let id = router.create_session(s % load.tenants).unwrap();
                let mut x = vec![0.0f32; hidden];
                fill_uniform(&mut x, &mut Xorshift::new(load.seed + s as u64), -0.5, 0.5);
                for _ in 0..load.steps {
                    x = router.step(id, &x).unwrap();
                }
                router.close_session(id).unwrap();
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let fleet = router.stats();
    router.shutdown();
    assert_eq!(fleet.completed, (load.sessions * load.steps) as u64, "driver lost steps");
    RouterMeasurement {
        steps_per_s: fleet.completed as f64 / elapsed.max(1e-9),
        p99_us: fleet.p99_us,
    }
}
