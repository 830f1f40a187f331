//! # pl-router — sharded scale-out serving across core-partitioned shards
//!
//! `pl_serve::Server` scales a decoder across the threads of **one** pool;
//! this crate scales serving across **several** servers. A [`Router`] owns
//! N [`Shard`]s — each a `Server` backed by its *own* `ThreadPool` over a
//! disjoint slice of the machine's cores (e.g. 8 threads split 2×4, one
//! shard per NUMA domain in the deployment this models) — and fronts them
//! with:
//!
//! * **session affinity** ([`router`]): a session is placed on exactly one
//!   shard at creation and every subsequent prefill/step routes there, so
//!   its KV cache never moves and decode stays bit-identical to a
//!   single-server run of the same stream;
//! * **least-loaded placement** ([`placement`]): new sessions go to the
//!   shard with the smallest live-session + queue-depth load, draining
//!   shards excluded;
//! * **graceful drains** ([`drain`]): closing a session lets queued work
//!   complete first, and whole shards can be drained (no new placements,
//!   pending work pumped dry) for rebalancing or shutdown;
//! * **session migration** ([`migrate`]): a quiesced export → import of a
//!   session's dense KV snapshot moves it between shards with a
//!   **bit-identical** continuation — what [`Router::rebalance`]
//!   (evacuating degraded shards, evening the spread) and
//!   [`Router::recover_shard`] (re-homing a drained shard's survivors)
//!   are built on;
//! * **aggregated observability** ([`stats_agg`]): per-shard
//!   `StatsSnapshot`s merge into one fleet view — counters add, latency
//!   quantiles recompute from summed histogram buckets;
//! * **a scaling projection** ([`projection`]): the paper's Table I
//!   strong-scaling model (`pl_perfmodel::ScalingModel`), recalibrated
//!   from training nodes to serving shards, projects the multi-shard
//!   steps/s win so the measured speedup can be validated against the
//!   model instead of eyeballed.
//!
//! The TPP thesis — a small set of composable primitives scaling from
//! single-core kernels to cluster workloads — is the design argument
//! here: the router composes unmodified `Server` instances exactly the
//! way `Server` composes unmodified kernels.

pub mod drain;
pub mod migrate;
pub mod placement;
pub mod projection;
pub mod router;
pub mod shard;
pub mod stats_agg;

pub use drain::DrainReport;
pub use migrate::MigrationRecord;
pub use placement::{least_loaded, placement_order, ShardLoad};
pub use projection::serving_scaling_model;
pub use router::{Router, RouterConfig, RouterSessionId};
pub use shard::{partition_threads, Shard};
pub use stats_agg::aggregate;

use pl_serve::ServeError;

/// Errors surfaced by the routing tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The session id is not live on this router.
    UnknownSession(RouterSessionId),
    /// No shard could accept the new session (all draining or full).
    NoShardAvailable,
    /// The configuration is unusable (e.g. fewer threads than shards).
    BadConfig(String),
    /// An error from the owning shard's server.
    Serve(ServeError),
}

impl From<ServeError> for RouterError {
    fn from(e: ServeError) -> Self {
        RouterError::Serve(e)
    }
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::UnknownSession(id) => write!(f, "unknown router session {id}"),
            RouterError::NoShardAvailable => write!(f, "no shard can accept a new session"),
            RouterError::BadConfig(why) => write!(f, "bad router config: {why}"),
            RouterError::Serve(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Serve(e) => Some(e),
            _ => None,
        }
    }
}
