//! The system under test behind one interface: a single `pl_serve::Server`
//! or a `pl_router::Router` over several shards.

use pl_router::{Router, RouterSessionId};
use pl_serve::{Server, SessionId, StatsSnapshot, StepResult};
use std::sync::mpsc::Receiver;

/// A served session on either target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handle {
    /// A session on a single server.
    Local(SessionId),
    /// A router session.
    Routed(RouterSessionId),
}

/// The serving stack a workload drives.
pub enum Target {
    /// One server.
    Server(Server),
    /// A router over shards.
    Router(Box<Router>),
}

impl Target {
    /// Opens a session (tenant 0).
    pub fn create(&self) -> Result<Handle, String> {
        match self {
            Target::Server(s) => s.create_session(0).map(Handle::Local).map_err(|e| e.to_string()),
            Target::Router(r) => r.create_session(0).map(Handle::Routed).map_err(|e| e.to_string()),
        }
    }

    /// Submits a prompt (`hidden x tokens`, column-major) without blocking.
    pub fn submit_prefill(
        &self,
        h: Handle,
        x: &[f32],
        tokens: usize,
    ) -> Result<Receiver<StepResult>, String> {
        match (self, h) {
            (Target::Server(s), Handle::Local(id)) => {
                s.submit_prefill(id, x, tokens).map_err(|e| e.to_string())
            }
            (Target::Router(r), Handle::Routed(id)) => {
                r.submit_prefill(id, x, tokens).map_err(|e| e.to_string())
            }
            _ => Err("session handle does not belong to this target".into()),
        }
    }

    /// Submits one decode step without blocking.
    pub fn submit_step(&self, h: Handle, x: &[f32]) -> Result<Receiver<StepResult>, String> {
        match (self, h) {
            (Target::Server(s), Handle::Local(id)) => {
                s.submit_step(id, x).map_err(|e| e.to_string())
            }
            (Target::Router(r), Handle::Routed(id)) => {
                r.submit_step(id, x).map_err(|e| e.to_string())
            }
            _ => Err("session handle does not belong to this target".into()),
        }
    }

    /// Closes a session (blocking; may wait for an executing batch).
    pub fn close(&self, h: Handle) -> Result<(), String> {
        match (self, h) {
            (Target::Server(s), Handle::Local(id)) => {
                s.close_session(id).map(drop).map_err(|e| e.to_string())
            }
            (Target::Router(r), Handle::Routed(id)) => {
                r.close_session(id).map(drop).map_err(|e| e.to_string())
            }
            _ => Err("session handle does not belong to this target".into()),
        }
    }

    /// The servers: one, or one per shard.
    pub fn servers(&self) -> Vec<&Server> {
        match self {
            Target::Server(s) => vec![s],
            Target::Router(r) => r.shards().iter().map(|s| s.server()).collect(),
        }
    }

    /// Serving counters merged over every server.
    pub fn stats(&self) -> StatsSnapshot {
        match self {
            Target::Server(s) => s.stats().snapshot(),
            Target::Router(r) => r.stats(),
        }
    }

    /// The shard a routed session was placed on (0 on a single server).
    pub fn placement(&self, h: Handle) -> Option<usize> {
        match (self, h) {
            (Target::Router(r), Handle::Routed(id)) => r.placement_of(id),
            (Target::Server(_), Handle::Local(_)) => Some(0),
            _ => None,
        }
    }

    /// Per-shard load scores (`live sessions + queued steps`).
    pub fn load_scores(&self) -> Vec<usize> {
        match self {
            Target::Server(s) => vec![s.session_count() + s.pending()],
            Target::Router(r) => r.loads().iter().map(|l| l.score()).collect(),
        }
    }
}
