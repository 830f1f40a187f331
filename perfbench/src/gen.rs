//! The load generator.
//!
//! One generator thread decides and submits every operation. Replies are
//! collected by one blocked waiter thread per in-flight session, which
//! timestamps the reply on the benchmark's clock and hands it back over a
//! single event channel, so the generator never spins. Every wait has a
//! deadline ([`OP_DEADLINE`]): a wedged request is recorded as failed and
//! its session abandoned instead of hanging the run.
//!
//! Closed loop: a fixed number of sessions (or chat clients), each sending
//! its next request when the previous reply arrives. Open loop: requests
//! arrive on a seeded Poisson schedule and are timed from when they were
//! due, so a stall also charges the requests queued behind it.

use crate::inputs::{self, Rng, Stream};
use crate::spec::{Load, Traffic, Workload};
use crate::target::{Handle, Target};
use crate::trace::Tracer;
use pl_serve::{StatsSnapshot, StepResult};
use std::collections::HashSet;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest any single operation may take before it counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(30);
/// Extra slack the generator allows a waiter before declaring it wedged.
const WEDGE_GRACE: Duration = Duration::from_secs(2);
/// Pause before a closed-loop client whose session was refused tries
/// again with its next request.
const RETRY_AFTER: Duration = Duration::from_secs(1);
/// Interval between samples of pool and placement state (traced runs).
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `create_session`.
    Create,
    /// `submit_prefill` → reply.
    Prefill,
    /// `submit_step` → reply.
    Step,
    /// `close_session`.
    Close,
}

/// One operation as the generator saw it.
#[derive(Debug, Clone)]
pub struct OpRec {
    /// What was called.
    pub kind: Kind,
    /// When it was sent.
    pub sent: Instant,
    /// When its reply (or failure) was observed.
    pub done: Instant,
    /// Whether it succeeded.
    pub ok: bool,
    /// Tokens it carried (prompt length for a prefill, 1 for a step).
    pub tokens: usize,
}

/// One request: a session from creation to close.
#[derive(Debug, Clone)]
pub struct ReqRec {
    /// When the request was due (open loop: its scheduled arrival).
    pub due: Instant,
    /// Time to first output, once the prefill replied.
    pub ttft: Option<Duration>,
    /// Largest inter-token latency seen.
    pub max_itl: Duration,
    /// Whether any of its operations failed.
    pub failed: bool,
    /// Whether it was placed on a shard that already served its prefix
    /// (router workloads only).
    pub prefix_local: Option<bool>,
}

/// Output digests of one replayable session.
#[derive(Debug, Clone)]
pub struct CheckRec {
    /// Request index (keys the session's inputs).
    pub req: u64,
    /// Shared prefix the prompt starts with (chat).
    pub prefix: Option<usize>,
    /// Digest of the prefill output, then of each decode output.
    pub digests: Vec<u64>,
}

/// State sampled while tracing.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Live KV pages across pools.
    pub kv_allocated: usize,
    /// Pages shared through prefix caches.
    pub kv_shared: usize,
    /// Live sessions.
    pub sessions: usize,
    /// Sessions whose KV is spilled.
    pub spilled: usize,
    /// Largest shard load score.
    pub score_max: usize,
    /// Mean shard load score.
    pub score_mean: f64,
}

/// Counters captured at a window boundary.
#[derive(Debug, Clone)]
pub struct Mark {
    /// When captured.
    pub at: Instant,
    /// Merged serving counters.
    pub stats: StatsSnapshot,
    /// Copy-on-write page splits across pools.
    pub cow_splits: u64,
}

/// What happened in one run.
pub struct Log {
    /// Every operation.
    pub ops: Vec<OpRec>,
    /// Every request.
    pub reqs: Vec<ReqRec>,
    /// Sessions to replay for the output check.
    pub checks: Vec<CheckRec>,
    /// `(when, how late)` the generator sent work: open loop against the
    /// schedule, closed loop against the reply that triggered it.
    pub lags: Vec<(Instant, Duration)>,
    /// Samples taken while tracing.
    pub samples: Vec<Sample>,
    /// Counters at the window start, the trace switch-on and the window end.
    pub marks: Vec<Mark>,
    /// Distinct failure messages with counts.
    pub errors: Vec<(String, usize)>,
    /// Start of the measured window.
    pub w_start: Instant,
    /// Start of the traced half (equals `w_start` when untraced).
    pub w_mid: Instant,
    /// End of the measured window.
    pub w_end: Instant,
}

/// Timing of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Traffic before the window opens (not measured).
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Trace the second half of the window.
    pub trace_split: bool,
}

enum Job {
    Recv(Receiver<StepResult>),
    Close(Handle),
}

struct Event {
    slot: usize,
    at: Instant,
    result: Result<Vec<f32>, String>,
}

struct Client {
    req: u64,
    rec: usize,
    span: u64,
    handle: Handle,
    phase: Kind,
    op_sent: Instant,
    ctx: usize,
    target_ctx: usize,
    steps: usize,
    prefix: Option<usize>,
    check: Option<Vec<u64>>,
}

struct Slot {
    jobs: Option<Sender<Job>>,
    thread: Option<JoinHandle<()>>,
    client: Option<Client>,
    deadline: Instant,
    wedged: bool,
}

fn spawn_slot(index: usize, target: &Arc<Target>, events: &Sender<Event>) -> Slot {
    let (tx, rx) = mpsc::channel::<Job>();
    let target = Arc::clone(target);
    let events = events.clone();
    let thread = std::thread::Builder::new()
        .name(format!("perfbench-wait-{index}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                let result = match job {
                    Job::Recv(reply) => match reply.recv_timeout(OP_DEADLINE) {
                        Ok(Ok(out)) => Ok(out),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(RecvTimeoutError::Timeout) => Err("timed out".into()),
                        Err(RecvTimeoutError::Disconnected) => {
                            Err("reply channel disconnected".into())
                        }
                    },
                    Job::Close(h) => target.close(h).map(|()| Vec::new()),
                };
                if events.send(Event { slot: index, at: Instant::now(), result }).is_err() {
                    break;
                }
            }
        })
        .expect("spawning a waiter thread");
    Slot {
        jobs: Some(tx),
        thread: Some(thread),
        client: None,
        deadline: Instant::now(),
        wedged: false,
    }
}

struct Gen<'a> {
    w: &'a Workload,
    seed: u64,
    target: Arc<Target>,
    tracer: &'a mut Tracer,
    events: Sender<Event>,
    slots: Vec<Slot>,
    log: Log,
    stopping: bool,
    next_req: u64,
    prefix_seen: Vec<HashSet<usize>>,
    names: Names,
    /// When refused closed-loop clients try again.
    retries: Vec<Instant>,
}

/// Span names for the target's layer.
struct Names {
    create: &'static str,
    prefill: &'static str,
    step: &'static str,
    close: &'static str,
}

impl<'a> Gen<'a> {
    fn hidden(&self) -> usize {
        self.w.model.hidden
    }

    fn fail(&mut self, why: &str) {
        match self.log.errors.iter_mut().find(|(e, _)| e == why) {
            Some((_, n)) => *n += 1,
            None => self.log.errors.push((why.to_string(), 1)),
        }
    }

    fn free_slot(&mut self) -> usize {
        if let Some(i) = self.slots.iter().position(|s| s.client.is_none() && !s.wedged) {
            return i;
        }
        let i = self.slots.len();
        self.slots.push(spawn_slot(i, &self.target, &self.events));
        i
    }

    /// Opens request `req` in `slot` and sends its prompt.
    fn open(&mut self, slot: usize, due: Instant, target_ctx: usize, prefix: Option<usize>) {
        let req = self.next_req;
        self.next_req += 1;
        let span = self.tracer.reserve();
        let sent = Instant::now();
        let created = self.target.create();
        let done = Instant::now();
        let ok = created.is_ok();
        self.log.ops.push(OpRec { kind: Kind::Create, sent, done, ok, tokens: 0 });
        self.tracer.record(self.names.create, span, req, sent, done);
        self.log.lags.push((sent, sent.saturating_duration_since(due)));
        let rec = self.log.reqs.len();
        self.log.reqs.push(ReqRec {
            due,
            ttft: None,
            max_itl: Duration::ZERO,
            failed: !ok,
            prefix_local: None,
        });
        let handle = match created {
            Ok(h) => h,
            Err(e) => {
                self.fail(&format!("create_session: {e}"));
                self.tracer.record_as(span, "request", 0, req, due, done);
                if !self.w.open_loop() {
                    self.retries.push(done + RETRY_AFTER);
                }
                return;
            }
        };
        if let (Some(p), Some(shard)) = (prefix, self.target.placement(handle)) {
            if shard >= self.prefix_seen.len() {
                self.prefix_seen.resize_with(shard + 1, HashSet::new);
            }
            self.log.reqs[rec].prefix_local = Some(!self.prefix_seen[shard].insert(p));
        }
        let checked = self.log.checks.len() < self.w.check_max
            && ((self.log.checks.is_empty() && due >= self.log.w_start)
                || Rng::new(self.seed, Stream::Check, req, 0)
                    .next_u64()
                    .is_multiple_of(self.w.check_every));
        if checked {
            // Reserve the record now; it is filled when the session closes.
            self.log.checks.push(CheckRec { req, prefix, digests: Vec::new() });
        }
        self.slots[slot].client = Some(Client {
            req,
            rec,
            span,
            handle,
            phase: Kind::Create,
            op_sent: sent,
            ctx: 0,
            target_ctx,
            steps: 0,
            prefix,
            check: checked.then(Vec::new),
        });
        self.submit(slot, Kind::Prefill);
    }

    /// Sends the client's next prefill or step.
    fn submit(&mut self, slot: usize, kind: Kind) {
        let seed = self.seed;
        let (w, hidden) = (self.w, self.hidden());
        let client = self.slots[slot].client.as_mut().expect("submit needs a client");
        let sent = Instant::now();
        let reply = match kind {
            Kind::Prefill => {
                let x = prompt(w, seed, client.req, client.prefix);
                self.target.submit_prefill(client.handle, &x, w.prompt_tokens())
            }
            Kind::Step => {
                let x = inputs::vector(seed, Stream::Step, client.req, client.steps as u64, hidden);
                self.target.submit_step(client.handle, &x)
            }
            Kind::Create | Kind::Close => unreachable!("submit sends prefills and steps"),
        };
        client.phase = kind;
        client.op_sent = sent;
        match reply {
            Ok(rx) => {
                self.slots[slot].deadline = sent + OP_DEADLINE + WEDGE_GRACE;
                self.send(slot, Job::Recv(rx));
            }
            Err(e) => {
                let done = Instant::now();
                self.log.ops.push(OpRec { kind, sent, done, ok: false, tokens: 0 });
                let rec = client.rec;
                self.log.reqs[rec].failed = true;
                self.fail(&format!("submit: {e}"));
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        let client = self.slots[slot].client.as_mut().expect("close needs a client");
        client.phase = Kind::Close;
        client.op_sent = Instant::now();
        let h = client.handle;
        self.slots[slot].deadline = Instant::now() + OP_DEADLINE + WEDGE_GRACE;
        self.send(slot, Job::Close(h));
    }

    fn send(&mut self, slot: usize, job: Job) {
        let jobs = self.slots[slot].jobs.as_ref().expect("live slot has a job channel");
        jobs.send(job).expect("waiter thread alive");
    }

    /// Retires the client in `slot`: records its request span and check
    /// digests, and in a closed loop opens the next session there.
    fn finish(&mut self, slot: usize, at: Instant) {
        let client = self.slots[slot].client.take().expect("finish needs a client");
        let rec = &self.log.reqs[client.rec];
        self.tracer.record_as(client.span, "request", 0, client.req, rec.due, at);
        if let Some(d) = client.check {
            let pos = self.log.checks.iter().position(|c| c.req == client.req);
            if let Some(pos) = pos {
                if rec.failed {
                    // A failed session is already counted; nothing to replay.
                    self.log.checks.remove(pos);
                } else {
                    self.log.checks[pos].digests = d;
                }
            }
        }
        self.reopen(slot, at);
    }

    /// In a closed loop, opens the next request in `slot`.
    fn reopen(&mut self, slot: usize, at: Instant) {
        if self.stopping {
            return;
        }
        match self.w.traffic {
            Traffic::Closed { ctx_target, .. } => self.open(slot, at, ctx_target, None),
            Traffic::Chat { load: Load::Clients(_), prefixes, .. } => {
                let prefix = prefix_choice(self.seed, self.next_req, prefixes);
                self.open(slot, at, self.w.kv_capacity(), Some(prefix));
            }
            Traffic::Chat { load: Load::Poisson(_), .. } => {}
        }
    }

    fn on_event(&mut self, ev: Event) {
        let slot = ev.slot;
        if self.slots[slot].wedged {
            return;
        }
        let names = (self.names.prefill, self.names.step, self.names.close);
        let Some(client) = self.slots[slot].client.as_mut() else { return };
        let kind = client.phase;
        let tokens = match kind {
            Kind::Prefill => self.w.prompt_tokens(),
            Kind::Step => 1,
            _ => 0,
        };
        let ok = ev.result.is_ok();
        let sent = client.op_sent;
        self.log.ops.push(OpRec { kind, sent, done: ev.at, ok, tokens });
        let name = match kind {
            Kind::Prefill => names.0,
            Kind::Step => names.1,
            _ => names.2,
        };
        self.tracer.record(name, client.span, client.req, sent, ev.at);
        let rec = client.rec;
        match ev.result {
            Ok(out) => {
                if let Some(d) = client.check.as_mut() {
                    if kind != Kind::Close {
                        d.push(inputs::digest(&out));
                    }
                }
                let r = &mut self.log.reqs[rec];
                match kind {
                    Kind::Prefill => {
                        // Open loop: from the due time; closed: from the submit.
                        let from = if self.w.open_loop() { r.due } else { sent };
                        r.ttft = Some(ev.at.saturating_duration_since(from));
                        client.ctx += tokens;
                    }
                    Kind::Step => {
                        r.max_itl = r.max_itl.max(ev.at.saturating_duration_since(sent));
                        client.ctx += 1;
                        client.steps += 1;
                    }
                    _ => {}
                }
            }
            Err(e) => {
                self.log.reqs[rec].failed = true;
                let what = match kind {
                    Kind::Prefill => "prefill",
                    Kind::Step => "step",
                    _ => "close_session",
                };
                self.fail(&format!("{what}: {e}"));
                if kind != Kind::Close {
                    self.close(slot);
                    return;
                }
            }
        }
        if kind == Kind::Close {
            self.finish(slot, ev.at);
            return;
        }
        let client = self.slots[slot].client.as_ref().expect("client still open");
        let done = match self.w.traffic {
            Traffic::Closed { .. } => self.stopping || client.ctx >= client.target_ctx,
            Traffic::Chat { .. } => client.ctx >= client.target_ctx,
        };
        if !self.w.open_loop() {
            let now = Instant::now();
            self.log.lags.push((now, now.saturating_duration_since(ev.at)));
        }
        if done {
            self.close(slot);
        } else {
            self.submit(slot, Kind::Step);
        }
    }

    /// Declares every slot whose reply is overdue wedged.
    fn reap(&mut self, now: Instant) {
        for slot in 0..self.slots.len() {
            let s = &self.slots[slot];
            if s.wedged || s.client.is_none() || now < s.deadline {
                continue;
            }
            let client = self.slots[slot].client.take().expect("checked above");
            self.slots[slot].wedged = true;
            // Detach the waiter: it may be blocked forever inside the call.
            self.slots[slot].jobs = None;
            drop(self.slots[slot].thread.take());
            self.log.ops.push(OpRec {
                kind: client.phase,
                sent: client.op_sent,
                done: now,
                ok: false,
                tokens: 0,
            });
            self.log.reqs[client.rec].failed = true;
            self.log.checks.retain(|c| c.req != client.req);
            self.fail("wedged: no reply within the deadline");
            self.tracer.record_as(
                client.span,
                "request",
                0,
                client.req,
                self.log.reqs[client.rec].due,
                now,
            );
            if !self.w.open_loop() && !self.stopping {
                let fresh = self.free_slot();
                self.reopen(fresh, now);
            }
        }
    }

    fn mark(&mut self) {
        let cow = self.target.servers().iter().map(|s| s.kv_pool().cow_splits()).sum();
        self.log.marks.push(Mark {
            at: Instant::now(),
            stats: self.target.stats(),
            cow_splits: cow,
        });
    }

    fn sample(&mut self) {
        let servers = self.target.servers();
        let scores = self.target.load_scores();
        let score_mean = scores.iter().sum::<usize>() as f64 / scores.len().max(1) as f64;
        self.log.samples.push(Sample {
            kv_allocated: servers.iter().map(|s| s.kv_pool().allocated_pages()).sum(),
            kv_shared: servers.iter().map(|s| s.prefix_cache().shared_pages()).sum(),
            sessions: servers.iter().map(|s| s.session_count()).sum(),
            spilled: servers.iter().map(|s| s.spilled_sessions()).sum(),
            score_max: scores.iter().copied().max().unwrap_or(0),
            score_mean,
        });
    }

    fn active(&self) -> bool {
        self.slots.iter().any(|s| s.client.is_some())
    }
}

/// The prompt of request `req`: a unique prompt, or a shared system
/// prefix followed by unique tokens (chat).
pub fn prompt(w: &Workload, seed: u64, req: u64, prefix: Option<usize>) -> Vec<f32> {
    let h = w.model.hidden;
    match (w.traffic, prefix) {
        (Traffic::Chat { prefix_tokens, unique_tokens, .. }, Some(p)) => {
            let mut x = inputs::vector(seed, Stream::Prefix, p as u64, 0, h * prefix_tokens);
            x.extend(inputs::vector(seed, Stream::Prompt, req, 0, h * unique_tokens));
            x
        }
        _ => inputs::vector(seed, Stream::Prompt, req, 0, h * w.prompt_tokens()),
    }
}

/// The shared prefix request `req` uses: Zipf(s = 1)-skewed over
/// `prefixes`, seeded.
pub fn prefix_choice(seed: u64, req: u64, prefixes: usize) -> usize {
    let weights: Vec<f64> = (1..=prefixes).map(|k| 1.0 / k as f64).collect();
    let mut u = Rng::new(seed, Stream::Choice, req, 0).unit() * weights.iter().sum::<f64>();
    for (k, wt) in weights.iter().enumerate() {
        if u < *wt {
            return k;
        }
        u -= wt;
    }
    prefixes - 1
}

/// Seeded arrival schedule over `span`: a Poisson process conditioned on
/// its count (`round(rate * span)` arrivals, times i.i.d. uniform), each
/// with its [`prefix_choice`].
pub fn arrivals(seed: u64, rate: f64, prefixes: usize, span: Duration) -> Vec<(Duration, usize)> {
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut out: Vec<(Duration, usize)> = (0..n as u64)
        .map(|i| {
            let at = span.mul_f64(Rng::new(seed, Stream::Arrival, i, 0).unit());
            (at, prefix_choice(seed, i, prefixes))
        })
        .collect();
    out.sort_by_key(|a| a.0);
    out
}

/// Drives `target` with the workload's traffic for `plan`.
pub fn run(w: &Workload, target: Arc<Target>, seed: u64, plan: Plan, tracer: &mut Tracer) -> Log {
    let (events, ev_rx) = mpsc::channel::<Event>();
    let t0 = Instant::now();
    let w_start = t0 + plan.warmup;
    let w_end = w_start + plan.window;
    let w_mid = if plan.trace_split { w_start + plan.window / 2 } else { w_start };
    let names = match &*target {
        Target::Server(_) => Names {
            create: "pl_serve.create_session",
            prefill: "pl_serve.prefill",
            step: "pl_serve.step",
            close: "pl_serve.close_session",
        },
        Target::Router(_) => Names {
            create: "pl_router.create_session",
            prefill: "pl_router.prefill",
            step: "pl_router.step",
            close: "pl_router.close_session",
        },
    };
    let mut g = Gen {
        w,
        seed,
        target,
        tracer,
        events,
        slots: Vec::new(),
        log: Log {
            ops: Vec::new(),
            reqs: Vec::new(),
            checks: Vec::new(),
            lags: Vec::new(),
            samples: Vec::new(),
            marks: Vec::new(),
            errors: Vec::new(),
            w_start,
            w_mid,
            w_end,
        },
        stopping: false,
        next_req: 0,
        prefix_seen: Vec::new(),
        names,
        retries: Vec::new(),
    };
    let schedule = match w.traffic {
        Traffic::Chat { load: Load::Poisson(rate), prefixes, .. } => {
            arrivals(seed, rate, prefixes, plan.warmup + plan.window)
        }
        Traffic::Chat { load: Load::Clients(clients), prefixes, decode_steps, .. } => {
            // Stagger the first requests so clients do not run in lockstep.
            for i in 0..clients {
                let slot = g.free_slot();
                let first = w.prompt_tokens() + (decode_steps * (i + 1)).div_ceil(clients);
                let prefix = prefix_choice(seed, g.next_req, prefixes);
                g.open(slot, t0, first, Some(prefix));
            }
            Vec::new()
        }
        Traffic::Closed { sessions, prompt, ctx_target } => {
            // Stagger the first lives so sessions do not churn in lockstep.
            for i in 0..sessions {
                let slot = g.free_slot();
                let first = prompt + ((ctx_target - prompt) * (i + 1)).div_ceil(sessions);
                g.open(slot, t0, first, None);
            }
            Vec::new()
        }
    };
    let mut next_arrival = 0;
    let mut next_sample = w_mid;
    loop {
        let now = Instant::now();
        if g.log.marks.is_empty() && now >= w_start {
            g.mark();
        }
        if plan.trace_split && g.log.marks.len() == 1 && now >= w_mid {
            g.mark();
            g.tracer.set_on(true);
        }
        let marks_before_end = if plan.trace_split { 2 } else { 1 };
        if g.log.marks.len() == marks_before_end && now >= w_end {
            g.mark();
            g.stopping = true;
        }
        while let Some(i) = g.retries.iter().position(|&t| t <= now) {
            g.retries.swap_remove(i);
            let slot = g.free_slot();
            g.reopen(slot, now);
        }
        while next_arrival < schedule.len() && t0 + schedule[next_arrival].0 <= now {
            let (at, prefix) = schedule[next_arrival];
            next_arrival += 1;
            let slot = g.free_slot();
            g.open(slot, t0 + at, w.kv_capacity(), Some(prefix));
        }
        if g.tracer.is_on() && now >= next_sample && now < w_end {
            g.sample();
            next_sample += SAMPLE_EVERY;
        }
        g.reap(now);
        if g.stopping && next_arrival == schedule.len() && !g.active() {
            break;
        }
        let mut wake = now + Duration::from_millis(100);
        for &t in [w_start, w_mid, w_end, next_sample].iter().chain(&g.retries) {
            if t > now {
                wake = wake.min(t);
            }
        }
        if let Some(&(at, _)) = schedule.get(next_arrival) {
            wake = wake.min(t0 + at);
        }
        for s in g.slots.iter().filter(|s| s.client.is_some() && !s.wedged) {
            wake = wake.min(s.deadline);
        }
        match ev_rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(ev) => {
                g.on_event(ev);
                while let Ok(ev) = ev_rx.try_recv() {
                    g.on_event(ev);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => unreachable!("the generator holds a sender"),
        }
    }
    // Release the waiters; wedged ones stay detached.
    for s in &mut g.slots {
        s.jobs = None;
    }
    for s in &mut g.slots {
        if let Some(t) = s.thread.take() {
            t.join().expect("waiter thread panicked");
        }
    }
    g.log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_sorted_and_skewed() {
        let a = arrivals(5, 10.0, 4, Duration::from_secs(100));
        assert_eq!(a.len(), 1000);
        assert_eq!(a[..10], arrivals(5, 10.0, 4, Duration::from_secs(100))[..10]);
        assert!(a.windows(2).all(|p| p[0].0 <= p[1].0));
        let mut counts = [0usize; 4];
        for (_, c) in &a {
            counts[*c] += 1;
        }
        // Zipf(1) over 4: 48% / 24% / 16% / 12%.
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
    }
}
