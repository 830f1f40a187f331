//! Decoder-only LLM inference with a KV cache (paper §IV-A / Fig. 11:
//! GPT-J-6B and Llama2-13B, first-token vs next-token latency).
//!
//! The full-size models (24-52 GB of weights) cannot be materialized here;
//! we provide (a) architecture-faithful *scaled* decoders that execute with
//! the real kernels (prompt pass + cached autoregressive steps), and (b)
//! exact flop/byte accounting of the *full* configurations which the
//! Fig. 11 harness feeds through the platform roofline (see DESIGN.md,
//! substitution table). First-token latency is compute-bound, next-token
//! latency is weight-bandwidth-bound — the regimes the paper measures.
//!
//! ## Model / state split
//!
//! Weights ([`DecoderModel`]) are immutable and shareable (`Arc`) across
//! any number of concurrent sessions; each session owns only its KV cache
//! ([`DecoderState`]). This is what a serving runtime needs: one copy of
//! the weights, N independent decode streams, and a batched forward
//! ([`DecoderModel::forward_batch`]) that coalesces many sessions' tokens
//! into shared per-layer GEMMs. [`Decoder`] remains the convenience
//! single-stream wrapper over the pair.
//!
//! ## One batched forward
//!
//! [`DecoderModel::forward_batch`] is the only transformer-block path.
//! Its lanes are `(state, x, tokens)`: a decode step is a one-token lane,
//! a prefill chunk a wider one, and any mix rides one call. Per layer,
//! LN, the QKV, output and FFN projections run once over the concatenated
//! columns of every lane — each weight element loaded serves every token
//! in the batch, so decode arithmetic intensity grows with the batch
//! (the regime the paper's Fig. 11 next-token row measures at B = 1).
//! KV append and causal attention run per lane against that lane's own
//! page table (ragged context lengths are fine), load-balanced inside one
//! parallel region. [`DecoderModel::forward`], [`DecoderModel::step_batch`]
//! and [`DecoderModel::forward_chunked`] are thin wrappers over it.
//!
//! **Batch invariance is bitwise.** LN, GELU and attention are per column
//! or per lane, and every GEMM output column depends only on its own
//! input column (the K reduction order is fixed per plan, never per
//! width or loop spec). So each lane's output equals that lane run alone,
//! whatever the batch composition, team size, page size or tuning.
//!
//! ## Prepared execution
//!
//! Every weight is a [`MatmulPlan`]: packed into its blocked kernel layout
//! once at [`DecoderModel::new`], with per-width kernels cached on first
//! use (or pre-built by [`DecoderModel::warm_plans`], fed by the shapes
//! [`DecoderModel::plan_problems`] reports). Decode steps therefore pack
//! **zero weight bytes** — only activations are gathered and blocked, with
//! scratch reused across a forward's layers and a layer's QKV projections
//! consuming a single packed copy of their shared input. The plan path
//! runs the exact kernels the old pack-per-call bridge constructed.

use crate::kvpool::{KvPagePool, KvPoolExhausted, KvSeq, KvSnapshot, PrefixCache};
use crate::matmul::Trans;
use crate::prepared::{ActivationBuf, MatmulPlan, Precision};
use pl_autotuner::GemmProblem;
use pl_runtime::ThreadPool;
use pl_tensor::Xorshift;
use pl_tpp::{norm, softmax, unary};
use std::sync::{Arc, Mutex};

/// Decoder architecture description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Transformer blocks.
    pub layers: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN inner width.
    pub ffn: usize,
    /// Vocabulary size (LM head).
    pub vocab: usize,
    /// FFN weight matrices per block (2 for GELU MLPs like GPT-J, 3 for
    /// SwiGLU like Llama2). Only affects the full-size accounting; the
    /// runnable scaled decoder always executes the 2-matrix GELU form.
    pub ffn_mats: usize,
}

impl DecoderConfig {
    /// GPT-J-6B: 28 layers, 4096 hidden, 16 heads, 16384 FFN.
    pub fn gptj_6b() -> Self {
        DecoderConfig { layers: 28, hidden: 4096, heads: 16, ffn: 16384, vocab: 50400, ffn_mats: 2 }
    }

    /// Llama2-13B: 40 layers, 5120 hidden, 40 heads, 13824 FFN.
    pub fn llama2_13b() -> Self {
        DecoderConfig { layers: 40, hidden: 5120, heads: 40, ffn: 13824, vocab: 32000, ffn_mats: 3 }
    }

    /// Scaled-down config preserving the architecture (host execution).
    pub fn scaled_for_tests() -> Self {
        DecoderConfig { layers: 2, hidden: 32, heads: 4, ffn: 64, vocab: 128, ffn_mats: 2 }
    }

    /// Parameter count (weights only, attention + FFN + LM head).
    pub fn params(&self) -> f64 {
        let per_layer = 4.0 * (self.hidden as f64).powi(2)
            + self.ffn_mats as f64 * self.hidden as f64 * self.ffn as f64;
        self.layers as f64 * per_layer + self.hidden as f64 * self.vocab as f64
    }

    /// Weight bytes at the element size.
    pub fn weight_bytes(&self, elem: usize) -> f64 {
        self.params() * elem as f64
    }

    /// Flops to process a `prompt`-token prefill (first token).
    pub fn first_token_flops(&self, prompt: usize) -> f64 {
        let h = self.hidden as f64;
        let f = self.ffn as f64;
        let t = prompt as f64;
        let per_layer = 4.0 * 2.0 * h * h * t  // qkv + out projections
            + self.ffn_mats as f64 * 2.0 * h * f * t // ffn
            + 2.0 * 2.0 * h * t * t; // attention scores + context
        self.layers as f64 * per_layer + 2.0 * h * self.vocab as f64
    }

    /// Flops of one autoregressive step with `past` cached tokens.
    pub fn next_token_flops(&self, past: usize) -> f64 {
        let h = self.hidden as f64;
        let f = self.ffn as f64;
        let per_layer =
            4.0 * 2.0 * h * h + self.ffn_mats as f64 * 2.0 * h * f + 2.0 * 2.0 * h * past as f64;
        self.layers as f64 * per_layer + 2.0 * h * self.vocab as f64
    }

    /// KV-cache bytes for `tokens` cached positions.
    pub fn kv_cache_bytes(&self, tokens: usize, elem: usize) -> f64 {
        (2 * self.layers * self.hidden * tokens * elem) as f64
    }
}

/// One decoder block's weights, held as **prepared plans**: each weight is
/// packed into its blocked kernel layout exactly once at construction
/// ([`MatmulPlan::new`]); decode steps only pack activations.
struct Block {
    wq: MatmulPlan,
    wk: MatmulPlan,
    wv: MatmulPlan,
    wo: MatmulPlan,
    w1: MatmulPlan,
    w2: MatmulPlan,
    ln1_g: Vec<f32>,
    ln1_b: Vec<f32>,
    ln2_g: Vec<f32>,
    ln2_b: Vec<f32>,
}

impl Block {
    fn plans(&self) -> [&MatmulPlan; 6] {
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.w1, &self.w2]
    }
}

/// Blocked-operand scratch reused across a forward's layers: one slot per
/// distinct activation layout (`k = hidden` and `k = ffn` inputs) and one
/// per output layout, so every projection after the first reuses an
/// existing allocation and the shared-input projections (QKV) pack once.
#[derive(Default)]
struct ForwardScratch {
    /// `B` operand with `k = hidden` rows (QKV / output / FFN-up inputs).
    b_hidden: ActivationBuf,
    /// `B` operand with `k = ffn` rows (FFN-down input).
    b_ffn: ActivationBuf,
    /// `C` output with `m = hidden` rows.
    c_hidden: ActivationBuf,
    /// `C` output with `m = ffn` rows.
    c_ffn: ActivationBuf,
}

// The per-layer KV storage lives in `crate::kvpool`: fixed-size
// [`KvPage`](crate::kvpool::KvPage)s behind a shared [`KvPagePool`],
// one [`KvSeq`] (page list + cursor) per layer.

/// Immutable decoder weights, shareable across sessions.
pub struct DecoderModel {
    cfg: DecoderConfig,
    precision: Precision,
    blocks: Vec<Block>,
}

/// One lane of a batched forward: its first column in the concatenated
/// activation, its token count, and its KV state.
struct Lane<'s> {
    col: usize,
    tokens: usize,
    state: Mutex<&'s mut DecoderState>,
}

/// Splits a `tokens`-token prefill into bounded chunk widths under the
/// `chunk` cap, **power-of-two-ladder-aligned**: the cap is normalized to
/// the next power of two, every non-final chunk is exactly that width (an
/// exact hit on the warmed prefill ladder — see
/// `pl_autotuner::batch_ladder`), and only the final chunk carries the
/// remainder (whose tuning lookup rounds up to the nearest warmed rung).
/// A prompt that fits in one chunk is returned whole — the single-chunk
/// path must stay bit-identical to an unchunked forward, so it is never
/// subdivided.
pub fn prefill_chunk_widths(tokens: usize, chunk: usize) -> Vec<usize> {
    let cap = chunk.max(1).next_power_of_two();
    let mut widths = Vec::with_capacity(tokens.div_ceil(cap));
    let mut remaining = tokens;
    while remaining > 0 {
        let w = cap.min(remaining);
        widths.push(w);
        remaining -= w;
    }
    widths
}

/// Where a state's KV lives: resident pages, or a dense spilled snapshot
/// (restored transparently by the next forward).
enum KvStore {
    Paged(Vec<KvSeq>),
    Spilled(KvSnapshot),
}

/// One decode stream's mutable state: per-layer KV **page tables** (page
/// list + cursor, [`KvSeq`]) over a shared [`KvPagePool`]. The paged
/// layout is token-major inside each page — the contiguous cache's
/// layout, chunked — and attention reads through the page indirection
/// with unchanged per-element arithmetic order, so decode outputs are
/// bit-identical at every page size. Because the state is now a page
/// list plus a cursor, it is *data*: it can spill to a dense
/// [`KvSnapshot`] ([`DecoderState::spill`]) and restore later, possibly
/// into a different pool ([`DecoderState::from_snapshot`] — the
/// cross-shard migration primitive).
pub struct DecoderState {
    pool: Arc<KvPagePool>,
    capacity: usize,
    store: KvStore,
}

impl DecoderState {
    fn new_in(pool: &Arc<KvPagePool>, layers: usize, max_tokens: usize) -> Self {
        assert!(layers > 0, "decoder states need at least one layer");
        let seqs = (0..layers).map(|_| KvSeq::new(pool)).collect();
        DecoderState { pool: Arc::clone(pool), capacity: max_tokens, store: KvStore::Paged(seqs) }
    }

    /// Cached tokens so far.
    pub fn cached_tokens(&self) -> usize {
        match &self.store {
            KvStore::Paged(seqs) => seqs[0].len(),
            KvStore::Spilled(snap) => snap.len(),
        }
    }

    /// KV capacity in tokens (the admission bound; pages are only
    /// allocated as tokens actually arrive).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears the KV cache (the stream restarts from an empty context);
    /// every page the state held recycles into the pool.
    pub fn reset(&mut self) {
        let layers = self.layer_count();
        self.store = KvStore::Paged((0..layers).map(|_| KvSeq::new(&self.pool)).collect());
    }

    /// The pool this state draws pages from.
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.pool
    }

    fn layer_count(&self) -> usize {
        match &self.store {
            KvStore::Paged(seqs) => seqs.len(),
            KvStore::Spilled(snap) => snap.layer_count(),
        }
    }

    /// Pages currently held across all layers (0 while spilled).
    pub fn kv_pages(&self) -> usize {
        match &self.store {
            KvStore::Paged(seqs) => seqs.iter().map(|s| s.page_count()).sum(),
            KvStore::Spilled(_) => 0,
        }
    }

    /// Held pages shared with at least one other holder (prefix cache or
    /// sibling session).
    pub fn shared_kv_pages(&self) -> usize {
        match &self.store {
            KvStore::Paged(seqs) => seqs.iter().map(|s| s.shared_pages()).sum(),
            KvStore::Spilled(_) => 0,
        }
    }

    /// Whether the KV currently lives as a spilled snapshot.
    pub fn is_spilled(&self) -> bool {
        matches!(self.store, KvStore::Spilled(_))
    }

    /// Densifies the pages into a snapshot and releases them to the pool
    /// (idle-session residency bound). Returns `false` if already
    /// spilled. The next forward restores transparently; note a restored
    /// state owns all its pages again (prefix sharing, if any, is lost).
    pub fn spill(&mut self) -> bool {
        match &self.store {
            KvStore::Paged(seqs) => {
                self.store = KvStore::Spilled(KvSnapshot::from_seqs(seqs, self.capacity));
                true
            }
            KvStore::Spilled(_) => false,
        }
    }

    /// Re-materializes spilled KV into pool pages; no-op when resident.
    pub fn restore(&mut self) -> Result<(), KvPoolExhausted> {
        if let KvStore::Spilled(snap) = &self.store {
            self.store = KvStore::Paged(snap.restore(&self.pool)?);
        }
        Ok(())
    }

    /// A dense copy of the KV contents (works spilled or resident) — the
    /// migration wire format ([`KvSnapshot::to_bytes`]).
    pub fn snapshot(&self) -> KvSnapshot {
        match &self.store {
            KvStore::Paged(seqs) => KvSnapshot::from_seqs(seqs, self.capacity),
            KvStore::Spilled(snap) => snap.clone(),
        }
    }

    /// Rebuilds a state from a snapshot, drawing pages from `pool`
    /// (possibly a different shard's pool than the snapshot came from).
    /// Continuation is bit-identical: the dense copy preserves every KV
    /// value and the paged read path preserves arithmetic order.
    pub fn from_snapshot(
        pool: &Arc<KvPagePool>,
        snap: &KvSnapshot,
    ) -> Result<Self, KvPoolExhausted> {
        let seqs = snap.restore(pool)?;
        Ok(DecoderState {
            pool: Arc::clone(pool),
            capacity: snap.capacity(),
            store: KvStore::Paged(seqs),
        })
    }

    /// Dedups this state's freshly prefilled prompt prefix against
    /// `cache` (see [`PrefixCache`]): on a hit the state's leading pages
    /// are replaced by the cached shared pages (the duplicates recycle to
    /// the pool); on a miss the prefix is registered for future tenants.
    /// `prompt` is the full `hidden x tokens` prefill input and `tokens`
    /// must equal the state's cached length (i.e. call right after the
    /// prefill that started from an empty state). Returns the number of
    /// page handles now pointing at shared pages.
    pub fn share_prefix(&mut self, cache: &PrefixCache, prompt: &[f32], tokens: usize) -> usize {
        match &mut self.store {
            KvStore::Paged(seqs) => cache.share_seqs(seqs, prompt, tokens),
            KvStore::Spilled(_) => 0,
        }
    }

    /// The resident page tables, restoring from a spill first if needed.
    fn seqs(&mut self) -> &mut [KvSeq] {
        self.restore().expect("KV page pool exhausted restoring a spilled session");
        match &mut self.store {
            KvStore::Paged(seqs) => seqs,
            KvStore::Spilled(_) => unreachable!("restored above"),
        }
    }
}

impl DecoderModel {
    /// Random-initialized weights for `cfg`. This is where every weight is
    /// packed into its blocked kernel layout — the only weight-pack events
    /// the model ever generates (see [`crate::prepared::pack_events`]).
    pub fn new(cfg: DecoderConfig, seed: u64) -> Self {
        Self::new_with_precision(cfg, seed, Precision::F32)
    }

    /// [`DecoderModel::new`] at an explicit precision. The same `seed`
    /// draws the same f32 weights at every precision, so an
    /// [`Precision::Int8`] model is the *quantization* of the f32 model
    /// with that seed — the property the int8-vs-f32 equivalence tests
    /// rely on. Quantization happens once here (per plan build); decode
    /// steps touch no weight bytes at either precision.
    pub fn new_with_precision(cfg: DecoderConfig, seed: u64, precision: Precision) -> Self {
        let mut rng = Xorshift::new(seed);
        let h = cfg.hidden;
        let f = cfg.ffn;
        let mut mk = |rows: usize, cols: usize| {
            let std = (1.0 / rows as f32).sqrt();
            let mut v = vec![0.0f32; rows * cols];
            pl_tensor::fill_normal(&mut v, &mut rng, 0.0, std);
            MatmulPlan::with_precision(&v, Trans::No, rows, cols, precision)
        };
        let blocks = (0..cfg.layers)
            .map(|_| Block {
                wq: mk(h, h),
                wk: mk(h, h),
                wv: mk(h, h),
                wo: mk(h, h),
                w1: mk(f, h),
                w2: mk(h, f),
                ln1_g: vec![1.0; h],
                ln1_b: vec![0.0; h],
                ln2_g: vec![1.0; h],
                ln2_b: vec![0.0; h],
            })
            .collect();
        DecoderModel { cfg, precision, blocks }
    }

    /// Config accessor.
    pub fn config(&self) -> &DecoderConfig {
        &self.cfg
    }

    /// The precision every weight plan was built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes of packed weight operands streamed through memory by one
    /// decode step (every plan executes exactly once per step, at any
    /// batch width). Decode is weight-bandwidth-bound, so this is the
    /// denominator of the int8 speedup story: the int8 figure is ~4x
    /// smaller than the f32 one for the same config.
    pub fn weight_stream_bytes_per_step(&self) -> usize {
        self.blocks.iter().flat_map(|b| b.plans()).map(|p| p.weight_stream_bytes()).sum()
    }

    /// Appends (deduped by `(m, n, k)`) the exact GEMM problems this
    /// model's prepared plans execute at activation width `n` — what a
    /// tuning warmer must cover so steady-state traffic runs search
    /// winners. The shapes come *from the plans themselves*, so they are
    /// blocked identically to the kernels that will run.
    pub fn plan_problems(&self, n: usize, out: &mut Vec<GemmProblem>) {
        for blk in &self.blocks {
            for plan in blk.plans() {
                let p = plan.problem(n);
                if !out.iter().any(|q| (q.m, q.n, q.k) == (p.m, p.n, p.k)) {
                    out.push(p);
                }
            }
        }
    }

    /// Pre-constructs every plan's kernel at each width in `widths`
    /// (zero-width entries are skipped), so the first real step at any of
    /// those widths builds nothing. Call after installing a tuning
    /// snapshot: the kernels then resolve against it immediately.
    pub fn warm_plans(&self, widths: &[usize]) {
        for blk in &self.blocks {
            for plan in blk.plans() {
                for &n in widths {
                    if n > 0 {
                        plan.warm(n);
                    }
                }
            }
        }
    }

    /// Fresh empty KV state with capacity `max_tokens`, drawing pages
    /// from a private unbounded pool at the default page size. Serving
    /// tiers that want sharing and bounded residency pass their shard
    /// pool via [`DecoderModel::new_state_in`] instead.
    pub fn new_state(&self, max_tokens: usize) -> DecoderState {
        let pool = KvPagePool::new(self.cfg.hidden, crate::kvpool::DEFAULT_PAGE_TOKENS);
        self.new_state_in(&pool, max_tokens)
    }

    /// Fresh empty KV state with capacity `max_tokens` over a shared
    /// page pool (one pool per serving shard: sessions share prefix
    /// pages and compete for the same residency bound).
    pub fn new_state_in(&self, pool: &Arc<KvPagePool>, max_tokens: usize) -> DecoderState {
        assert_eq!(pool.hidden(), self.cfg.hidden, "pool geometry must match the model");
        DecoderState::new_in(pool, self.cfg.layers, max_tokens)
    }

    /// Rebuilds a session state from a [`KvSnapshot`] into `pool` — the
    /// import half of cross-shard migration. Continuation from the
    /// restored state is bit-identical to continuing the original.
    pub fn state_from_snapshot(
        &self,
        pool: &Arc<KvPagePool>,
        snap: &KvSnapshot,
    ) -> Result<DecoderState, KvPoolExhausted> {
        assert_eq!(pool.hidden(), self.cfg.hidden, "pool geometry must match the model");
        assert_eq!(snap.layer_count(), self.cfg.layers, "snapshot layer count mismatch");
        DecoderState::from_snapshot(pool, snap)
    }

    /// Forward over `tokens` new positions (`hidden x tokens` hidden
    /// states, column-major); appends to `state`'s caches and returns the
    /// transformed states. Causal masking applies. `tokens == 1` is one
    /// autoregressive step; a whole prompt is a prefill. This is
    /// [`DecoderModel::forward_batch`] with one lane.
    pub fn forward(
        &self,
        state: &mut DecoderState,
        x: &[f32],
        tokens: usize,
        pool: &ThreadPool,
    ) -> Vec<f32> {
        self.forward_batch(vec![(state, x, tokens)], pool).pop().expect("one lane in, one out")
    }

    /// One decode step for each of `batch` independent sessions: entries
    /// are `(state, x)` with `x` one token's `hidden` values. This is
    /// [`DecoderModel::forward_batch`] with every lane one token wide.
    pub fn step_batch(
        &self,
        batch: Vec<(&mut DecoderState, &[f32])>,
        pool: &ThreadPool,
    ) -> Vec<Vec<f32>> {
        self.forward_batch(batch.into_iter().map(|(s, x)| (s, x, 1)).collect(), pool)
    }

    /// The batched forward — the only transformer-block implementation.
    /// Entries are lanes `(state, x, tokens)`: `x` holds `hidden x tokens`
    /// column-major hidden states appended to that session's KV cache (a
    /// decode step is one token, a prefill chunk several). Returns the
    /// per-lane outputs in input order.
    ///
    /// Per layer, LN, the QKV, output and FFN projections run **once**
    /// over the concatenated columns of every lane: each weight element
    /// loaded serves every token in the batch. KV append and causal
    /// attention run per lane, against that lane's own page table,
    /// load-balanced inside one parallel region.
    ///
    /// Every lane's output is **bit-identical** to running that lane alone:
    /// LN, GELU and attention are per column or per lane, and each GEMM
    /// output column depends only on its input column (the K reduction
    /// order is fixed per plan, never per width or spec — see
    /// [`crate::prepared::MatmulPlan`]). Batch composition, team size and
    /// page size therefore never change a lane's bits.
    pub fn forward_batch(
        &self,
        batch: Vec<(&mut DecoderState, &[f32], usize)>,
        pool: &ThreadPool,
    ) -> Vec<Vec<f32>> {
        let h = self.cfg.hidden;
        let total: usize = batch.iter().map(|b| b.2).sum();
        let mut x = Vec::with_capacity(h * total);
        let mut lanes = Vec::with_capacity(batch.len());
        for (i, (state, xs, tokens)) in batch.into_iter().enumerate() {
            assert_eq!(xs.len(), h * tokens, "lane {i}: input must be `hidden x tokens` values");
            assert!(
                state.cached_tokens() + tokens <= state.capacity,
                "KV cache overflow (lane {i})"
            );
            lanes.push(Lane { col: x.len() / h, tokens, state: Mutex::new(state) });
            x.extend_from_slice(xs);
        }
        if total > 0 {
            let mut scratch = ForwardScratch::default();
            for l in 0..self.blocks.len() {
                x = self.block_forward(l, &lanes, &x, &mut scratch, pool);
            }
        }
        lanes.iter().map(|ln| x[ln.col * h..(ln.col + ln.tokens) * h].to_vec()).collect()
    }

    /// Forward over `tokens` new positions in bounded chunks
    /// ([`prefill_chunk_widths`] under the `chunk` cap): each chunk is one
    /// [`DecoderModel::forward`] call appending to `state`'s KV cache —
    /// the resumable form a serving runtime admits through its batcher one
    /// chunk at a time. Returns the concatenated per-chunk outputs
    /// (`hidden x tokens`), bit-identical to a whole-prompt forward: every
    /// projection column depends only on its own token, and each chunk's
    /// attention sees exactly the causal prefix the whole prompt would.
    pub fn forward_chunked(
        &self,
        state: &mut DecoderState,
        x: &[f32],
        tokens: usize,
        chunk: usize,
        pool: &ThreadPool,
    ) -> Vec<f32> {
        let h = self.cfg.hidden;
        let mut out = Vec::with_capacity(h * tokens);
        let mut done = 0usize;
        for w in prefill_chunk_widths(tokens, chunk) {
            out.extend(self.forward(state, &x[done * h..(done + w) * h], w, pool));
            done += w;
        }
        out
    }

    /// One transformer block over every lane's columns. The QKV
    /// projections share **one** pre-blocked copy of their input (packed
    /// once into `scratch`, consumed by three plans), and every other
    /// projection reuses the same scratch allocations — no weight bytes
    /// are packed anywhere on this path. Phase spans carry
    /// `[layer, columns, lanes]`.
    fn block_forward(
        &self,
        l: usize,
        lanes: &[Lane<'_>],
        x: &[f32],
        scratch: &mut ForwardScratch,
        pool: &ThreadPool,
    ) -> Vec<f32> {
        let h = self.cfg.hidden;
        let f = self.cfg.ffn;
        let n = x.len() / h;
        let blk = &self.blocks[l];
        let args = [l as u64, n as u64, lanes.len() as u64];

        let ln_span = pl_trace::span("decode.ln", args);
        let mut xn = vec![0.0f32; h * n];
        let (mut mean, mut rstd) = (vec![0.0; n], vec![0.0; n]);
        norm::layernorm(h, n, x, h, &blk.ln1_g, &blk.ln1_b, 1e-5, &mut xn, h, &mut mean, &mut rstd);
        drop(ln_span);

        let qkv_span = pl_trace::span("decode.qkv", args);
        let (q, knew, vnew) = {
            let xb = blk.wq.pack_activations(&xn, n, &mut scratch.b_hidden);
            (
                blk.wq.execute_packed(xb, &mut scratch.c_hidden, pool),
                blk.wk.execute_packed(xb, &mut scratch.c_hidden, pool),
                blk.wv.execute_packed(xb, &mut scratch.c_hidden, pool),
            )
        };
        drop(qkv_span);

        // Per-lane KV append + attention, each lane writing its own
        // disjoint column range of `ctx`. The mutexes are uncontended
        // (the dynamic schedule hands each index to exactly one thread);
        // they only launder the `&mut`s across the team.
        let attn_span = pl_trace::span("decode.attn", args);
        let mut ctx = vec![0.0f32; h * n];
        let mut ctx_parts = Vec::with_capacity(lanes.len());
        let mut rest = ctx.as_mut_slice();
        for lane in lanes {
            let (part, tail) = rest.split_at_mut(h * lane.tokens);
            ctx_parts.push(Mutex::new(part));
            rest = tail;
        }
        let attend = |i: usize| {
            let lane = &lanes[i];
            let cols = lane.col * h..(lane.col + lane.tokens) * h;
            let mut state = lane.state.lock().expect("lane lock poisoned by a panicked task");
            let mut out = ctx_parts[i].lock().expect("lane lock poisoned by a panicked task");
            self.attend(
                l,
                &mut state,
                &q[cols.clone()],
                &knew[cols.clone()],
                &vnew[cols],
                &mut out,
            );
        };
        if lanes.len() == 1 {
            attend(0);
        } else {
            pool.parallel_tasks(lanes.len(), attend);
        }
        drop(ctx_parts);
        let attn = {
            let cb = blk.wo.pack_activations(&ctx, n, &mut scratch.b_hidden);
            blk.wo.execute_packed(cb, &mut scratch.c_hidden, pool)
        };
        drop(attn_span);
        let mut resid: Vec<f32> = x.iter().zip(&attn).map(|(a, b)| a + b).collect();

        // FFN with pre-LN; the blocked scratch (same `k = hidden` layout
        // as QKV) is reused.
        let _ffn_span = pl_trace::span("decode.ffn", args);
        let mut rn = vec![0.0f32; h * n];
        norm::layernorm(
            h, n, &resid, h, &blk.ln2_g, &blk.ln2_b, 1e-5, &mut rn, h, &mut mean, &mut rstd,
        );
        let pre = {
            let rb = blk.w1.pack_activations(&rn, n, &mut scratch.b_hidden);
            blk.w1.execute_packed(rb, &mut scratch.c_ffn, pool)
        };
        let mut act = vec![0.0f32; f * n];
        unary::gelu(f, n, &pre, f, &mut act, f);
        let ffn = {
            let ab = blk.w2.pack_activations(&act, n, &mut scratch.b_ffn);
            blk.w2.execute_packed(ab, &mut scratch.c_hidden, pool)
        };
        for (r, v) in resid.iter_mut().zip(&ffn) {
            *r += *v;
        }
        resid
    }

    /// One lane's share of a layer: appends its `tokens` new K/V columns
    /// to the layer's page table (growing pages on demand, COW-splitting a
    /// shared tail page before the first write), then runs causal
    /// attention of its queries over the lane's whole context into `ctx`.
    fn attend(
        &self,
        l: usize,
        state: &mut DecoderState,
        q: &[f32],
        knew: &[f32],
        vnew: &[f32],
        ctx: &mut [f32],
    ) {
        let h = self.cfg.hidden;
        let nh = self.cfg.heads;
        let dh = h / nh;
        let tokens = q.len() / h;
        let kvpool = Arc::clone(&state.pool);
        let seq = &mut state.seqs()[l];
        let past = seq.len();
        for t in 0..tokens {
            seq.append(&kvpool, &knew[t * h..(t + 1) * h], &vnew[t * h..(t + 1) * h])
                .expect("KV page pool exhausted");
        }
        let total = past + tokens;
        // Token slices resolved once through the page indirection; the
        // loops below run the contiguous layout's arithmetic in the same
        // per-element order, so paging never changes the outputs.
        let ktoks: Vec<&[f32]> = (0..total).map(|t| seq.k_tok(t)).collect();
        let vtoks: Vec<&[f32]> = (0..total).map(|t| seq.v_tok(t)).collect();
        let scale = 1.0 / (dh as f32).sqrt();
        for hd in 0..nh {
            let mut s = vec![f32::NEG_INFINITY; total * tokens];
            for tq in 0..tokens {
                let qoff = tq * h + hd * dh;
                let visible = past + tq + 1; // causal mask
                for tk in 0..visible {
                    let mut dot = 0.0f32;
                    for d in 0..dh {
                        dot += q[qoff + d] * ktoks[tk][hd * dh + d];
                    }
                    s[tq * total + tk] = dot * scale;
                }
            }
            let mut p = vec![0.0f32; total * tokens];
            softmax::softmax_cols(total, tokens, &s, total, &mut p, total);
            for tq in 0..tokens {
                let visible = past + tq + 1;
                for d in 0..dh {
                    let mut acc = 0.0f32;
                    for tk in 0..visible {
                        acc += p[tq * total + tk] * vtoks[tk][hd * dh + d];
                    }
                    ctx[tq * h + hd * dh + d] = acc;
                }
            }
        }
    }
}

/// A runnable (scaled) single-stream decoder: shared weights + one state.
pub struct Decoder {
    model: Arc<DecoderModel>,
    state: DecoderState,
}

impl Decoder {
    /// Random-initialized decoder with KV capacity `max_tokens`.
    pub fn new(cfg: DecoderConfig, max_tokens: usize, seed: u64) -> Self {
        let model = Arc::new(DecoderModel::new(cfg, seed));
        let state = model.new_state(max_tokens);
        Decoder { model, state }
    }

    /// A decoder sharing `model`'s weights, with a fresh KV state.
    pub fn from_model(model: Arc<DecoderModel>, max_tokens: usize) -> Self {
        let state = model.new_state(max_tokens);
        Decoder { model, state }
    }

    /// The shared weights.
    pub fn model(&self) -> &Arc<DecoderModel> {
        &self.model
    }

    /// Config accessor.
    pub fn config(&self) -> &DecoderConfig {
        self.model.config()
    }

    /// Cached tokens so far.
    pub fn cached_tokens(&self) -> usize {
        self.state.cached_tokens()
    }

    /// Clears the KV cache.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Prefill over a whole prompt (`hidden x tokens` hidden states);
    /// fills the cache and returns the transformed states ("first token"
    /// compute). Causal masking applies.
    pub fn prefill(&mut self, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
        self.model.forward(&mut self.state, x, tokens, pool)
    }

    /// One autoregressive step for a single token's hidden state
    /// (`hidden` values); appends to the cache ("next token" compute).
    pub fn step(&mut self, x: &[f32], pool: &ThreadPool) -> Vec<f32> {
        self.prefill(x, 1, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::fill_uniform;

    #[test]
    fn incremental_decoding_matches_full_prefill() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let tokens = 6;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(8), -0.5, 0.5);

        // Full prefill.
        let mut full = Decoder::new(cfg, 16, 99);
        let y_full = full.prefill(&x, tokens, &pool);

        // Token-by-token with KV cache.
        let mut inc = Decoder::new(cfg, 16, 99);
        let mut last = Vec::new();
        for t in 0..tokens {
            last = inc.step(&x[t * cfg.hidden..(t + 1) * cfg.hidden], &pool);
        }
        // The final token's output must agree.
        let y_last = &y_full[(tokens - 1) * cfg.hidden..tokens * cfg.hidden];
        for (a, b) in y_last.iter().zip(&last) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert_eq!(inc.cached_tokens(), tokens);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // Changing a later token must not affect an earlier token's output.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let tokens = 4;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(9), -0.5, 0.5);
        let mut d1 = Decoder::new(cfg, 8, 7);
        let y1 = d1.prefill(&x, tokens, &pool);
        let mut x2 = x.clone();
        for v in &mut x2[(tokens - 1) * cfg.hidden..] {
            *v += 1.0;
        }
        let mut d2 = Decoder::new(cfg, 8, 7);
        let y2 = d2.prefill(&x2, tokens, &pool);
        for i in 0..cfg.hidden {
            assert!((y1[i] - y2[i]).abs() < 1e-5, "token 0 leaked future info");
        }
    }

    #[test]
    fn full_config_accounting() {
        let g = DecoderConfig::gptj_6b();
        // ~6B parameters.
        assert!((g.params() / 1e9 - 6.0).abs() < 1.0, "{}", g.params() / 1e9);
        let l = DecoderConfig::llama2_13b();
        assert!((l.params() / 1e9 - 13.0).abs() < 2.0, "{}", l.params() / 1e9);
        // First token over 1024 tokens is compute heavy; next token is not.
        assert!(g.first_token_flops(1024) > 500.0 * g.next_token_flops(1024));
        // Weights in bf16 are half of f32.
        assert!((g.weight_bytes(2) * 2.0 - g.weight_bytes(4)).abs() < 1.0);
    }

    #[test]
    fn cache_overflow_is_caught() {
        let pool = ThreadPool::new(1);
        let cfg = DecoderConfig::scaled_for_tests();
        let mut d = Decoder::new(cfg, 2, 1);
        let x = vec![0.1f32; cfg.hidden * 2];
        let _ = d.prefill(&x, 2, &pool);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.step(&x[..cfg.hidden], &pool);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn step_is_deterministic_across_team_sizes() {
        // The serving batcher relies on this: per-session compute does not
        // depend on how many threads participate (each C block of every
        // GEMM is produced by exactly one thread with a fixed reduction
        // order), so batched (nested-serial) and unbatched (parallel)
        // execution are bit-identical.
        let cfg = DecoderConfig::scaled_for_tests();
        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(3), -0.5, 0.5);
        let mut outs = Vec::new();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut d = Decoder::new(cfg, 8, 42);
            outs.push(d.step(&x, &pool));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
    }

    #[test]
    fn step_batch_matches_unbatched_bitwise() {
        let pool = ThreadPool::new(4);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 1234));
        let n = 5;
        // Distinct per-session inputs and a shared prompt history.
        let mut inputs = Vec::new();
        for s in 0..n {
            let mut x = vec![0.0f32; cfg.hidden];
            fill_uniform(&mut x, &mut Xorshift::new(100 + s as u64), -0.5, 0.5);
            inputs.push(x);
        }

        // Unbatched baseline: one session at a time.
        let mut want = Vec::new();
        for x in &inputs {
            let mut st = model.new_state(8);
            want.push(model.forward(&mut st, x, 1, &pool));
        }

        // Batched: all sessions in one region.
        let mut states: Vec<DecoderState> = (0..n).map(|_| model.new_state(8)).collect();
        let batch: Vec<(&mut DecoderState, &[f32])> =
            states.iter_mut().zip(inputs.iter().map(|x| x.as_slice())).collect();
        let got = model.step_batch(batch, &pool);

        for (s, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w, g, "session {s} diverged");
        }
        assert!(states.iter().all(|s| s.cached_tokens() == 1));
    }

    #[test]
    fn prefill_chunk_widths_are_ladder_aligned() {
        assert_eq!(prefill_chunk_widths(0, 16), Vec::<usize>::new());
        // A prompt that fits in one chunk is never subdivided.
        assert_eq!(prefill_chunk_widths(3, 16), vec![3]);
        assert_eq!(prefill_chunk_widths(16, 16), vec![16]);
        // Non-final chunks are exactly the pow2-normalized cap.
        assert_eq!(prefill_chunk_widths(41, 16), vec![16, 16, 9]);
        assert_eq!(prefill_chunk_widths(32, 4), vec![4; 8]);
        // A ragged cap rounds up to the next power of two (ladder rung).
        assert_eq!(prefill_chunk_widths(20, 6), vec![8, 8, 4]);
        // Degenerate cap: token-at-a-time decoding.
        assert_eq!(prefill_chunk_widths(3, 0), vec![1, 1, 1]);
        for (tokens, chunk) in [(1, 1), (7, 2), (100, 16), (33, 32)] {
            let widths = prefill_chunk_widths(tokens, chunk);
            assert_eq!(widths.iter().sum::<usize>(), tokens);
            assert!(widths[..widths.len() - 1].iter().all(|w| w.is_power_of_two()));
        }
    }

    #[test]
    fn forward_chunked_matches_whole_prompt_bitwise() {
        // Chunking changes GEMM widths and each chunk's attention extent,
        // never a column's arithmetic: every chunking equals the
        // whole-prompt forward bit for bit, at both precisions.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let tokens = 11;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(21), -0.5, 0.5);
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 77, precision);
            let whole = model.forward(&mut model.new_state(16), &x, tokens, &pool);
            for chunk in [1, 4, 16] {
                let mut st = model.new_state(16);
                let chunked = model.forward_chunked(&mut st, &x, tokens, chunk, &pool);
                assert_eq!(chunked, whole, "chunk {chunk} ({precision:?})");
                assert_eq!(st.cached_tokens(), tokens);
            }
        }
    }

    #[test]
    fn forward_batch_mixed_widths_is_bitwise_per_item() {
        // A mixed region — two decode steps next to a 5-token prefill
        // chunk — must produce, per item, exactly what a standalone
        // forward produces: batch composition never changes arithmetic.
        let pool = ThreadPool::new(4);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 404));
        let widths = [1usize, 5, 1];
        let inputs: Vec<Vec<f32>> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut x = vec![0.0f32; cfg.hidden * w];
                fill_uniform(&mut x, &mut Xorshift::new(600 + i as u64), -0.5, 0.5);
                x
            })
            .collect();
        let want: Vec<Vec<f32>> = inputs
            .iter()
            .zip(widths)
            .map(|(x, w)| model.forward(&mut model.new_state(8), x, w, &pool))
            .collect();
        let mut states: Vec<DecoderState> = (0..3).map(|_| model.new_state(8)).collect();
        let batch: Vec<(&mut DecoderState, &[f32], usize)> = states
            .iter_mut()
            .zip(inputs.iter().map(|x| x.as_slice()))
            .zip(widths)
            .map(|((s, x), w)| (s, x, w))
            .collect();
        let got = model.forward_batch(batch, &pool);
        assert_eq!(got, want);
        for (s, &w) in states.iter().zip(&widths) {
            assert_eq!(s.cached_tokens(), w);
        }
    }

    /// Token width of the prefill-chunk lane in mixed-batch runs.
    const CHUNK: usize = 3;

    /// A lane's input for `step` of a mixed-batch run: lane 0 is a
    /// prefill chunk of `CHUNK` tokens, the others single decode tokens.
    fn lane_input(cfg: &DecoderConfig, lane: usize, step: usize) -> (Vec<f32>, usize) {
        let tokens = if lane == 0 { CHUNK } else { 1 };
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(300 + 17 * lane as u64 + step as u64), -0.5, 0.5);
        (x, tokens)
    }

    #[test]
    fn mixed_batches_match_each_lane_alone_bitwise() {
        // Ragged decode lanes (each enters with a different context
        // length) plus one prefill chunk, over a small-page pool so lanes
        // cross page boundaries mid-run: every lane of every batch must
        // equal that lane run alone through `forward`, bit for bit, at
        // both precisions, and leave identical KV bookkeeping behind.
        let pool = ThreadPool::new(4);
        let cfg = DecoderConfig::scaled_for_tests();
        let n = 5;
        let steps = 3;
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 2024, precision);
            let kvpool = crate::kvpool::KvPagePool::new(cfg.hidden, 3);
            let mut batched: Vec<DecoderState> =
                (0..n).map(|_| model.new_state_in(&kvpool, 32)).collect();
            let mut alone: Vec<DecoderState> = (0..n).map(|_| model.new_state(32)).collect();
            for (s, (b, a)) in batched.iter_mut().zip(&mut alone).enumerate() {
                let prompt = s + 1;
                let mut px = vec![0.0f32; cfg.hidden * prompt];
                fill_uniform(&mut px, &mut Xorshift::new(200 + s as u64), -0.5, 0.5);
                assert_eq!(
                    model.forward(b, &px, prompt, &pool),
                    model.forward(a, &px, prompt, &pool)
                );
            }
            for step in 0..steps {
                let inputs: Vec<(Vec<f32>, usize)> =
                    (0..n).map(|s| lane_input(&cfg, s, step)).collect();
                let batch: Vec<(&mut DecoderState, &[f32], usize)> = batched
                    .iter_mut()
                    .zip(&inputs)
                    .map(|(st, (x, t))| (st, x.as_slice(), *t))
                    .collect();
                let got = model.forward_batch(batch, &pool);
                for (s, (st, (x, t))) in alone.iter_mut().zip(&inputs).enumerate() {
                    let want = model.forward(st, x, *t, &pool);
                    assert_eq!(got[s], want, "lane {s} step {step} ({precision:?})");
                }
            }
            for (s, (b, a)) in batched.iter().zip(&alone).enumerate() {
                let appended = if s == 0 { CHUNK * steps } else { steps };
                assert_eq!(b.cached_tokens(), s + 1 + appended);
                assert_eq!(a.cached_tokens(), b.cached_tokens());
            }
        }
    }

    #[test]
    fn forward_batch_handles_empty_and_singleton_batches() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 9));
        assert!(model.step_batch(Vec::new(), &pool).is_empty());
        assert!(model.forward_batch(Vec::new(), &pool).is_empty());

        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(17), -0.5, 0.5);
        let mut st_batch = model.new_state(8);
        let got = model.step_batch(vec![(&mut st_batch, x.as_slice())], &pool);
        let mut st_plain = model.new_state(8);
        let want = model.forward(&mut st_plain, &x, 1, &pool);
        assert_eq!(got, vec![want]);
        assert_eq!(st_batch.cached_tokens(), 1);
    }

    #[test]
    fn plan_problems_and_warm_cover_layer_shapes() {
        let cfg = DecoderConfig::scaled_for_tests();
        let model = DecoderModel::new(cfg, 5);
        let mut out = Vec::new();
        model.plan_problems(4, &mut out);
        let shapes: Vec<(usize, usize, usize)> = out.iter().map(|p| (p.m, p.n, p.k)).collect();
        // Deduped across layers: QKV/WO share one shape, plus the two FFN
        // shapes.
        assert_eq!(
            shapes,
            vec![(cfg.hidden, 4, cfg.hidden), (cfg.ffn, 4, cfg.hidden), (cfg.hidden, 4, cfg.ffn)]
        );
        // Warming is side-effect-only (zero widths skipped).
        model.warm_plans(&[1, 4, 0]);
    }

    #[test]
    fn int8_model_tracks_f32_model_over_decode() {
        // Same seed => the int8 model is the quantization of the f32 one.
        // Prefill + several batched decode steps: outputs must stay
        // within the quantization error budget (see the serve README
        // "Precision" section for the bound's derivation) and stream ~4x
        // fewer weight bytes per step.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let f32_model = Arc::new(DecoderModel::new(cfg, 314));
        let i8_model = Arc::new(DecoderModel::new_with_precision(cfg, 314, Precision::Int8));
        assert_eq!(f32_model.precision(), Precision::F32);
        assert_eq!(i8_model.precision(), Precision::Int8);
        let fb = f32_model.weight_stream_bytes_per_step();
        let ib = i8_model.weight_stream_bytes_per_step();
        let ratio = fb as f64 / ib as f64;
        assert!(ratio > 3.5 && ratio <= 4.0, "weight-traffic ratio {ratio} (f32 {fb} / i8 {ib})");

        let n = 3;
        let steps = 4;
        let mut f_states: Vec<DecoderState> = (0..n).map(|_| f32_model.new_state(16)).collect();
        let mut q_states: Vec<DecoderState> = (0..n).map(|_| i8_model.new_state(16)).collect();
        let mut q_alone: Vec<DecoderState> = (0..n).map(|_| i8_model.new_state(16)).collect();
        let mut f_in = Vec::new();
        let mut q_in = Vec::new();
        for s in 0..n {
            let prompt = s + 1; // ragged contexts
            let mut px = vec![0.0f32; cfg.hidden * prompt];
            fill_uniform(&mut px, &mut Xorshift::new(700 + s as u64), -0.5, 0.5);
            let yf = f32_model.forward(&mut f_states[s], &px, prompt, &pool);
            let yq = i8_model.forward(&mut q_states[s], &px, prompt, &pool);
            let _ = i8_model.forward(&mut q_alone[s], &px, prompt, &pool);
            f_in.push(yf[(prompt - 1) * cfg.hidden..prompt * cfg.hidden].to_vec());
            q_in.push(yq[(prompt - 1) * cfg.hidden..prompt * cfg.hidden].to_vec());
        }
        for step in 0..steps {
            let fb: Vec<(&mut DecoderState, &[f32])> =
                f_states.iter_mut().zip(f_in.iter().map(|x| x.as_slice())).collect();
            let f_out = f32_model.step_batch(fb, &pool);
            let qb: Vec<(&mut DecoderState, &[f32])> =
                q_states.iter_mut().zip(q_in.iter().map(|x| x.as_slice())).collect();
            let q_out = i8_model.step_batch(qb, &pool);
            for s in 0..n {
                // Int8 vs f32. Bound derivation: symmetric int8
                // rounding bounds each operand element's error by half a
                // quantization step (max|.|/254); for roughly Gaussian
                // operands (peaks near 3 sigma) one GEMM's output error is
                // ~1% RMS of the output magnitude, independent of k (error
                // and signal both grow as sqrt(k) — random signs cancel).
                // Per-element outliers run a few x RMS and errors compound
                // over 6 GEMMs/layer x 2 layers x closed-loop steps
                // (observed max ~0.1 at this scale), so 0.25 against a
                // 1.0-floored denominator is a safe envelope.
                for (i, (a, b)) in q_out[s].iter().zip(&f_out[s]).enumerate() {
                    let rel = (a - b).abs() / b.abs().max(1.0);
                    assert!(rel < 0.25, "step {step} session {s} idx {i}: i8 {a} vs f32 {b}");
                }
                // The batched int8 lane equals the lane run alone: same
                // quantized weights, and the int8 reduction order is fixed
                // per plan, so batch width never changes a bit.
                let alone = i8_model.forward(&mut q_alone[s], &q_in[s], 1, &pool);
                assert_eq!(q_out[s], alone, "step {step} session {s}: batched vs alone");
            }
            f_in = f_out;
            q_in = q_out;
        }
    }

    #[test]
    fn shared_model_states_are_independent() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 7));
        let mut a = Decoder::from_model(Arc::clone(&model), 8);
        let mut b = Decoder::from_model(Arc::clone(&model), 8);
        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(11), -0.5, 0.5);
        let ya1 = a.step(&x, &pool);
        // b's state is untouched by a's step and vice versa.
        assert_eq!(a.cached_tokens(), 1);
        assert_eq!(b.cached_tokens(), 0);
        let yb1 = b.step(&x, &pool);
        assert_eq!(ya1, yb1, "same weights + same context => same output");
    }

    /// Drives prefill + decode at one page size; returns the full output
    /// stream (prefill output then each step's output).
    fn paged_stream(
        model: &DecoderModel,
        page_tokens: usize,
        capacity: usize,
        pool: &ThreadPool,
    ) -> Vec<Vec<f32>> {
        let cfg = model.config();
        let kvpool = crate::kvpool::KvPagePool::new(cfg.hidden, page_tokens);
        let mut st = model.new_state_in(&kvpool, capacity);
        let prompt = 5;
        let mut px = vec![0.0f32; cfg.hidden * prompt];
        fill_uniform(&mut px, &mut Xorshift::new(4040), -0.5, 0.5);
        let y = model.forward(&mut st, &px, prompt, pool);
        let mut outs = vec![y.clone()];
        let mut x = y[(prompt - 1) * cfg.hidden..].to_vec();
        for _ in 0..4 {
            x = model.forward(&mut st, &x, 1, pool);
            outs.push(x.clone());
        }
        outs
    }

    #[test]
    fn paged_decode_bitwise_invariant_across_page_sizes() {
        // A pool whose page holds the whole capacity IS the contiguous
        // layout (one page = one flat buffer); smaller page sizes only
        // change where token slices live, never the arithmetic — so every
        // page size must produce bit-identical streams, at f32 and int8.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let capacity = 16;
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 606, precision);
            let contiguous = paged_stream(&model, capacity, capacity, &pool);
            for page_tokens in [1, 3, crate::kvpool::DEFAULT_PAGE_TOKENS] {
                let paged = paged_stream(&model, page_tokens, capacity, &pool);
                assert_eq!(
                    paged, contiguous,
                    "page size {page_tokens} diverged from contiguous ({precision:?})"
                );
            }
        }
    }

    #[test]
    fn batched_decode_bitwise_invariant_across_page_sizes() {
        // Batched lanes read KV through the same indirection inside their
        // per-lane attention tasks; fixing the batch composition, page
        // size must be invisible bit-for-bit.
        let pool = ThreadPool::new(4);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 808));
        let n = 3;
        let run = |page_tokens: usize| -> Vec<Vec<Vec<f32>>> {
            let kvpool = crate::kvpool::KvPagePool::new(cfg.hidden, page_tokens);
            let mut states: Vec<DecoderState> =
                (0..n).map(|_| model.new_state_in(&kvpool, 16)).collect();
            let mut inputs = Vec::new();
            for (s, st) in states.iter_mut().enumerate() {
                let prompt = s + 1;
                let mut px = vec![0.0f32; cfg.hidden * prompt];
                fill_uniform(&mut px, &mut Xorshift::new(500 + s as u64), -0.5, 0.5);
                let y = model.forward(st, &px, prompt, &pool);
                inputs.push(y[(prompt - 1) * cfg.hidden..].to_vec());
            }
            let mut steps = Vec::new();
            for _ in 0..3 {
                let batch: Vec<(&mut DecoderState, &[f32])> =
                    states.iter_mut().zip(inputs.iter().map(|x| x.as_slice())).collect();
                let out = model.step_batch(batch, &pool);
                inputs = out.clone();
                steps.push(out);
            }
            steps
        };
        let contiguous = run(16);
        for page_tokens in [2, 5] {
            assert_eq!(run(page_tokens), contiguous, "batched page size {page_tokens} diverged");
        }
    }

    #[test]
    fn spill_restore_and_snapshot_migration_are_bitwise() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = DecoderModel::new(cfg, 909);
        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(23), -0.5, 0.5);
        // Baseline: uninterrupted decode.
        let mut base_st = model.new_state(16);
        let mut base = Vec::new();
        let mut bx = x.clone();
        for _ in 0..6 {
            bx = model.forward(&mut base_st, &bx, 1, &pool);
            base.push(bx.clone());
        }
        // Spilled mid-stream: densify + release pages, then keep going —
        // the next forward restores transparently.
        let mut st = model.new_state(16);
        let mut sx = x.clone();
        let mut got = Vec::new();
        for t in 0..6 {
            if t == 3 {
                assert!(st.spill());
                assert!(st.is_spilled());
                assert_eq!(st.kv_pages(), 0, "spill releases every page");
                assert_eq!(st.cached_tokens(), 3, "accounting survives the spill");
                assert!(!st.spill(), "double spill is a no-op");
            }
            sx = model.forward(&mut st, &sx, 1, &pool);
            got.push(sx.clone());
        }
        assert_eq!(got, base, "spill/restore changed the stream");
        // Migration: serialize to bytes, rebuild into a *different* pool
        // (different page size — another shard's geometry), continue.
        let bytes = st.snapshot().to_bytes();
        let snap = crate::kvpool::KvSnapshot::from_bytes(&bytes).expect("wire roundtrip");
        let other_pool = crate::kvpool::KvPagePool::new(cfg.hidden, 4);
        let mut moved = model.state_from_snapshot(&other_pool, &snap).expect("restore");
        assert_eq!(moved.capacity(), 16, "admission capacity rides the snapshot");
        let y_orig = model.forward(&mut st, &sx.clone(), 1, &pool);
        let y_moved = model.forward(&mut moved, &sx, 1, &pool);
        assert_eq!(y_moved, y_orig, "migrated continuation diverged");
    }

    #[test]
    fn prefix_sharing_dedups_pages_and_cow_isolates_divergence() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = DecoderModel::new(cfg, 1111);
        let kvpool = crate::kvpool::KvPagePool::new(cfg.hidden, 4);
        let cache = crate::kvpool::PrefixCache::new(16);
        let prompt_tokens = 9; // 2 full pages + 1 partial per layer
        let mut prompt = vec![0.0f32; cfg.hidden * prompt_tokens];
        fill_uniform(&mut prompt, &mut Xorshift::new(31), -0.5, 0.5);

        let mut a = model.new_state_in(&kvpool, 16);
        let ya = model.forward(&mut a, &prompt, prompt_tokens, &pool);
        assert_eq!(a.share_prefix(&cache, &prompt, prompt_tokens), 0, "first tenant registers");
        let pages_after_a = kvpool.allocated_pages();

        // Second tenant, identical prompt: all its pages dedup onto a's.
        let mut b = model.new_state_in(&kvpool, 16);
        let yb = model.forward(&mut b, &prompt, prompt_tokens, &pool);
        assert_eq!(ya, yb, "same weights + same prompt => same prefill");
        let adopted = b.share_prefix(&cache, &prompt, prompt_tokens);
        assert_eq!(adopted, b.kv_pages(), "every page handle now shared");
        assert_eq!(
            kvpool.allocated_pages(),
            pages_after_a,
            "the second session's duplicate pages recycled — zero marginal pages"
        );
        assert_eq!(b.shared_kv_pages(), b.kv_pages());
        assert!(a.shared_kv_pages() > 0, "the first session's pages are the shared ones");

        // Divergence: different next tokens. The partial tail page is
        // shared, so the first append COW-splits it — and both streams
        // must match independent (never-shared) baselines bitwise.
        let xa = ya[(prompt_tokens - 1) * cfg.hidden..].to_vec();
        let xb: Vec<f32> = xa.iter().map(|v| v + 0.25).collect();
        let cow_before = kvpool.cow_splits();
        let ya2 = model.forward(&mut a, &xa, 1, &pool);
        let yb2 = model.forward(&mut b, &xb, 1, &pool);
        assert!(kvpool.cow_splits() > cow_before, "divergence forced a COW split");
        let mut ind_a = model.new_state(16);
        model.forward(&mut ind_a, &prompt, prompt_tokens, &pool);
        assert_eq!(model.forward(&mut ind_a, &xa, 1, &pool), ya2, "writer A corrupted");
        let mut ind_b = model.new_state(16);
        model.forward(&mut ind_b, &prompt, prompt_tokens, &pool);
        assert_eq!(model.forward(&mut ind_b, &xb, 1, &pool), yb2, "writer B corrupted");
    }
}
