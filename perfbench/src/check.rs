//! The output check: sampled sessions are replayed through single-session
//! `pl_dnn` decode with the same prefill chunk widths the server used
//! (`DecoderModel::forward_chunked`, i.e. `pl_dnn::prefill_chunk_widths`),
//! and every output is compared bitwise with what the serving stack
//! returned.

use crate::gen::{self, CheckRec};
use crate::inputs::{self, Stream};
use crate::spec::Workload;
use pl_dnn::DecoderModel;
use pl_runtime::ThreadPool;

/// Result of replaying the sampled sessions.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Sessions replayed.
    pub sessions: usize,
    /// Outputs compared.
    pub outputs: usize,
    /// Outputs that differed.
    pub mismatches: usize,
    /// Where the first difference was, if any.
    pub first: Option<String>,
}

/// Replays every recorded session and compares digests.
pub fn replay(
    w: &Workload,
    model: &DecoderModel,
    seed: u64,
    checks: &[CheckRec],
    pool: &ThreadPool,
) -> Verdict {
    let h = w.model.hidden;
    let mut v = Verdict::default();
    for c in checks.iter().filter(|c| !c.digests.is_empty()) {
        v.sessions += 1;
        let mut state = model.new_state(w.kv_capacity());
        let prompt = gen::prompt(w, seed, c.req, c.prefix);
        let mut outputs = Vec::with_capacity(c.digests.len());
        outputs.push(model.forward_chunked(
            &mut state,
            &prompt,
            w.prompt_tokens(),
            w.prefill_chunk,
            pool,
        ));
        for t in 0..c.digests.len() - 1 {
            let x = inputs::vector(seed, Stream::Step, c.req, t as u64, h);
            outputs.push(model.forward(&mut state, &x, 1, pool));
        }
        for (i, (want, out)) in c.digests.iter().zip(&outputs).enumerate() {
            v.outputs += 1;
            if inputs::digest(out) != *want {
                v.mismatches += 1;
                if v.first.is_none() {
                    let what = if i == 0 { "prefill".to_string() } else { format!("step {i}") };
                    v.first = Some(format!("request {} {what}", c.req));
                }
            }
        }
    }
    v
}
