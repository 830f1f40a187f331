//! GEMM written with PARLOOPER and TPPs — a line-for-line reproduction of
//! paper Listing 1.
//!
//! Three logical loops (`a` = K-blocks, `b` = M-blocks, `c` = N-blocks)
//! iterate the blocked operands; the body zeroes the output block on the
//! first K-step (`zero_tpp`) and invokes the stride-based BRGEMM with
//! `brcount = k_step`, `stride_A = bm*bk`, `stride_B = bn*bk`.

use crate::shared::SharedSlice;
use crate::KernelError;
use parlooper::{LoopSpecs, SpecError, ThreadedLoop};
use pl_runtime::ThreadPool;
use pl_tensor::{BlockedMatrix, Element, InnerLayout};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc, BrgemmI8, BrgemmI8Desc};
use std::sync::Arc;

pub use pl_tensor::blocked::InnerLayout as BInner;

/// Tuning knobs of the GEMM kernel: everything the auto-tuner may vary
/// (paper §II-D, decisions i-iv) with zero changes to the kernel code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmTuning {
    /// The `loop_spec_string`.
    pub spec: String,
    /// K-blocks reduced per BRGEMM invocation (loop `a` base step).
    pub k_step: usize,
    /// Blocking steps (in block units) for the K loop `a`.
    pub a_blocks: Vec<usize>,
    /// Blocking steps for the M loop `b`.
    pub b_blocks: Vec<usize>,
    /// Blocking steps for the N loop `c`.
    pub c_blocks: Vec<usize>,
}

impl GemmTuning {
    /// Plain spec with no extra blocking.
    pub fn simple(spec: &str) -> Self {
        GemmTuning {
            spec: spec.to_string(),
            k_step: 1,
            a_blocks: Vec::new(),
            b_blocks: Vec::new(),
            c_blocks: Vec::new(),
        }
    }

    /// The paper's default parallel instantiation: distribute the (M, N)
    /// block space, K innermost and fully folded into one BRGEMM call.
    pub fn default_parallel(kb: usize) -> Self {
        GemmTuning {
            spec: "BCa".to_string(),
            k_step: kb.max(1),
            a_blocks: Vec::new(),
            b_blocks: Vec::new(),
            c_blocks: Vec::new(),
        }
    }
}

/// Problem geometry: logical sizes and block sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Rows of `C` / `A`.
    pub m: usize,
    /// Columns of `C` / `B`.
    pub n: usize,
    /// Inner-product dimension.
    pub k: usize,
    /// M blocking.
    pub bm: usize,
    /// N blocking.
    pub bn: usize,
    /// K blocking.
    pub bk: usize,
}

impl GemmShape {
    /// Shape with square-ish default blocks of 32 (clamped to the dims).
    pub fn with_default_blocks(m: usize, n: usize, k: usize) -> Self {
        GemmShape {
            m,
            n,
            k,
            bm: Self::default_block(m),
            bn: Self::default_block(n),
            bk: Self::default_block(k),
        }
    }

    /// The block extent [`Self::with_default_blocks`] picks for one
    /// dimension: the largest of 64/48/32/16/8/4/2/1 dividing `d`. Public
    /// so pack-once planners can block a weight's M/K dims independently
    /// of the batch-dependent N dim and still land on the exact blocking
    /// the per-call bridge would have used.
    pub fn default_block(d: usize) -> usize {
        for cand in [64, 48, 32, 16, 8, 4, 2, 1] {
            if d.is_multiple_of(cand) {
                return cand;
            }
        }
        1
    }

    /// Number of M blocks.
    pub fn mb(&self) -> usize {
        self.m / self.bm
    }

    /// Number of N blocks.
    pub fn nb(&self) -> usize {
        self.n / self.bn
    }

    /// Number of K blocks.
    pub fn kb(&self) -> usize {
        self.k / self.bk
    }

    /// Floating-point operations of one GEMM.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// The GEMM kernel handle (Listing 1 realized).
pub struct Gemm<TA: Element, TB: Element, TC: Element> {
    shape: GemmShape,
    tuning: GemmTuning,
    tl: ThreadedLoop,
    brgemm: Arc<Brgemm<TA, TB, TC>>,
    b_vnni: Option<usize>,
}

impl<TA: Element, TB: Element, TC: Element> Gemm<TA, TB, TC> {
    /// Builds the kernel for a flat (column-major-blocked) `B` operand.
    pub fn new(shape: GemmShape, tuning: GemmTuning) -> Result<Self, KernelError> {
        Self::build(shape, tuning, None)
    }

    /// Builds the kernel for a VNNI-packed `B` operand (low precision).
    pub fn new_vnni(shape: GemmShape, tuning: GemmTuning, v: usize) -> Result<Self, KernelError> {
        Self::build(shape, tuning, Some(v))
    }

    fn build(
        shape: GemmShape,
        tuning: GemmTuning,
        b_vnni: Option<usize>,
    ) -> Result<Self, KernelError> {
        for (dim, block, name) in
            [(shape.m, shape.bm, "M"), (shape.n, shape.bn, "N"), (shape.k, shape.bk, "K")]
        {
            if block == 0 || dim % block != 0 {
                return Err(KernelError::BadShape(format!(
                    "{name}={dim} not divisible by block {block}"
                )));
            }
        }
        let specs = vec![
            LoopSpecs::blocked(0, shape.kb(), tuning.k_step, tuning.a_blocks.clone()),
            LoopSpecs::blocked(0, shape.mb(), 1, tuning.b_blocks.clone()),
            LoopSpecs::blocked(0, shape.nb(), 1, tuning.c_blocks.clone()),
        ];
        let tl = ThreadedLoop::new(&specs, &tuning.spec).map_err(KernelError::Spec)?;
        let desc = match b_vnni {
            None => BrgemmDesc::blocked(shape.bm, shape.bn, shape.bk),
            Some(v) => BrgemmDesc::blocked_vnni(shape.bm, shape.bn, shape.bk, v),
        };
        let brgemm = Brgemm::new(desc);
        Ok(Gemm { shape, tuning, tl, brgemm, b_vnni })
    }

    /// Problem geometry.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }

    /// Active tuning.
    pub fn tuning(&self) -> &GemmTuning {
        &self.tuning
    }

    /// The underlying loop nest (e.g. for schedule simulation).
    pub fn threaded_loop(&self) -> &ThreadedLoop {
        &self.tl
    }

    /// `C = A x B` on the given pool.
    pub fn execute(
        &self,
        a: &BlockedMatrix<TA>,
        b: &BlockedMatrix<TB>,
        c: &mut BlockedMatrix<TC>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        self.check_operands(a, b, c)?;
        let sh = self.shape;
        let (bm, bn, bk) = (sh.bm, sh.bn, sh.bk);
        let (mb, kb) = (sh.mb(), sh.kb());
        let k_step = self.tuning.k_step;
        let stride_a = bm * bk;
        let stride_b = bn * bk;
        let block_c = bm * bn;
        let c_shared = SharedSlice::new(c.data_mut());
        let a_data = a.data();
        let b_data = b.data();
        let brgemm = &self.brgemm;

        self.tl
            .try_run_on(pool, |ind| {
                let (ik, im, i_n) = (ind[0], ind[1], ind[2]);
                let brcount = k_step.min(kb - ik);
                // C[Nb][Mb] grid: block (im, in) at (in*Mb + im).
                let c_off = (i_n * mb + im) * block_c;
                // SAFETY: for any legal spec (paper contract) concurrent
                // iterations differ in (im, in), hence write disjoint C
                // blocks; the sequential K loop serializes accumulation.
                let c_block = unsafe { c_shared.slice_mut(c_off, block_c) };
                if ik == 0 {
                    pl_tpp::unary::zero(bm, bn, c_block, bm);
                }
                // A[Mb][Kb] grid: block (im, ik) at (im*Kb + ik).
                let a_off = (im * kb + ik) * bm * bk;
                // B[Nb][Kb] grid: block (ik, in) at (in*Kb + ik).
                let b_off = (i_n * kb + ik) * bk * bn;
                brgemm.execute_stride(
                    &a_data[a_off..],
                    stride_a,
                    &b_data[b_off..],
                    stride_b,
                    c_block,
                    brcount,
                );
            })
            .map_err(KernelError::Spec)
    }

    fn check_operands(
        &self,
        a: &BlockedMatrix<TA>,
        b: &BlockedMatrix<TB>,
        c: &BlockedMatrix<TC>,
    ) -> Result<(), KernelError> {
        let sh = &self.shape;
        let ok = a.rows() == sh.m
            && a.cols() == sh.k
            && a.br() == sh.bm
            && a.bc() == sh.bk
            && b.rows() == sh.k
            && b.cols() == sh.n
            && b.br() == sh.bk
            && b.bc() == sh.bn
            && c.rows() == sh.m
            && c.cols() == sh.n
            && c.br() == sh.bm
            && c.bc() == sh.bn;
        if !ok {
            return Err(KernelError::BadShape("operand layout mismatch".into()));
        }
        let want = match self.b_vnni {
            None => InnerLayout::ColMajor,
            Some(v) => InnerLayout::Vnni(v),
        };
        if b.inner() != want {
            return Err(KernelError::BadShape(format!(
                "B inner layout {:?} does not match kernel {:?}",
                b.inner(),
                want
            )));
        }
        Ok(())
    }
}

/// The quantized GEMM kernel: same PARLOOPER loop nest as [`Gemm`], but the
/// body invokes the `i8 x i8 -> i32` BRGEMM with dequantize-on-store.
///
/// `A` is the pack-once quantized weight in the VNNI-cols layout
/// ([`BlockedMatrix::a_layout_vnni`]) with one scale per logical row
/// (output channel); `B` is the per-step quantized activation in the plain
/// blocked `B` layout with one scale per logical column (token). `C` stays
/// f32, so downstream consumers (bias, activation, attention) are untouched.
///
/// The K loop always folds the whole reduction into one BRGEMM call: the
/// i32 inner product is exact and is dequantized once per output element.
/// A tuning's K blocking (`k_step`, `a_blocks`) is therefore normalized to
/// the full K at build, while its M/N order, blocking and parallelization
/// still apply. This fixes the reduction order per weight, not per spec or
/// activation width, so output column `j` depends only on input column `j`
/// — the column invariance batched decode relies on.
pub struct GemmInt8 {
    shape: GemmShape,
    tuning: GemmTuning,
    tl: ThreadedLoop,
    brgemm: Arc<BrgemmI8>,
    a_vnni: usize,
}

impl GemmInt8 {
    /// Builds the kernel; `v` is the VNNI factor of the `A` columns
    /// (`bk % v == 0`).
    pub fn new(shape: GemmShape, tuning: GemmTuning, v: usize) -> Result<Self, KernelError> {
        for (dim, block, name) in
            [(shape.m, shape.bm, "M"), (shape.n, shape.bn, "N"), (shape.k, shape.bk, "K")]
        {
            if block == 0 || dim % block != 0 {
                return Err(KernelError::BadShape(format!(
                    "{name}={dim} not divisible by block {block}"
                )));
            }
        }
        if v == 0 || !shape.bk.is_multiple_of(v) {
            return Err(KernelError::BadShape(format!(
                "bk={} not divisible by vnni factor {v}",
                shape.bk
            )));
        }
        let kb = shape.kb();
        let tuning = GemmTuning { k_step: kb, a_blocks: vec![kb; tuning.a_blocks.len()], ..tuning };
        let specs = vec![
            LoopSpecs::blocked(0, kb, kb, tuning.a_blocks.clone()),
            LoopSpecs::blocked(0, shape.mb(), 1, tuning.b_blocks.clone()),
            LoopSpecs::blocked(0, shape.nb(), 1, tuning.c_blocks.clone()),
        ];
        let tl = ThreadedLoop::new(&specs, &tuning.spec).map_err(KernelError::Spec)?;
        let brgemm = BrgemmI8::new(BrgemmI8Desc::blocked(shape.bm, shape.bn, shape.bk, v));
        Ok(GemmInt8 { shape, tuning, tl, brgemm, a_vnni: v })
    }

    /// Problem geometry.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }

    /// Active tuning, with its K blocking normalized to the full K.
    pub fn tuning(&self) -> &GemmTuning {
        &self.tuning
    }

    /// `C = dequant(qA x qB)` on the given pool. `row_scales` has one entry
    /// per logical `A` row, `col_scales` one per logical `B` column.
    pub fn execute(
        &self,
        a: &BlockedMatrix<i8>,
        row_scales: &[f32],
        b: &BlockedMatrix<i8>,
        col_scales: &[f32],
        c: &mut BlockedMatrix<f32>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        self.check_operands(a, b, c)?;
        if row_scales.len() != self.shape.m || col_scales.len() != self.shape.n {
            return Err(KernelError::BadShape("scale length mismatch".into()));
        }
        let sh = self.shape;
        let (bm, bn, bk) = (sh.bm, sh.bn, sh.bk);
        let (mb, kb) = (sh.mb(), sh.kb());
        let k_step = self.tuning.k_step;
        let stride_a = bm * bk;
        let stride_b = bn * bk;
        let block_c = bm * bn;
        let c_shared = SharedSlice::new(c.data_mut());
        let a_data = a.data();
        let b_data = b.data();
        let brgemm = &self.brgemm;

        self.tl
            .try_run_on(pool, |ind| {
                let (ik, im, i_n) = (ind[0], ind[1], ind[2]);
                let brcount = k_step.min(kb - ik);
                let c_off = (i_n * mb + im) * block_c;
                // SAFETY: same disjointness argument as [`Gemm::execute`]:
                // concurrent iterations differ in (im, in) for any legal
                // spec, the sequential K loop serializes accumulation.
                let c_block = unsafe { c_shared.slice_mut(c_off, block_c) };
                if ik == 0 {
                    pl_tpp::unary::zero(bm, bn, c_block, bm);
                }
                let a_off = (im * kb + ik) * bm * bk;
                let b_off = (i_n * kb + ik) * bk * bn;
                brgemm.execute_stride(
                    &a_data[a_off..],
                    stride_a,
                    &b_data[b_off..],
                    stride_b,
                    c_block,
                    brcount,
                    &row_scales[im * bm..im * bm + bm],
                    &col_scales[i_n * bn..i_n * bn + bn],
                );
            })
            .map_err(KernelError::Spec)
    }

    fn check_operands(
        &self,
        a: &BlockedMatrix<i8>,
        b: &BlockedMatrix<i8>,
        c: &BlockedMatrix<f32>,
    ) -> Result<(), KernelError> {
        let sh = &self.shape;
        let ok = a.rows() == sh.m
            && a.cols() == sh.k
            && a.br() == sh.bm
            && a.bc() == sh.bk
            && b.rows() == sh.k
            && b.cols() == sh.n
            && b.br() == sh.bk
            && b.bc() == sh.bn
            && c.rows() == sh.m
            && c.cols() == sh.n
            && c.br() == sh.bm
            && c.bc() == sh.bn;
        if !ok {
            return Err(KernelError::BadShape("operand layout mismatch".into()));
        }
        if a.inner() != InnerLayout::VnniCols(self.a_vnni) {
            return Err(KernelError::BadShape(format!(
                "A inner layout {:?} does not match kernel VnniCols({})",
                a.inner(),
                self.a_vnni
            )));
        }
        if b.inner() != InnerLayout::ColMajor {
            return Err(KernelError::BadShape(format!(
                "B inner layout {:?} must be ColMajor for the int8 kernel",
                b.inner()
            )));
        }
        Ok(())
    }
}

/// Scalar reference GEMM on flat column-major data (f64 accumulate).
pub fn reference_gemm(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for j in 0..n {
        for p in 0..k {
            let bv = b[j * k + p] as f64;
            if bv == 0.0 {
                continue;
            }
            for i in 0..m {
                c[j * m + i] = (c[j * m + i] as f64 + a[p * m + i] as f64 * bv) as f32;
            }
        }
    }
    c
}

/// Convenience error alias used by higher layers.
pub type GemmResult = Result<(), SpecError>;

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::{fill_uniform, Bf16, Xorshift};

    fn random_problem(
        sh: GemmShape,
        seed: u64,
    ) -> (BlockedMatrix<f32>, BlockedMatrix<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let mut a_cm = vec![0.0f32; sh.m * sh.k];
        let mut b_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        b.pack_from_colmajor(&b_cm);
        (a, b, a_cm, b_cm)
    }

    #[test]
    fn matches_reference_for_many_specs() {
        // A spec without parallel letters replicates the nest on every team
        // thread (OpenMP semantics of code outside a worksharing
        // construct), so sequential specs run on a single-thread pool and
        // parallel specs on a 4-thread pool — the paper's legality contract.
        let pool1 = ThreadPool::new(1);
        let pool4 = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let (a, b, a_cm, b_cm) = random_problem(sh, 42);
        let c_ref = reference_gemm(&a_cm, &b_cm, sh.m, sh.n, sh.k);

        let mut cases: Vec<(GemmTuning, &ThreadPool)> = vec![
            (GemmTuning::simple("abc"), &pool1),
            (GemmTuning::simple("bca"), &pool1),
            (GemmTuning::simple("cab"), &pool1),
            (GemmTuning::simple("aBC"), &pool4),
            (GemmTuning::simple("BCa"), &pool4),
            (GemmTuning::default_parallel(sh.kb()), &pool4),
        ];
        cases.push((
            GemmTuning {
                spec: "bcaBCb".into(),
                k_step: 2,
                a_blocks: vec![],
                b_blocks: vec![4, 2],
                c_blocks: vec![2],
            },
            &pool4,
        ));
        cases.push((
            GemmTuning {
                spec: "caB @ schedule(dynamic,1)".into(),
                k_step: 3,
                a_blocks: vec![],
                b_blocks: vec![],
                c_blocks: vec![],
            },
            &pool4,
        ));

        for (t, pool) in cases {
            let spec_str = t.spec.clone();
            let gemm = Gemm::<f32, f32, f32>::new(sh, t).unwrap();
            let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&a, &b, &mut c, pool).unwrap();
            let got = c.unpack_to_colmajor();
            for i in 0..got.len() {
                assert!(
                    (got[i] - c_ref[i]).abs() < 1e-3,
                    "spec {spec_str}: idx {i}: {} vs {}",
                    got[i],
                    c_ref[i]
                );
            }
        }
    }

    #[test]
    fn grid_mode_matches_reference() {
        let pool = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 32, k: 16, bm: 8, bn: 8, bk: 8 };
        let (a, b, a_cm, b_cm) = random_problem(sh, 7);
        let c_ref = reference_gemm(&a_cm, &b_cm, sh.m, sh.n, sh.k);
        let t = GemmTuning {
            spec: "B{R:2}C{C:2}a".into(),
            k_step: 1,
            a_blocks: vec![],
            b_blocks: vec![],
            c_blocks: vec![],
        };
        let gemm = Gemm::<f32, f32, f32>::new(sh, t).unwrap();
        let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - c_ref[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn bf16_gemm_with_vnni_b() {
        let pool = ThreadPool::new(2);
        let sh = GemmShape { m: 16, n: 16, k: 32, bm: 8, bn: 8, bk: 8 };
        let mut rng = Xorshift::new(3);
        let mut a_cm = vec![0.0f32; sh.m * sh.k];
        let mut b_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::<Bf16>::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::<Bf16>::b_layout_vnni(sh.k, sh.n, sh.bk, sh.bn, 2).unwrap();
        b.pack_from_colmajor(&b_cm);

        // Reference over quantized values.
        let aq = a.unpack_to_colmajor();
        let bq = b.unpack_to_colmajor();
        let c_ref = reference_gemm(&aq, &bq, sh.m, sh.n, sh.k);

        let gemm = Gemm::<Bf16, Bf16, f32>::new_vnni(sh, GemmTuning::default_parallel(sh.kb()), 2)
            .unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - c_ref[i]).abs() < 1e-3, "{} vs {}", got[i], c_ref[i]);
        }
    }

    /// Exact integer reference for the quantized kernel: i64 inner product
    /// over the quantized operands, one f32 dequant multiply per element.
    fn reference_int8(
        qa: &BlockedMatrix<i8>,
        rs: &[f32],
        qb: &BlockedMatrix<i8>,
        cs: &[f32],
    ) -> Vec<f32> {
        let (m, n, k) = (qa.rows(), qb.cols(), qa.cols());
        let mut c = vec![0.0f32; m * n];
        for j in 0..n {
            for i in 0..m {
                let mut acc: i64 = 0;
                for p in 0..k {
                    acc += qa.get(i, p) as i64 * qb.get(p, j) as i64;
                }
                c[j * m + i] = rs[i] * cs[j] * acc as f32;
            }
        }
        c
    }

    fn int8_problem(
        sh: GemmShape,
        v: usize,
        seed: u64,
    ) -> (BlockedMatrix<i8>, Vec<f32>, BlockedMatrix<i8>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let mut w_cm = vec![0.0f32; sh.m * sh.k];
        let mut act_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut w_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut act_cm, &mut rng, -2.0, 2.0);
        let (qa, rs) =
            pl_tensor::quantize_weight_a_vnni(&w_cm, sh.m, sh.k, sh.bm, sh.bk, v).unwrap();
        let mut act = BlockedMatrix::<f32>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        act.pack_from_colmajor(&act_cm);
        let mut qb = BlockedMatrix::<i8>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        let mut cs = vec![0.0f32; sh.n];
        pl_tensor::quantize_cols_blocked(&act, &mut qb, &mut cs);
        (qa, rs, qb, cs)
    }

    #[test]
    fn int8_single_call_matches_integer_reference_exactly() {
        // k_step = kb folds the whole reduction into one BRGEMM call, so
        // the kernel performs the same exact i32 sum as the reference.
        let pool = ThreadPool::new(2);
        let sh = GemmShape { m: 32, n: 8, k: 64, bm: 8, bn: 4, bk: 16 };
        let (qa, rs, qb, cs) = int8_problem(sh, 4, 5);
        let c_ref = reference_int8(&qa, &rs, &qb, &cs);
        let gemm = GemmInt8::new(sh, GemmTuning::default_parallel(sh.kb()), 4).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&qa, &rs, &qb, &cs, &mut c, &pool).unwrap();
        assert_eq!(c.unpack_to_colmajor(), c_ref);
    }

    #[test]
    fn int8_matches_reference_for_many_specs() {
        let pool1 = ThreadPool::new(1);
        let pool4 = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let (qa, rs, qb, cs) = int8_problem(sh, 2, 43);
        let c_ref = reference_int8(&qa, &rs, &qb, &cs);
        let cases: Vec<(GemmTuning, &ThreadPool)> = vec![
            (GemmTuning::simple("abc"), &pool1),
            (GemmTuning::simple("BCa"), &pool4),
            (GemmTuning::default_parallel(sh.kb()), &pool4),
            (
                GemmTuning {
                    spec: "bcaBCb".into(),
                    k_step: 2,
                    a_blocks: vec![],
                    b_blocks: vec![4, 2],
                    c_blocks: vec![2],
                },
                &pool4,
            ),
        ];
        for (t, pool) in cases {
            let spec_str = t.spec.clone();
            let gemm = GemmInt8::new(sh, t, 2).unwrap();
            assert_eq!(gemm.tuning().k_step, sh.kb(), "spec {spec_str}: K folds into one call");
            let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&qa, &rs, &qb, &cs, &mut c, pool).unwrap();
            // Every spec reduces the full K in i32 and dequantizes once:
            // the same arithmetic as the reference, bit for bit.
            assert_eq!(c.unpack_to_colmajor(), c_ref, "spec {spec_str}");
        }
    }

    #[test]
    fn int8_rejects_wrong_inner_layouts() {
        let sh = GemmShape { m: 16, n: 8, k: 16, bm: 8, bn: 4, bk: 8 };
        let gemm = GemmInt8::new(sh, GemmTuning::simple("abc"), 4).unwrap();
        // Plain (non-VNNI) A must be rejected.
        let a = BlockedMatrix::<i8>::a_layout(16, 16, 8, 8).unwrap();
        let b = BlockedMatrix::<i8>::b_layout(16, 8, 8, 4).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(16, 8, 8, 4).unwrap();
        let pool = ThreadPool::new(1);
        let rs = vec![1.0f32; 16];
        let cs = vec![1.0f32; 8];
        assert!(matches!(
            gemm.execute(&a, &rs, &b, &cs, &mut c, &pool),
            Err(KernelError::BadShape(_))
        ));
        // Unaligned vnni factor at build time.
        assert!(matches!(
            GemmInt8::new(sh, GemmTuning::simple("abc"), 3),
            Err(KernelError::BadShape(_))
        ));
    }

    #[test]
    fn layout_mismatch_is_reported() {
        let sh = GemmShape { m: 16, n: 16, k: 16, bm: 8, bn: 8, bk: 8 };
        let gemm = Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple("abc")).unwrap();
        let a = BlockedMatrix::<f32>::a_layout(16, 16, 8, 8).unwrap();
        let b = BlockedMatrix::<f32>::b_layout(16, 16, 8, 8).unwrap();
        // Wrong block size for C.
        let mut c = BlockedMatrix::<f32>::c_layout(16, 16, 4, 4).unwrap();
        let pool = ThreadPool::new(1);
        assert!(matches!(gemm.execute(&a, &b, &mut c, &pool), Err(KernelError::BadShape(_))));
    }

    #[test]
    fn bad_blocking_is_reported() {
        let sh = GemmShape { m: 10, n: 16, k: 16, bm: 8, bn: 8, bk: 8 };
        assert!(matches!(
            Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple("abc")),
            Err(KernelError::BadShape(_))
        ));
    }

    #[test]
    fn default_blocks_divide() {
        for (m, n, k) in [(512, 512, 512), (768, 256, 3072), (100, 60, 36)] {
            let sh = GemmShape::with_default_blocks(m, n, k);
            assert_eq!(sh.m % sh.bm, 0);
            assert_eq!(sh.n % sh.bn, 0);
            assert_eq!(sh.k % sh.bk, 0);
        }
    }
}
