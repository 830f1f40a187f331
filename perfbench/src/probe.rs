//! The host roofline probe: peak FMA throughput on one and two threads
//! (an AVX2/FMA loop selected at run time) and STREAM-triad bandwidth
//! over arrays far larger than the last-level cache. It runs in its own
//! process (`perfbench --probe`), so its arrays never count in the
//! workload process's peak RSS.

use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The host's measured roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Peak single-thread f32 FMA throughput (GFLOPS).
    pub fma_1t: f64,
    /// Peak two-thread f32 FMA throughput (GFLOPS).
    pub fma_2t: f64,
    /// Triad bandwidth (GB/s, 3 arrays counted per element).
    pub stream_gbs: f64,
}

impl Host {
    /// Peak FMA throughput for a team of `threads`.
    pub fn fma(&self, threads: usize) -> f64 {
        if threads >= 2 {
            self.fma_2t
        } else {
            self.fma_1t
        }
    }

    /// The roofline bound (GFLOPS) for work of arithmetic intensity
    /// `flops_per_byte` on `threads` threads: the lower of peak compute and
    /// memory bandwidth times intensity.
    pub fn roof(&self, threads: usize, flops_per_byte: f64) -> f64 {
        self.fma(threads).min(self.stream_gbs * flops_per_byte)
    }
}

/// Independent accumulator chains in the FMA loop (enough to cover the
/// FMA latency on two ports).
const CHAINS: usize = 12;
/// Inner iterations per timed call.
const FMA_ITERS: u64 = 4_000_000;
/// Timed repetitions (the median is reported).
const REPS: usize = 5;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
/// # Safety
/// The CPU must support AVX2 and FMA.
unsafe fn fma_loop_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    // Twelve named accumulators keep every chain in a register.
    let [mut r0, mut r1, mut r2, mut r3, mut r4, mut r5] = [_mm256_set1_ps(1.0); 6];
    let [mut r6, mut r7, mut r8, mut r9, mut r10, mut r11] = [_mm256_set1_ps(1.0); 6];
    for _ in 0..iters {
        r0 = _mm256_fmadd_ps(r0, a, b);
        r1 = _mm256_fmadd_ps(r1, a, b);
        r2 = _mm256_fmadd_ps(r2, a, b);
        r3 = _mm256_fmadd_ps(r3, a, b);
        r4 = _mm256_fmadd_ps(r4, a, b);
        r5 = _mm256_fmadd_ps(r5, a, b);
        r6 = _mm256_fmadd_ps(r6, a, b);
        r7 = _mm256_fmadd_ps(r7, a, b);
        r8 = _mm256_fmadd_ps(r8, a, b);
        r9 = _mm256_fmadd_ps(r9, a, b);
        r10 = _mm256_fmadd_ps(r10, a, b);
        r11 = _mm256_fmadd_ps(r11, a, b);
    }
    let mut sum = _mm256_setzero_ps();
    for r in [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11] {
        sum = _mm256_add_ps(sum, r);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds exactly 8 f32, the width of one __m256.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

fn fma_loop_scalar(iters: u64) -> f32 {
    let mut acc = [1.0f32; CHAINS * 8];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = r.mul_add(0.999_999, 1e-7);
        }
    }
    acc.iter().sum()
}

/// Whether the runtime-selected FMA loop uses AVX2/FMA.
pub fn has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs the FMA loop once; returns flops performed.
fn fma_once(iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: AVX2 and FMA support was detected at run time just above.
        black_box(unsafe { fma_loop_avx2(black_box(iters)) });
        return (iters * (CHAINS as u64) * 8 * 2) as f64;
    }
    black_box(fma_loop_scalar(black_box(iters)));
    (iters * (CHAINS as u64) * 8 * 2) as f64
}

fn fma_gflops(threads: usize) -> f64 {
    let iters = if has_avx2_fma() { FMA_ITERS } else { FMA_ITERS / 64 };
    fma_once(iters / 8); // warm the core up
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let flops: f64 = std::thread::scope(|s| {
                let team: Vec<_> = (0..threads).map(|_| s.spawn(|| fma_once(iters))).collect();
                team.into_iter().map(|t| t.join().expect("fma probe thread panicked")).sum()
            });
            flops / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

fn triad_gbs(mib: usize, threads: usize) -> f64 {
    let n = mib * (1 << 20) / std::mem::size_of::<f64>();
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    // First touch from the threads that stream the chunk later.
    std::thread::scope(|s| {
        for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).zip(c.chunks_mut(chunk)) {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let scalar = black_box(3.0f64);
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                    s.spawn(move || {
                        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                            *x = y + scalar * z;
                        }
                    });
                }
            });
            let secs = start.elapsed().as_secs_f64();
            black_box(&a);
            (3 * n * std::mem::size_of::<f64>()) as f64 / secs / 1e9
        })
        .collect();
    median(&rates)
}

/// Measures the host in this process (the `--probe` subcommand).
pub fn measure(mib: usize) -> Host {
    Host { fma_1t: fma_gflops(1), fma_2t: fma_gflops(2), stream_gbs: triad_gbs(mib, 2) }
}

/// The probe's one-line report.
pub fn render(h: &Host) -> String {
    format!("host fma_1t={} fma_2t={} stream_gbs={}", h.fma_1t, h.fma_2t, h.stream_gbs)
}

/// Parses [`render`]'s line out of the probe's output.
pub fn parse(out: &str) -> Option<Host> {
    let line = out.lines().find(|l| l.starts_with("host "))?;
    let field = |key: &str| -> Option<f64> {
        line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    Some(Host {
        fma_1t: field("fma_1t")?,
        fma_2t: field("fma_2t")?,
        stream_gbs: field("stream_gbs")?,
    })
}

/// Runs the probe as a child process of `exe` and waits for it.
pub fn run_child(exe: &Path, mib: usize) -> Result<Host, String> {
    let out = Command::new(exe)
        .args(["--probe", "--probe-mib", &mib.to_string()])
        .output()
        .map_err(|e| format!("starting the host probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("host probe exited with {}", out.status));
    }
    parse(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| "host probe printed no result".into())
}

/// The CPU's brand string (CPUID leaves 0x8000_0002..=0x8000_0004).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf, so the brand
        // leaves are only read where they exist.
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".into()
}

/// What the numbers depend on: CPU model, ISA flags, the features the
/// benchmark was compiled with, and the parallelism available.
pub fn fingerprint() -> String {
    let cpu = cpu_model();
    let mut isa = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse4.2", is_x86_feature_detected!("sse4.2")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
            ("avx512bw", is_x86_feature_detected!("avx512bw")),
            ("avx512vnni", is_x86_feature_detected!("avx512vnni")),
            ("avx512bf16", is_x86_feature_detected!("avx512bf16")),
        ] {
            if on {
                isa.push(name);
            }
        }
    }
    let mut built = Vec::new();
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        if on {
            built.push(name);
        }
    }
    let par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "cpu=\"{cpu}\" arch={} isa={} build_target_features={} available_parallelism={par}",
        std::env::consts::ARCH,
        if isa.is_empty() { "-".into() } else { isa.join(",") },
        if built.is_empty() { "-".into() } else { built.join(",") },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_roof() {
        let h = Host { fma_1t: 60.5, fma_2t: 120.25, stream_gbs: 10.0 };
        assert_eq!(parse(&format!("noise\n{}\n", render(&h))), Some(h));
        assert_eq!(parse("nothing"), None);
        assert_eq!(h.roof(1, 0.5), 5.0);
        assert_eq!(h.roof(2, 100.0), 120.25);
    }
}
