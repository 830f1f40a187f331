//! End-to-end metrics and the printed report.

use crate::gen::{Kind, Log};
use crate::ledger::Metric;
use crate::spec::Workload;
use crate::stats::{median, percentile, Pct};

/// An end-to-end metric with the sample it was computed from.
#[derive(Debug, Clone)]
pub struct Row {
    /// The metric.
    pub metric: Metric,
    /// Samples behind the value.
    pub n: usize,
    /// For a percentile: samples beyond it.
    pub pct: Option<Pct>,
}

/// Every end-to-end metric name with its unit, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("decode_tok_s", "tok/s"),
    ("itl_p50_us", "us"),
    ("itl_p99_us", "us"),
    ("prefill_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("slo_ok_frac", "ratio"),
    ("success_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

fn row(name: &str, value: f64, n: usize, pct: Option<Pct>) -> Row {
    let unit = END_TO_END.iter().find(|(m, _)| *m == name).expect("a known metric").1;
    Row { metric: Metric { name: name.into(), value, unit }, n, pct }
}

fn pct_row(name: &str, samples: &[f64], q: f64) -> Row {
    let p = percentile(samples, q);
    row(name, p.value, p.n, Some(p))
}

/// Operations attempted and failed over the whole run, plus `mismatched`
/// outputs found by the output check.
pub fn failures(log: &Log, mismatched: usize) -> (usize, usize) {
    let failed = log.ops.iter().filter(|o| !o.ok).count() + mismatched;
    (log.ops.len(), failed)
}

/// The end-to-end metrics of an untraced run. Latencies are raw samples of
/// operations sent inside the measured window; throughput counts work
/// completed inside it.
pub fn end_to_end(
    w: &Workload,
    log: &Log,
    setup_s: &[f64],
    peak_rss_mb: f64,
    mismatched: usize,
) -> Vec<Row> {
    let (start, end) = (log.w_start, log.w_end);
    let secs = (end - start).as_secs_f64();
    let in_window = |t| t >= start && t < end;
    let steps_done =
        log.ops.iter().filter(|o| o.ok && o.kind == Kind::Step && in_window(o.done)).count();
    let itl: Vec<f64> = log
        .ops
        .iter()
        .filter(|o| o.ok && o.kind == Kind::Step && in_window(o.sent))
        .map(|o| (o.done - o.sent).as_secs_f64() * 1e6)
        .collect();
    let prefills: Vec<_> =
        log.ops.iter().filter(|o| o.ok && o.kind == Kind::Prefill && in_window(o.sent)).collect();
    let prefill_tokens: usize = prefills.iter().map(|o| o.tokens).sum();
    let prefill_secs: f64 = prefills.iter().map(|o| (o.done - o.sent).as_secs_f64()).sum();
    let reqs: Vec<_> = log.reqs.iter().filter(|r| in_window(r.due)).collect();
    let ttft: Vec<f64> =
        reqs.iter().filter_map(|r| r.ttft).map(|d| d.as_secs_f64() * 1e3).collect();
    let slo_ok = reqs
        .iter()
        .filter(|r| {
            !r.failed
                && r.ttft.is_some_and(|t| t.as_secs_f64() * 1e3 <= w.slo.ttft_ms)
                && r.max_itl.as_secs_f64() * 1e3 <= w.slo.itl_ms
        })
        .count();
    let (attempted, failed) = failures(log, mismatched);
    let frac = |num: usize, den: usize| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    vec![
        row("decode_tok_s", steps_done as f64 / secs, steps_done, None),
        pct_row("itl_p50_us", &itl, 0.50),
        pct_row("itl_p99_us", &itl, 0.99),
        row("prefill_tok_s", prefill_tokens as f64 / prefill_secs, prefills.len(), None),
        pct_row("ttft_p50_ms", &ttft, 0.50),
        pct_row("ttft_p90_ms", &ttft, 0.90),
        row("slo_ok_frac", frac(slo_ok, reqs.len()), reqs.len(), None),
        row("success_frac", 1.0 - frac(failed, attempted), attempted, None),
        row("setup_s", median(setup_s), setup_s.len(), None),
        row("peak_rss_mb", peak_rss_mb, 1, None),
    ]
}

/// Human-readable table of end-to-end rows.
pub fn table(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        let rule = match r.pct {
            Some(p) if p.reportable() => format!("beyond={}", p.beyond),
            Some(p) => format!("beyond={} UNDER-SAMPLED (fewer than 10 beyond)", p.beyond),
            None => String::new(),
        };
        out.push_str(&format!(
            "{:<16} {:>16.6} {:<6} n={:<7} {rule}\n",
            r.metric.name, r.metric.value, r.metric.unit, r.n
        ));
    }
    out
}

/// JSON number text: the value with all its digits (non-finite values,
/// which JSON cannot carry, read as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final result line.
pub fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The process's high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let m = vec![Metric { name: "a".into(), value: 1.5, unit: "ms" }];
        assert_eq!(
            json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(number(f64::NAN), "0");
    }
}
