//! Self-test of the benchmark at a tiny size: every metric is emitted with
//! its unit and listed in `BENCHMARK.json`, the percentile sample-count
//! rule is applied in the report, and the output check fires on a
//! perturbed reference.

use perfbench::ledger::{self, Grid};
use perfbench::report::END_TO_END;
use perfbench::spec::{self, Workload};
use perfbench::trace::Tracer;
use perfbench::{check, gen, Options};
use pl_runtime::ThreadPool;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tiny_workloads() -> Vec<Workload> {
    spec::workloads().iter().map(Workload::tiny).collect()
}

fn options(trace: bool) -> Options {
    Options {
        seed: 3,
        seconds: 1.0,
        trace,
        tiny: true,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        spans_dir: None,
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit_and_percentiles_follow_the_rule() {
    let grid = options(true).grid();
    for w in &spec::workloads() {
        let out = perfbench::run(w, &options(false)).expect("untraced run");
        assert!(out.correct, "{}: output check failed\n{}", w.name, out.report);
        assert_eq!(out.failed, 0, "{}: failures\n{}", w.name, out.report);
        let got: Vec<(String, &str)> =
            out.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
        let want: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        assert_eq!(got, want, "{}: end-to-end metrics", w.name);
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{:?}",
            out.metrics
        );
        check_percentile_lines(&out.report);

        let out = perfbench::run(w, &options(true)).expect("traced run");
        assert!(out.correct && out.failed == 0, "{}: traced run\n{}", w.name, out.report);
        let got: Vec<(String, &str)> =
            out.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
        assert_eq!(got, ledger::names(&grid), "{}: per-layer metrics", w.name);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{:?}", out.metrics);
    }
}

/// A percentile line carries `n=` and `beyond=`; `beyond` is exactly the
/// count ranked after the nearest-rank percentile, and the line is marked
/// under-sampled exactly when fewer than 10 samples lie beyond it.
fn check_percentile_lines(report: &str) {
    let mut seen = 0;
    for line in report.lines() {
        let Some(q) = ["_p50_", "_p90_", "_p99_"]
            .iter()
            .find(|p| line.contains(*p))
            .map(|p| p[2..4].parse::<f64>().expect("a percentile") / 100.0)
        else {
            continue;
        };
        let field = |key: &str| -> usize {
            line.split_whitespace()
                .find_map(|t| t.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {key} in {line:?}"))
        };
        let (n, beyond) = (field("n="), field("beyond="));
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        assert_eq!(beyond, n.saturating_sub(rank), "{line}");
        assert_eq!(line.contains("UNDER-SAMPLED"), beyond < 10, "{line}");
        seen += 1;
    }
    assert_eq!(seen, 4, "four percentile rows in\n{report}");
}

#[test]
fn output_check_fires_on_a_perturbed_reference() {
    for w in tiny_workloads() {
        let (model, target, _) = perfbench::setup(&w);
        let plan = gen::Plan {
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(500),
            trace_split: false,
        };
        let mut log = gen::run(&w, Arc::new(target), 9, plan, &mut Tracer::new(false));
        assert!(!log.checks.is_empty(), "{}: nothing sampled for the check", w.name);
        let pool = ThreadPool::new(w.threads);
        let clean = check::replay(&w, &model, 9, &log.checks, &pool);
        assert!(clean.outputs > 1 && clean.mismatches == 0, "{}: {clean:?}", w.name);

        // One flipped bit in one reference output must be caught.
        let last = log.checks[0].digests.len() - 1;
        log.checks[0].digests[last] ^= 1;
        let bad = check::replay(&w, &model, 9, &log.checks, &pool);
        assert_eq!(bad.mismatches, 1, "{}: {bad:?}", w.name);
        assert!(bad.first.is_some());
        // Replaying with the wrong inputs (another seed) must be caught too.
        let wrong = check::replay(&w, &model, 10, &log.checks, &pool);
        assert_eq!(wrong.mismatches, wrong.outputs, "{}: {wrong:?}", w.name);
    }
}

#[test]
fn benchmark_json_lists_defined_workloads_and_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text);
    let list = |key: &str| doc.get(key).array().to_vec();
    for w in list("workloads") {
        let name = w.get("name").string();
        assert!(spec::workload(name).is_some(), "{name} is not defined in spec.rs");
    }
    let metrics = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| (m.get("name").string().to_string(), m.get("unit").string().to_string()))
            .collect()
    };
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(metrics("end_to_end"), e2e);
    let per_layer: Vec<(String, String)> = ledger::names(&Grid::of(&spec::workloads()))
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(metrics("per_layer"), per_layer);
}

/// Just enough JSON to read `BENCHMARK.json`.
#[derive(Debug, Clone)]
enum Json {
    Str(String),
    Num,
    Bool,
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = text.trim().as_bytes();
        let v = Json::value(&mut p);
        assert!(p.iter().all(u8::is_ascii_whitespace), "trailing text");
        v
    }

    fn skip(p: &mut &[u8]) {
        while p.first().is_some_and(u8::is_ascii_whitespace) {
            *p = &p[1..];
        }
    }

    fn value(p: &mut &[u8]) -> Json {
        Json::skip(p);
        match p[0] {
            b'{' => {
                *p = &p[1..];
                let mut m = BTreeMap::new();
                loop {
                    Json::skip(p);
                    if p[0] == b'}' {
                        *p = &p[1..];
                        return Json::Obj(m);
                    }
                    let Json::Str(k) = Json::value(p) else { panic!("object key") };
                    Json::skip(p);
                    assert_eq!(p[0], b':');
                    *p = &p[1..];
                    m.insert(k, Json::value(p));
                    Json::skip(p);
                    if p[0] == b',' {
                        *p = &p[1..];
                    }
                }
            }
            b'[' => {
                *p = &p[1..];
                let mut v = Vec::new();
                loop {
                    Json::skip(p);
                    if p[0] == b']' {
                        *p = &p[1..];
                        return Json::Arr(v);
                    }
                    v.push(Json::value(p));
                    Json::skip(p);
                    if p[0] == b',' {
                        *p = &p[1..];
                    }
                }
            }
            b'"' => {
                let end = p[1..].iter().position(|&c| c == b'"').expect("closed string") + 1;
                let s = String::from_utf8(p[1..end].to_vec()).expect("utf-8");
                *p = &p[end + 1..];
                Json::Str(s)
            }
            b't' | b'f' => {
                let len = if p[0] == b't' { 4 } else { 5 };
                *p = &p[len..];
                Json::Bool
            }
            _ => {
                let len = p.iter().position(|c| !b"+-.eE0123456789".contains(c)).unwrap_or(p.len());
                assert!(
                    len > 0,
                    "unexpected JSON at {:?}",
                    String::from_utf8_lossy(&p[..p.len().min(20)])
                );
                *p = &p[len..];
                Json::Num
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }

    fn string(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }
}
