//! Command line of the serving benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! perfbench --probe [--probe-mib <n>]       host roofline probe only
//! perfbench --setup <name> [--tiny]         time one set-up only
//! perfbench --capacity <name> [--clients <n>] [--seconds <s>]
//! ```
//!
//! `--tiny` runs the self-test size of a workload.
//!
//! A run prints a human-readable report, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits
//! non-zero if an output differs from its single-session replay.

use perfbench::{probe, spec, Options};
use std::io::Write;
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<_> = spec::workloads().iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| {
        args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    if args.iter().any(|a| a == "--probe") {
        let mib = value("--probe-mib").and_then(|v| v.parse().ok()).unwrap_or(spec::PROBE_MIB);
        println!("{}", probe::render(&probe::measure(mib)));
        return ExitCode::SUCCESS;
    }
    let tiny = args.iter().any(|a| a == "--tiny");
    if let Some(name) = value("--setup") {
        let Some(w) = spec::workload(name) else { return usage("unknown workload") };
        let (_model, _target, secs) = perfbench::setup(&if tiny { w.tiny() } else { w });
        println!("setup_s {secs}");
        // As below: exit without waiting on the serving stack's teardown.
        let flushed = std::io::stdout().flush();
        std::process::exit(if flushed.is_ok() { 0 } else { 1 });
    }
    if let Some(name) = value("--capacity") {
        let Some(w) = spec::workload(name) else { return usage("unknown workload") };
        let clients = value("--clients").and_then(|v| v.parse().ok()).unwrap_or(4);
        let seconds = value("--seconds").and_then(|v| v.parse().ok()).unwrap_or(20.0);
        let (cap, errors) = perfbench::capacity(&w, clients, seconds);
        println!("{name}: {cap:.3} requests/s closed-loop with {clients} clients");
        for (why, n) in errors {
            println!("failure x{n}: {why}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = value("--workload") else { return usage("--workload is required") };
    let Some(w) = spec::workload(name) else { return usage("unknown workload") };
    let Some(seed) = value("--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    let Some(seconds) = value("--seconds").and_then(|v| v.parse::<f64>().ok()).filter(|s| *s > 0.0)
    else {
        return usage("--seconds must be a positive number");
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let opt = Options {
        seed,
        seconds,
        trace,
        tiny,
        exe: match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => return usage(&format!("cannot locate the benchmark executable: {e}")),
        },
        spans_dir: Some(perfbench::out_dir()),
    };
    match perfbench::run(&w, &opt) {
        Ok(out) => {
            print!("{}", out.report);
            println!(
                "{}",
                perfbench::report::json(out.correct, out.attempted, out.failed, &out.metrics)
            );
            // Exit without unwinding the serving stack: a wedged request
            // may hold a session that a graceful shutdown would wait on.
            let flushed = std::io::stdout().flush();
            std::process::exit(if out.correct && flushed.is_ok() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
