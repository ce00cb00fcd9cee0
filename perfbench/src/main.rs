//! `perfbench` — end-to-end and per-layer benchmark of the batch study
//! and the `landscaped` daemon, driven in-process through the library
//! crates' public API.
//!
//! ```text
//! perfbench --workload <study-half|daemon-read|daemon-epochs>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics.
//! A traced run also writes its spans as Chrome `trace_event` JSON to
//! `perfbench/out/<workload>-seed<N>.trace.json` and prints each
//! layer's self time to standard error.

mod checks;
mod client;
mod layers;
mod procstat;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use hs_landscape::obs;

use trace::Tracer;

/// One reported figure: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The default seed; `20130204` is held out for confirming claims.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_owned())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_owned())?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "study-half" => workloads::study(args.seed, args.seconds, &tracer),
        "daemon-read" => workloads::daemon_read(args.seed, args.seconds, &tracer),
        "daemon-epochs" => workloads::daemon_epochs(args.seed, args.seconds, &tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let peak = out
        .peak_rss_mib
        .or_else(procstat::peak_rss_mib)
        .unwrap_or(f64::NAN);
    eprintln!(
        "perfbench: {} done in {:.1} s",
        args.workload,
        started.elapsed().as_secs_f64()
    );

    let metrics = if args.trace {
        out.layers.push((
            "proc.cpu_s".to_owned(),
            procstat::cpu_seconds().unwrap_or(f64::NAN),
            "s",
        ));
        if let Err(e) = write_trace(&tracer, &args) {
            out.checks.expect(false, || e);
        }
        print_self_profile(&tracer);
        out.layers
    } else {
        out.e2e.push(("peak_rss_mib".to_owned(), peak, "MiB"));
        out.e2e
    };
    for (name, value, _) in &metrics {
        out.checks.expect(value.is_finite(), || {
            format!("metric {name} was not measured")
        });
    }
    // A metric that could not be measured has already failed a check;
    // it prints as 0 so the line stays valid JSON.
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.passed(),
        out.ops.attempted.max(1),
        out.ops.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the traced run's spans as a Chrome trace after checking the
/// JSON with `obs::validate_json`.
fn write_trace(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let json = tracer.to_chrome_json();
    obs::validate_json(&json).map_err(|e| format!("trace JSON invalid: {e}"))?;
    let path = format!(
        "perfbench/out/{}-seed{}.trace.json",
        args.workload, args.seed
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("perfbench: {} spans written to {path}", tracer.len());
    Ok(())
}

fn print_self_profile(tracer: &Tracer) {
    eprintln!("self time by span (count, total, median):");
    for (name, (count, total_us, median_us)) in tracer.self_profile() {
        eprintln!(
            "  {name:<34} {count:>7} {:>12.3} ms {:>12.1} us",
            total_us as f64 / 1e3,
            median_us
        );
    }
}
