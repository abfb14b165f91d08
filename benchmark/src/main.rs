//! `cbat-benchmark`: one run of one workload per process.
//!
//! ```text
//! cbat-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! cbat-benchmark --manifest                 # prints BENCHMARK.json
//! cbat-benchmark --aa-compare DIR_A DIR_B OUT.json
//! ```
//!
//! A run prints every metric as `name value unit`, then the reconciliation
//! lines, and as its last line the JSON object the driver reads. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones, from a separate
//! pass that also writes `trace-<workload>.json`.

mod aa;
mod alloc;
mod cards;
mod catalog;
mod direct;
mod gen;
mod host;
mod model;
mod pass;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use pass::Pass;
use stats::{percentile_of, Summary};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Spans written to the trace file; a traced run records more than
/// anyone reads, and all of them still feed the self-time table.
const TRACE_FILE_SPANS: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cbat-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       cbat-benchmark --manifest\n       cbat-benchmark --aa-compare DIR_A DIR_B OUT.json",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s| (1..=60).contains(s))?,
            "--trace" => args.trace = matches!(value.as_str(), "1"),
            "--out" => args.out = PathBuf::from(value),
            _ => return None,
        }
    }
    WORKLOADS
        .iter()
        .any(|w| w.name == args.workload)
        .then_some(args)
}

/// Seconds a reference pass is given: two windows or trials of each phase,
/// long enough for the served output check to have its sample.
const REFERENCE_SECONDS: u64 = 6;

fn direct_pass(mix: direct::Mix, seed: u64, seconds: u64, trace: bool) -> Pass {
    direct::run(&direct::Plan::workload(mix, seed, seconds, trace))
}

fn served_pass(mix: serve::ClassMix, paced_rps: u64, seed: u64, seconds: u64, trace: bool) -> Pass {
    served::run(&served::Plan::workload(
        mix, paced_rps, seed, seconds, trace,
    ))
}

/// The workload's own pass. For a traced run the driver wants every
/// per-layer metric from every workload, so the ones this workload has no
/// reading for are borrowed from a reference pass: a short traced pass of
/// the family's full-mix workload (`bat-analytics`, `served-mixed`), same
/// structure, size and seed, run after the workload's own numbers and
/// every process-wide reading are in `pass`.
fn run(args: &Args) -> Pass {
    let Args {
        seed,
        seconds,
        trace,
        ..
    } = *args;
    let shipped_mix = serve::ServeConfig::default().mix;
    let mut pass = match args.workload.as_str() {
        "bat-update" => direct_pass(direct::Mix::UPDATE, seed, seconds, trace),
        "bat-analytics" => direct_pass(direct::Mix::ANALYTICS, seed, seconds, trace),
        "served-point" => served_pass(served::POINT_ONLY, 20_000, seed, seconds, trace),
        _ => served_pass(shipped_mix, 500, seed, seconds, trace),
    };
    pass.layer(
        "failed_share",
        Summary::point(
            pass.failed as f64 / pass.attempted.max(1) as f64,
            pass.attempted,
        ),
    );
    if trace {
        if args.workload != "bat-analytics" {
            pass.fill_missing_layers(direct_pass(
                direct::Mix::ANALYTICS,
                seed,
                REFERENCE_SECONDS,
                true,
            ));
        }
        if args.workload != "served-mixed" {
            pass.fill_missing_layers(served_pass(shipped_mix, 500, seed, REFERENCE_SECONDS, true));
        }
    }
    pass
}

/// Per span name: count, median duration and median self time.
fn self_time_lines(pass: &Pass) -> Vec<String> {
    trace::self_times(&pass.spans)
        .into_iter()
        .map(|(name, (mut dur, mut own))| {
            format!(
                "# trace {name} n={} p50_ns={} self_p50_ns={}",
                dur.len(),
                percentile_of(&mut dur, 0.5),
                percentile_of(&mut own, 0.5)
            )
        })
        .collect()
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", host::escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

fn write_report(
    path: &Path,
    args: &Args,
    pass: &Pass,
    metrics: &[(&'static str, &'static str, Summary)],
    extra: &[String],
) -> std::io::Result<()> {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\n\"host\":{},\n\"correct\":{},\"attempted\":{},\"failed\":{},\n\"metrics\":{{",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::fingerprint_json(),
        pass.failed == 0,
        pass.attempted,
        pass.failed
    );
    for (i, (name, unit, m)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n\"{name}\":{{\"value\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":\"{unit}\"",
            if i == 0 { "" } else { "," },
            m.value,
            m.q1,
            m.q3,
            m.n
        );
        if let Some(l) = PER_LAYER.iter().find(|l| l.name == *name) {
            let _ = write!(
                s,
                ",\"layer\":\"{}\",\"kind\":\"{}\",\"moves\":\"{}\",\"source\":\"{}\"",
                l.layer,
                l.kind,
                l.moves,
                if pass.borrowed.contains(name) {
                    "reference pass"
                } else {
                    "workload"
                }
            );
        }
        s.push('}');
    }
    let _ = write!(
        s,
        "\n}},\n\"reconciliation\":{},\n\"notes\":{},\n\"trace_self_times\":{}\n}}\n",
        json_strings(&pass.recon),
        json_strings(&pass.notes),
        json_strings(extra)
    );
    std::fs::write(path, s)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", catalog::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("--aa-compare") if argv.len() == 4 => {
            return match aa::compare(
                Path::new(&argv[1]),
                Path::new(&argv[2]),
                Path::new(&argv[3]),
            ) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("aa-compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let mut pass = run(&args);
    // Time order, so that a truncated trace file is a prefix of the run.
    pass.spans.sort_by_key(|s| s.start_ns);

    // The metrics this kind of run reports, in catalogue order.
    let measured: &BTreeMap<&'static str, Summary> = if args.trace {
        &pass.layers
    } else {
        &pass.end_to_end
    };
    let wanted: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        match measured.get(name) {
            Some(m) if m.value.is_finite() => metrics.push((name, unit, *m)),
            other => {
                eprintln!("metric {name} was not measured ({other:?}): a bug in the benchmark");
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "# cbat-benchmark workload={} seed={} seconds={} trace={} load_threads<={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc()
    );
    for (name, unit, m) in &metrics {
        println!(
            "{name} {} {unit}  # q1={} q3={} n={}{}",
            m.value,
            m.q1,
            m.q3,
            m.n,
            if pass.borrowed.contains(name) {
                " REFERENCE PASS, not this workload"
            } else {
                ""
            }
        );
    }
    for line in &pass.recon {
        println!("# reconcile: {line}");
    }
    for line in &pass.notes {
        println!("# note: {line}");
    }
    let self_times = if args.trace {
        self_time_lines(&pass)
    } else {
        Vec::new()
    };
    for line in &self_times {
        println!("{line}");
    }

    let stem = if args.trace {
        format!("{}.layers.json", args.workload)
    } else {
        format!("{}.json", args.workload)
    };
    let mut io = write_report(&args.out.join(stem), &args, &pass, &metrics, &self_times);
    if args.trace && io.is_ok() {
        let keep = pass.spans.len().min(TRACE_FILE_SPANS);
        io = trace::write_json(
            &args.out.join(format!("trace-{}.json", args.workload)),
            &args.workload,
            args.seed,
            pass.spans.len(),
            &pass.spans[..keep],
        );
    }
    if let Err(e) = io {
        eprintln!("cannot write under {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let correct = pass.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.attempted.max(1),
        pass.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
