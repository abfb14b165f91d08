//! `repro` — regenerate every table and figure of the CBAT paper.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <experiment> [options]
//!
//! experiments:
//!   table1                 structure property matrix (paper Table 1)
//!   fig5a fig5b fig5c      BAT variants & query scalability (Fig. 5)
//!   fig6a fig6b            throughput vs range-query size (Fig. 6)
//!   fig7a fig7b            throughput vs rank-query percentage (Fig. 7)
//!   fig8a fig8b            thread scalability, low/high updates (Fig. 8)
//!   fig9                   update & range-query latency vs RQ size (Fig. 9)
//!   fig10                  size scalability, Zipfian (Fig. 10)
//!   stats                  §7 "Why Balancing" work counters
//!   ablation-delegation    delegation on/off CAS + throughput ablation
//!   ablation-augment       augmentation overhead vs plain chromatic tree
//!   all                    everything above
//!
//! options:
//!   --duration-ms N   measured milliseconds per data point (default 300)
//!   --trials N        trials per point, averaged (default 2; paper: 5)
//!   --threads a,b,c   thread counts for sweeps (default 1,2,4,8)
//!   --scale N         divide the paper's key ranges by N (default 10,
//!                     i.e. MK 10M -> 1M, fitting laptop-class machines)
//!
//! every number is a positive integer
//! ```
//!
//! Output is CSV on stdout: `experiment,structure,x,mops[,extra…]`, one
//! block per experiment, ready for plotting.

use std::time::Duration;

use bench::{lineup, variants, BatAdapter, ChromaticAdapter, MkSet, ADAPTERS};
use workloads::{KeyDist, OpMix, QueryKind, RunConfig};

struct Opts {
    duration: Duration,
    trials: usize,
    threads: Vec<usize>,
    scale: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            duration: Duration::from_millis(300),
            trials: 2,
            threads: vec![1, 2, 4, 8],
            scale: 10,
        }
    }
}

/// One row of the dispatch table: the name on the command line and what
/// it runs.
type Experiment = (&'static str, fn(&Opts));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 15] = [
    ("table1", |_| table1()),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("fig6a", |o| fig6(o, 'a')),
    ("fig6b", |o| fig6(o, 'b')),
    ("fig7a", |o| fig7(o, 'a')),
    ("fig7b", |o| fig7(o, 'b')),
    ("fig8a", |o| fig8(o, 'a')),
    ("fig8b", |o| fig8(o, 'b')),
    ("fig9", fig9),
    ("fig10", fig10),
    ("stats", stats),
    ("ablation-delegation", ablation_delegation),
    ("ablation-augment", ablation_augment),
];

/// The usage text: the module doc above, between its code fences.
fn usage() -> String {
    include_str!("repro.rs")
        .lines()
        .skip_while(|l| !l.starts_with("//! ```text"))
        .skip(1)
        .take_while(|l| !l.starts_with("//! ```"))
        .map(|l| l.strip_prefix("//! ").unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A flag's value; zero is refused because every option counts something
/// (zero trials average to NaN, zero threads measure nothing).
fn positive<T: std::str::FromStr + PartialOrd + Default>(flag: &str, v: &str) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(format!("{flag}: `{v}` is not a positive integer")),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Vec<Experiment>, Opts), String> {
    let mut opts = Opts::default();
    let mut exps = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--duration-ms" => opts.duration = Duration::from_millis(positive(&a, &value()?)?),
            "--trials" => opts.trials = positive(&a, &value()?)?,
            "--threads" => {
                opts.threads = value()?
                    .split(',')
                    .map(|t| positive(&a, t))
                    .collect::<Result<_, _>>()?;
            }
            "--scale" => opts.scale = positive(&a, &value()?)?,
            "all" => exps.extend(EXPERIMENTS),
            name => exps.push(
                *EXPERIMENTS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("unknown experiment: {name}"))?,
            ),
        }
    }
    if exps.is_empty() {
        exps.extend(EXPERIMENTS);
    }
    Ok((exps, opts))
}

/// Paper key ranges, scaled: MK "10M" and "100K".
fn mk_large(o: &Opts) -> u64 {
    (10_000_000 / o.scale).max(10_000)
}
fn mk_small(o: &Opts) -> u64 {
    (100_000 / o.scale.min(10)).max(10_000)
}
/// Paper RQ 50K, scaled with the large key range.
fn rq_large(o: &Opts) -> u64 {
    (50_000 / o.scale).max(500)
}

/// The update-only ablation: `ablation-augment` runs it on a 50-50-0-0 mix;
/// it answers no query, so `ADAPTERS` leaves it out.
const ABLATION: (&str, MkSet) = ("Chromatic (unaugmented)", || {
    Box::new(ChromaticAdapter::new())
});

/// One adapter's factory, by the name its rows carry.
fn adapter(name: &str) -> (&'static str, MkSet) {
    *ADAPTERS
        .iter()
        .chain([&ABLATION])
        .find(|(n, _)| *n == name)
        .expect("an adapter of this name exists")
}

/// Run `trials` fresh instances and average throughput + latencies.
fn measure(mk: MkSet, cfg: &RunConfig, trials: usize) -> (f64, f64, f64) {
    let mut mops = 0.0;
    let mut upd = 0.0;
    let mut q = 0.0;
    for trial in 0..trials {
        let set = mk();
        let mut c = cfg.clone();
        c.seed = cfg.seed ^ (trial as u64) << 32;
        let r = workloads::run(set.as_ref(), &c);
        mops += r.mops();
        upd += r.update_latency_ns;
        q += r.query_latency_ns;
        ebr::flush();
    }
    let n = trials as f64;
    (mops / n, upd / n, q / n)
}

fn header(exp: &str, desc: &str, cols: &str) {
    println!("\n# {exp}: {desc}");
    println!("{cols}");
}

fn table1() {
    header(
        "table1",
        "data structure properties (paper Table 1)",
        "structure,augmented,balanced,fanout,lock-free",
    );
    println!("BAT,yes,yes,2,yes");
    println!("BAT-Del,yes,yes,2,yes (delegation waits time out)");
    println!("BAT-EagerDel,yes,yes,2,yes (delegation waits time out)");
    println!("FR-BST,yes,no,2,yes");
    println!("VcasBST,no,no,2,yes");
    println!("VerlibBTree*,no,yes,16,yes (LLX/SCX per edge)");
    println!("Chromatic (unaugmented),no,yes,2,yes");
}

fn fig5a(o: &Opts) {
    header(
        "fig5a",
        &format!(
            "throughput vs threads, MK {}, 50-50-0-0 uniform (paper Fig. 5a)",
            mk_large(o)
        ),
        "experiment,structure,threads,mops",
    );
    for &(name, mk) in variants() {
        for &t in &o.threads {
            let mut cfg = RunConfig::new(t, mk_large(o));
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(50, 50, 0, 0);
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("fig5a,{name},{t},{mops:.4}");
        }
    }
}

fn fig5b(o: &Opts) {
    header(
        "fig5b",
        &format!(
            "throughput vs threads, MK {}, 100-0-0-0 sorted keys, no prefill (paper Fig. 5b)",
            mk_large(o)
        ),
        "experiment,structure,threads,mops",
    );
    for &(name, mk) in variants() {
        for &t in &o.threads {
            let mut cfg = RunConfig::new(t, mk_large(o));
            // The unbalanced tree degenerates to a spine under sorted
            // inserts; keep the run short enough to finish.
            cfg.duration = o.duration.min(Duration::from_millis(500));
            cfg.mix = OpMix::percent(100, 0, 0, 0);
            cfg.dist = KeyDist::Sorted;
            cfg.prefill = false;
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("fig5b,{name},{t},{mops:.4}");
        }
    }
}

fn fig5c(o: &Opts) {
    let rq = rq_large(o);
    header(
        "fig5c",
        &format!(
            "query scalability on BAT-EagerDel, RQ {rq}, MK {}, 5-5-0-90 (paper Fig. 5c)",
            mk_large(o)
        ),
        "experiment,query,threads,mops",
    );
    let mk = adapter("BAT-EagerDel").1;
    for (qname, query) in [
        ("Rank", QueryKind::Rank),
        ("RangeQuery", QueryKind::RangeCount { size: rq }),
        ("Select", QueryKind::Select),
    ] {
        for &t in &o.threads {
            let mut cfg = RunConfig::new(t, mk_large(o));
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(5, 5, 0, 90);
            cfg.query = query;
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("fig5c,{qname},{t},{mops:.4}");
        }
    }
}

fn rq_sizes(max_key: u64) -> Vec<u64> {
    [8u64, 32, 128, 512, 2048, 8192, 32_768]
        .into_iter()
        .filter(|&s| s < max_key / 2)
        .collect()
}

fn fig6(o: &Opts, which: char) {
    let mk_key = if which == 'a' {
        mk_small(o)
    } else {
        mk_large(o)
    };
    let exp = format!("fig6{which}");
    header(
        &exp,
        &format!(
            "throughput vs RQ size, TT {}, MK {mk_key}, 10-10-40-40 (paper Fig. 6{which})",
            o.threads.last().unwrap()
        ),
        "experiment,structure,rq_size,mops",
    );
    let t = *o.threads.last().unwrap();
    for &(name, mk) in lineup() {
        for rq in rq_sizes(mk_key) {
            let mut cfg = RunConfig::new(t, mk_key);
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(10, 10, 40, 40);
            cfg.query = QueryKind::RangeCount { size: rq };
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("{exp},{name},{rq},{mops:.4}");
        }
    }
}

fn fig7(o: &Opts, which: char) {
    let mk_key = if which == 'a' {
        mk_small(o)
    } else {
        mk_large(o)
    };
    let exp = format!("fig7{which}");
    header(
        &exp,
        &format!(
            "throughput vs rank-query %, TT {}, MK {mk_key} (paper Fig. 7{which})",
            o.threads.last().unwrap()
        ),
        "experiment,structure,rank_pcm,mops",
    );
    let t = *o.threads.last().unwrap();
    // x% of rank queries in parts-per-100k: 0.01%, 0.1%, 1%, 10%, 100%.
    for x in [10u32, 100, 1000, 10_000, 100_000] {
        let rest = 100_000 - x;
        let i = rest / 2;
        let d = rest - i;
        for &(name, mk) in lineup() {
            let mut cfg = RunConfig::new(t, mk_key);
            cfg.duration = o.duration;
            cfg.mix = OpMix::pcm(i, d, 0, x);
            cfg.query = QueryKind::Rank;
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("{exp},{name},{x},{mops:.4}");
        }
    }
}

fn fig8(o: &Opts, which: char) {
    let rq = rq_large(o);
    let exp = format!("fig8{which}");
    let mix = if which == 'a' {
        OpMix::per_mille(25, 25, 475, 475) // 2.5-2.5-47.5-47.5 (YCSB-B-ish)
    } else {
        OpMix::percent(25, 25, 25, 25) // YCSB-A-ish
    };
    header(
        &exp,
        &format!(
            "thread scalability, RQ {rq}, MK {}, {} updates (paper Fig. 8{which})",
            mk_large(o),
            if which == 'a' { "5%" } else { "50%" }
        ),
        "experiment,structure,threads,mops",
    );
    for &(name, mk) in lineup() {
        for &t in &o.threads {
            let mut cfg = RunConfig::new(t, mk_large(o));
            cfg.duration = o.duration;
            cfg.mix = mix;
            cfg.query = QueryKind::RangeCount { size: rq };
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("{exp},{name},{t},{mops:.4}");
        }
    }
}

fn fig9(o: &Opts) {
    let mk_key = mk_large(o);
    let t = *o.threads.last().unwrap();
    header(
        "fig9",
        &format!(
            "avg update / range-query latency vs RQ size, TT {t}, MK {mk_key}, 10-10-40-40 (paper Fig. 9)"
        ),
        "experiment,structure,rq_size,update_ns,query_ns",
    );
    for &(name, mk) in lineup() {
        for rq in rq_sizes(mk_key) {
            let mut cfg = RunConfig::new(t, mk_key);
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(10, 10, 40, 40);
            cfg.query = QueryKind::RangeCount { size: rq };
            let (_, upd, q) = measure(mk, &cfg, o.trials);
            println!("fig9,{name},{rq},{upd:.1},{q:.1}");
        }
    }
}

fn fig10(o: &Opts) {
    let rq = rq_large(o);
    let t = *o.threads.last().unwrap();
    header(
        "fig10",
        &format!("throughput vs max key, TT {t}, RQ {rq}, 25-25-25-25, Zipf 0.95 (paper Fig. 10)"),
        "experiment,structure,max_key,mops",
    );
    let sizes: Vec<u64> = [100_000u64, 1_000_000, 10_000_000]
        .iter()
        .map(|s| (s / o.scale).max(10_000))
        .collect();
    for &(name, mk) in std::iter::once(&adapter("BAT")).chain(lineup()) {
        for &mk_key in &sizes {
            let mut cfg = RunConfig::new(t, mk_key);
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(25, 25, 25, 25);
            cfg.query = QueryKind::RangeCount { size: rq };
            cfg.dist = KeyDist::Zipf(0.95);
            let (mops, _, _) = measure(mk, &cfg, o.trials);
            println!("fig10,{name},{mk_key},{mops:.4}");
        }
    }
}

fn stats(o: &Opts) {
    let mk_key = mk_small(o);
    let rq = rq_large(o);
    let t = *o.threads.last().unwrap();
    header(
        "stats",
        &format!("§7 work counters, TT {t}, MK {mk_key}, RQ {rq}, 25-25-25-25"),
        "experiment,structure,dist,nodes_per_prop,nil_fixes_per_prop,cas_per_prop",
    );
    for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
        let dist_name = match dist {
            KeyDist::Uniform => "uniform",
            _ => "zipf0.99",
        };
        for (name, mk) in [
            ("BAT", BatAdapter::plain as fn() -> BatAdapter),
            ("BAT-EagerDel", BatAdapter::eager),
            ("FR-BST", BatAdapter::fr),
        ] {
            let mut cfg = RunConfig::new(t, mk_key);
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(25, 25, 25, 25);
            cfg.query = QueryKind::RangeCount { size: rq };
            cfg.dist = dist;
            let s = mk();
            workloads::run(&s, &cfg);
            let snap = s.inner().stats().snapshot();
            println!(
                "stats,{name},{dist_name},{:.2},{:.4},{:.2}",
                snap.avg_nodes_per_propagate(),
                snap.avg_nil_fixes_per_propagate(),
                snap.avg_cas_per_propagate(),
            );
            ebr::flush();
        }
    }
}

fn ablation_delegation(o: &Opts) {
    let t = *o.threads.last().unwrap();
    let mk_key = mk_small(o);
    header(
        "ablation-delegation",
        &format!("delegation ablation, TT {t}, MK {mk_key}, update-only uniform"),
        "experiment,structure,mops,cas_per_prop,delegations,timeouts",
    );
    for (name, mk_fn) in [
        ("BAT", BatAdapter::plain as fn() -> BatAdapter),
        ("BAT-Del", BatAdapter::del),
        ("BAT-EagerDel", BatAdapter::eager),
    ] {
        let mut mops = 0.0;
        let mut snap = cbat_core::StatsSnapshot::default();
        for trial in 0..o.trials {
            let s = mk_fn();
            let mut cfg = RunConfig::new(t, mk_key);
            cfg.duration = o.duration;
            cfg.mix = OpMix::percent(50, 50, 0, 0);
            cfg.seed ^= (trial as u64) << 32;
            let r = workloads::run(&s, &cfg);
            mops += r.mops();
            let s2 = s.inner().as_map().stats.snapshot();
            snap.propagates += s2.propagates;
            snap.cas_attempts += s2.cas_attempts;
            snap.delegations += s2.delegations;
            snap.delegation_timeouts += s2.delegation_timeouts;
            ebr::flush();
        }
        println!(
            "ablation-delegation,{name},{:.4},{:.2},{},{}",
            mops / o.trials as f64,
            snap.cas_attempts as f64 / snap.propagates.max(1) as f64,
            snap.delegations,
            snap.delegation_timeouts,
        );
    }
}

fn ablation_augment(o: &Opts) {
    let t = *o.threads.last().unwrap();
    let mk_key = mk_large(o);
    header(
        "ablation-augment",
        &format!("augmentation overhead, TT {t}, MK {mk_key}, update-only uniform"),
        "experiment,structure,mops",
    );
    for (name, mk) in ["Chromatic (unaugmented)", "BAT", "BAT-EagerDel"].map(adapter) {
        let mut cfg = RunConfig::new(t, mk_key);
        cfg.duration = o.duration;
        cfg.mix = OpMix::percent(50, 50, 0, 0);
        let (mops, _, _) = measure(mk, &cfg, o.trials);
        println!("ablation-augment,{name},{mops:.4}");
    }
}

fn main() {
    let (exps, opts) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    eprintln!(
        "repro: duration {:?}, trials {}, threads {:?}, scale 1/{} of paper key ranges",
        opts.duration, opts.trials, opts.threads, opts.scale
    );
    for (_, run) in exps {
        run(&opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Vec<&'static str>, Opts), String> {
        let (exps, opts) = parse_args(line.split(' ').map(String::from))?;
        Ok((exps.iter().map(|e| e.0).collect(), opts))
    }

    #[test]
    fn parse_args_takes_a_full_line_and_refuses_zero_counts() {
        let (exps, o) =
            parse("fig9 --duration-ms 50 --trials 1 table1 --threads 1,2 --scale 100").unwrap();
        assert_eq!(exps, ["fig9", "table1"]);
        assert_eq!(o.duration, Duration::from_millis(50));
        assert_eq!((o.trials, o.threads, o.scale), (1, vec![1, 2], 100));
        // `--threads ` is the empty value; the last two are a missing value
        // and an unknown name.
        for bad in [
            "--trials 0",
            "--threads ",
            "--threads 0",
            "--scale 0",
            "--trials",
            "fig11",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_documented_experiment_resolves() {
        let usage = usage();
        let listed: Vec<&str> = usage
            .lines()
            .skip_while(|l| *l != "experiments:")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .flat_map(|l| l.trim_start().split("  ").next().unwrap().split(' '))
            .collect();
        assert_eq!(listed.len(), EXPERIMENTS.len() + 1, "{listed:?}");
        for name in listed {
            parse(name).unwrap_or_else(|e| panic!("{e}"));
        }
        assert_eq!(parse("all").unwrap().0, EXPERIMENTS.map(|e| e.0));
    }
}
