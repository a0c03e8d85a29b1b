//! The repository benchmark: one command that runs a named, seeded
//! workload against the fairswap crates, checks its outputs, and prints
//! every metric by name and unit.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_static --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that records spans around each call into a layer and reports the
//! per-layer metrics (see `perfbench/README.md`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod engine;
mod gen;
mod pins;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use spans::Tracer;

/// The workloads, each with the length of one pass (a fixed unit of work)
/// on the reference machine: a run spends about [`SETUP_PHASE_S`] timing
/// set-up and makes `(seconds - SETUP_PHASE_S) / pass` passes, and at least
/// three, so every run does a fixed amount of work set by its arguments
/// alone.
pub const WORKLOADS: [(&str, f64); 4] = [
    // The paper's setting (1000 nodes, 10k Zipf downloads, k=4 and k=20):
    // the routing walk, accounting, settlement and fairness on a
    // cache-resident working set; churn and serve stay idle.
    ("paper_static", 5.9),
    // 100k nodes in a 22-bit space: the only workload where topology build
    // matters and routing tables outgrow the CPU caches.
    ("large_static", 4.6),
    // The demo spec's dynamics at 1000 nodes: churn, heterogeneity, detour
    // routing, a TTL cache and re-replication with retries — the same
    // tables as paper_static, under mutation.
    ("churn_repair", 2.8),
    // An in-process service under two closed-loop clients: HTTP, admission,
    // the report cache and queue wait, with real simulations on every miss.
    // Its unit of work is a spec request, so its chunks_per_s counts only
    // the chunk requests its miss simulations route. A pass here is one
    // round of the request stream.
    ("serve_mixed", 0.12),
];

/// Set-up samples an untraced run takes, spread over the run so that a slow
/// stretch of the machine moves one of them rather than all; `setup_s` is
/// their median.
pub const SETUP_SAMPLES: usize = 5;
/// The set-up work one sample times: back-to-back set-ups until their timed
/// parts add up to at least this many seconds, so a set-up of milliseconds
/// is still measured over a window the machine's noise averages out in.
const SETUP_SAMPLE_S: f64 = 0.8;
/// The part of `--seconds` that set-up timing is budgeted.
const SETUP_PHASE_S: f64 = SETUP_SAMPLES as f64 * SETUP_SAMPLE_S;

/// One set-up sample: back-to-back calls of `once` (which sets up, tears
/// down, and returns the seconds its set-up part took) until
/// [`SETUP_SAMPLE_S`] of set-up is spent. Returns the mean seconds per
/// set-up.
pub fn setup_sample(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let (mut spent, mut count) = (0.0, 0u32);
    while spent < SETUP_SAMPLE_S {
        spent += once()?;
        count += 1;
    }
    Ok(spent / f64::from(count))
}

/// End-to-end metrics (untraced runs), in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("chunks_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
];

/// Per-layer metrics (traced runs), in output order. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("kademlia.build_ms", "ms"),
    ("kademlia.churn_ops", "count"),
    ("kademlia.churn_us_per_op", "us"),
    ("kademlia.hops", "count"),
    ("kademlia.next_hop_ns", "ns"),
    ("kademlia.closest_ns", "ns"),
    ("churn.plan_ms", "ms"),
    ("churn.joins", "count"),
    ("churn.leaves", "count"),
    ("workload.gen_ns_per_chunk", "ns"),
    ("storage.download_ns_per_chunk", "ns"),
    ("storage.delivered_frac", "ratio"),
    ("storage.detoured", "count"),
    ("storage.capacity_blocked", "count"),
    ("storage.cache_hit_frac", "ratio"),
    ("storage.repair_transfers", "count"),
    ("storage.repair_delivered_frac", "ratio"),
    ("storage.retry_recovered_frac", "ratio"),
    ("incentives.on_delivery_ns", "ns"),
    ("swap.settlement_ms", "ms"),
    ("fairness.phase_ms", "ms"),
    ("fairness.gini_us", "us"),
    ("core.chunk_requests", "count"),
    ("core.sim_steps_ms", "ms"),
    ("core.phase_coverage_frac", "ratio"),
    ("core.spec_admit_us", "us"),
    ("core.csv_emit_us", "us"),
    ("simcore.executor_self_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.http_parse_ns", "ns"),
    ("serve.result_wait_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.rejected", "count"),
    ("serve.hit_p50_us", "us"),
    ("serve.hit_p99_us", "us"),
    ("serve.miss_time_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Named counts that must repeat exactly for a seed.
pub type Counts = Vec<(String, u64)>;

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures beyond the per-operation ones.
    pub problems: Vec<String>,
    /// Counts that must repeat exactly for a seed, run after run.
    pub counts: Counts,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 25.0,
        trace: false,
        print_pins: false,
    };
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--print-pins" {
            args.print_pins = true;
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Where runs keep their per-seed counts and span dumps, inside the
/// checkout the benchmark runs from.
const STATE_DIR: &str = ".perfbench";

/// The exact-count gate: a seed's deterministic counts must equal those of
/// every earlier run with the same seed. Returns the mismatches.
fn check_counts(
    workload: &str,
    seed: u64,
    counts: &[(String, u64)],
) -> Result<Vec<String>, String> {
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let path = Path::new(STATE_DIR).join(format!("counts-{workload}-{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => Ok(Vec::new()),
        Ok(previous) => Ok(previous
            .lines()
            .zip(text.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("count drifted from an earlier run: {a} -> {b}"))
            .chain((previous.lines().count() != counts.len()).then(|| "count set changed".into()))
            .collect()),
        Err(_) => {
            std::fs::create_dir_all(STATE_DIR).map_err(|e| e.to_string())?;
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, text).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
            Ok(Vec::new())
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let (_, pass_s) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .expect("validated in parse_args");
    let passes = (((args.seconds - SETUP_PHASE_S) / pass_s).round().max(0.0) as usize).max(3);
    let seed = args.seed % pins::SEEDS;
    let mut out = match args.workload.as_str() {
        "serve_mixed" => serve::run(seed, passes, args.trace)?,
        workload => engine::run(workload, seed, passes, args.trace)?,
    };
    let mismatches = check_counts(&args.workload, seed, &out.counts)?;
    out.problems.extend(mismatches);

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let tracer = out.tracer.take().expect("traced runs keep their spans");
        let path =
            Path::new(STATE_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(STATE_DIR).map_err(|e| e.to_string())?;
        std::fs::write(&path, tracer.to_jsonl(&args.workload)).map_err(|e| e.to_string())?;
    } else {
        out.metrics.insert("peak_rss_mb", peak_rss_mb()?);
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if args.trace => 0.0,
            None => return Err(format!("workload reported no {name}")),
        };
        if !args.trace && value <= 0.0 {
            out.problems
                .push(format!("end-to-end metric {name} is {value}"));
        }
        eprintln!("{name:>32} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed % pins::SEEDS;
    let result = if args.print_pins && args.workload == "serve_mixed" {
        serve::print_pins(seed).map(|()| None)
    } else if args.print_pins {
        engine::print_pins(&args.workload, seed).map(|()| None)
    } else {
        run(&args).map(Some)
    };
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample times set-ups until SETUP_SAMPLE_S is spent and reports
    /// their mean.
    #[test]
    fn setup_samples_fill_their_window() {
        let mut calls = 0;
        let per = setup_sample(|| {
            calls += 1;
            Ok(0.3)
        })
        .unwrap();
        assert_eq!(calls, 3);
        assert!((per - 0.3).abs() < 1e-12);
        // A set-up longer than the window is a sample on its own.
        assert_eq!(setup_sample(|| Ok(5.0)).unwrap(), 5.0);
        let mut next = [0.5, 0.25, 0.25].into_iter();
        assert_eq!(
            setup_sample(|| Ok(next.next().unwrap())).unwrap(),
            1.0 / 3.0
        );
    }

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let root: serde::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let (_, value) = root
                .as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == key)
                .unwrap();
            let serde::Value::Array(items) = value else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|item| {
                    let fields = item.as_object().unwrap();
                    let get = |name: &str| match fields.iter().find(|(k, _)| k == name) {
                        Some((_, serde::Value::Str(s))) => s.clone(),
                        _ => panic!("{key} entry without {name}"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        let (_, workloads) = root
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "workloads")
            .unwrap();
        let serde::Value::Array(items) = workloads else {
            panic!()
        };
        let declared: Vec<String> = items
            .iter()
            .map(
                |item| match item.as_object().unwrap().iter().find(|(k, _)| k == "name") {
                    Some((_, serde::Value::Str(s))) => s.clone(),
                    _ => panic!("workload without a name"),
                },
            )
            .collect();
        assert_eq!(declared, names);
    }
}
