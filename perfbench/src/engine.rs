//! The engine workloads: seeded cell specs run in-process, one cell after
//! another on one worker thread, exactly as `fairswap run --config` runs a
//! spec (parse, build, run, render `run.csv`).

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use fairswap_churn::ChurnPlan;
use fairswap_core::{
    run_summary_csv, Executor, Phase, SimConfig, SimReport, SimSpec, StepObserver,
};
use fairswap_fairness::gini;
use fairswap_incentives::{BandwidthIncentive, RewardState, SwarmIncentive};
use fairswap_kademlia::{AddressSpace, NodeId, Topology, TopologyBuilder};
use fairswap_simcore::rng::{domain, sub_seed};
use fairswap_storage::{CachePolicy, ChunkDelivery, DownloadSim};
use fairswap_workload::WorkloadBuilder;

use crate::spans::Tracer;
use crate::stats::{median, tail_percentile, windowed_percentile};
use crate::{gen, pins, Counts, Outcome};

/// Every `SAMPLE_STRIDE`-th chunk delivery of a traced run is kept for the
/// routing and incentive replays (a fixed sample, so its counts repeat).
const SAMPLE_STRIDE: u64 = 32;
/// `fairness::gini` calls per cell in the traced run: one call takes
/// microseconds, too short to time alone.
const GINI_REPS: u32 = 200;

/// A built cell, ready to run.
struct Cell {
    config: SimConfig,
    sim: fairswap_core::BandwidthSim,
}

/// What one cell run produced.
struct CellRun {
    /// Wall time of each simulated step (one file download request).
    steps: Vec<f64>,
    csv: String,
    report: SimReport,
    capture: Capture,
}

/// The observer of a traced run: wall-clock phases from the engine's own
/// profiler, the churn join/leave stream, and a fixed sample of deliveries.
#[derive(Default)]
struct Capture {
    sim_steps: u64,
    settlement: u64,
    fairness: u64,
    churn: Vec<(bool, NodeId)>,
    deliveries: u64,
    sample: Vec<ChunkDelivery>,
}

impl StepObserver for Capture {
    const ENABLED: bool = true;

    fn profiling(&self) -> bool {
        true
    }

    fn wants_epochs(&self) -> bool {
        false
    }

    fn add_phase(&mut self, phase: Phase, nanos: u64) {
        match phase {
            Phase::SimSteps => self.sim_steps += nanos,
            Phase::Settlement => self.settlement += nanos,
            Phase::Fairness => self.fairness += nanos,
            Phase::TopologyBuild | Phase::CsvEmit => {}
        }
    }

    fn on_join(&mut self, _step: u64, node: NodeId) {
        self.churn.push((true, node));
    }

    fn on_leave(&mut self, _step: u64, node: NodeId) {
        self.churn.push((false, node));
    }

    fn on_delivery(&mut self, _step: u64, delivery: &ChunkDelivery) {
        self.deliveries += 1;
        if self.deliveries.is_multiple_of(SAMPLE_STRIDE) {
            self.sample.push(delivery.clone());
        }
    }
}

/// Generates, parses, admits and builds every cell of the workload.
fn setup(workload: &str, seed: u64, tracer: &mut Tracer) -> Result<Vec<Cell>, String> {
    let specs = gen::engine_specs(workload, seed).ok_or("not an engine workload")?;
    specs
        .iter()
        .map(|json| {
            let spec = tracer.span("core.spec_admit", |_| admit(json))?;
            let sim = tracer
                .span("core.build", |_| spec.build())
                .map_err(|e| format!("building spec: {e}"))?;
            Ok(Cell {
                config: spec.to_config(),
                sim,
            })
        })
        .collect()
}

/// Parses a spec the way `fairswap run --config --strict` does, then takes
/// its content hash, as the service's admission does.
pub fn admit(json: &str) -> Result<SimSpec, String> {
    let (spec, unknown) =
        SimSpec::from_json_checked(json).map_err(|e| format!("parsing spec: {e}"))?;
    if !unknown.is_empty() {
        return Err(format!("spec has unknown keys: {unknown:?}"));
    }
    spec.content_hash().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Runs every cell through the executor; returns the runs and the pass's
/// wall time.
fn run_pass(cells: Vec<Cell>, tracer: &mut Tracer) -> (Vec<CellRun>, u64) {
    let start = Instant::now();
    let traced = tracer.enabled();
    let runs = tracer.span("simcore.executor", |tracer| {
        let tracer = Mutex::new(tracer);
        Executor::serial().run(cells, |_, cell| {
            let mut tracer = tracer.lock().expect("tracer lock poisoned");
            tracer.span("core.cell", |tracer| {
                let mut steps = Vec::with_capacity(cell.config.files as usize);
                let mut last = Instant::now();
                let step_done = |_, _| {
                    let now = Instant::now();
                    steps.push((now - last).as_nanos() as f64);
                    last = now;
                };
                let mut capture = Capture::default();
                let report = tracer.span("core.run", |_| {
                    if traced {
                        cell.sim.run_observed(step_done, &mut capture)
                    } else {
                        cell.sim.run_with_progress(step_done)
                    }
                });
                let csv = tracer.span("core.csv_emit", |_| {
                    run_summary_csv(&cell.config, &report).to_csv_string()
                });
                CellRun {
                    steps,
                    csv,
                    report,
                    capture,
                }
            })
        })
    });
    (runs, start.elapsed().as_nanos() as u64)
}

/// The counts that must repeat exactly for a seed, per cell.
fn cell_counts(index: usize, report: &SimReport) -> Counts {
    let traffic = report.traffic();
    let churn = report.churn();
    let hops: u64 = report.hops().iter().map(|(h, n)| h as u64 * n).sum();
    [
        (
            "chunk_requests",
            traffic.requests_issued().iter().sum::<u64>(),
        ),
        ("stuck", traffic.stuck_requests()),
        ("hops", hops),
        ("detoured", traffic.detoured()),
        ("capacity_blocked", traffic.capacity_blocked()),
        ("cache_hits", report.cache_hits()),
        ("joins", churn.map_or(0, |c| c.joins)),
        ("leaves", churn.map_or(0, |c| c.leaves)),
        ("repair_events", churn.map_or(0, |c| c.repair_events)),
        ("retried", traffic.retried()),
        ("recovered", traffic.recovered()),
        ("repair_transfers", traffic.repair_transfers()),
        ("repair_delivered", traffic.repair_delivered()),
        ("settlements", report.settlement_count() as u64),
    ]
    .into_iter()
    .map(|(name, value)| (format!("cell{index}.{name}"), value))
    .collect()
}

fn requests(report: &SimReport) -> u64 {
    report.traffic().requests_issued().iter().sum()
}

/// Prints the pin entry (`run.csv` digest and chunk requests per cell) of
/// one pass — the values `pins.json` records.
pub fn print_pins(workload: &str, seed: u64) -> Result<(), String> {
    let mut off = Tracer::new(false, Instant::now());
    let (runs, _) = run_pass(setup(workload, seed, &mut off)?, &mut off);
    let cells: Vec<String> = runs
        .iter()
        .map(|r| {
            let digest = pins::digest(r.csv.as_bytes());
            format!("[\"{digest}\", {}]", requests(&r.report))
        })
        .collect();
    println!("\"{seed}\": [{}]", cells.join(", "));
    Ok(())
}

pub fn run(workload: &str, seed: u64, passes: usize, trace: bool) -> Result<Outcome, String> {
    let origin = Instant::now();
    let pinned =
        pins::lookup(workload, seed).ok_or_else(|| format!("{workload}/{seed} has no pin"))?;
    let mut out = Outcome::default();
    let mut off = Tracer::new(false, origin);
    // Set-up is timed apart from the passes: a sample before each of the
    // first passes, the rest after the last. A traced run reports no
    // end-to-end metrics, so it takes none.
    let mut setup_s = Vec::new();
    let mut setup_sample = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        setup_s.push(crate::setup_sample(|| {
            let start = Instant::now();
            let cells = setup(workload, seed, &mut off)?;
            let seconds = start.elapsed().as_secs_f64();
            drop(cells);
            Ok(seconds)
        })?);
        Ok(())
    };
    let mut pass_s = Vec::new();
    let mut step_ns = Vec::new();
    // The first pass's `run.csv` digests and counts, which later passes must
    // reproduce.
    let mut expected: Option<(Vec<String>, Counts)> = None;
    let mut tracer = Tracer::new(false, origin);
    let mut traced_runs = Vec::new();
    // A traced run makes one untraced pass, for the overhead baseline, then
    // one traced pass.
    let passes = if trace { 2 } else { passes };
    for pass in 0..passes {
        if trace && pass == 1 {
            tracer = Tracer::new(true, origin);
        }
        if !trace && setup_s.len() < crate::SETUP_SAMPLES {
            setup_sample(&mut setup_s)?;
        }
        let cells = tracer.span("setup", |t| setup(workload, seed, t))?;
        let (runs, nanos) = tracer.span("pass", |t| run_pass(cells, t));
        pass_s.push(nanos as f64 / 1e9);

        let digests: Vec<String> = runs
            .iter()
            .map(|r| pins::digest(r.csv.as_bytes()))
            .collect();
        let counts: Counts = runs
            .iter()
            .enumerate()
            .flat_map(|(i, r)| cell_counts(i, &r.report))
            .collect();
        for (i, r) in runs.iter().enumerate() {
            out.attempted += 1;
            step_ns.extend_from_slice(&r.steps);
            let mut ok = true;
            if pinned.get(i) != Some(&(digests[i].clone(), requests(&r.report))) {
                out.problems.push(format!(
                    "cell {i}: run.csv digest {} / {} chunk requests, pinned {:?}",
                    digests[i],
                    requests(&r.report),
                    pinned.get(i)
                ));
                ok = false;
            }
            if let Some((first, _)) = &expected {
                if first[i] != digests[i] {
                    out.problems
                        .push(format!("cell {i}: run.csv differs between passes"));
                    ok = false;
                }
            }
            if !ok {
                out.failed += 1;
            }
        }
        match &expected {
            Some((_, first)) if *first != counts => {
                out.problems
                    .push("per-layer counts differ between passes".into());
            }
            Some(_) => {}
            None => expected = Some((digests, counts)),
        }
        if trace && pass == 1 {
            traced_runs = runs;
        }
    }
    out.counts = expected.map(|(_, counts)| counts).unwrap_or_default();

    if trace {
        layer_metrics(&mut out, &mut tracer, traced_runs, &pass_s)?;
        out.tracer = Some(tracer);
        return Ok(out);
    }
    while setup_s.len() < crate::SETUP_SAMPLES {
        setup_sample(&mut setup_s)?;
    }
    // A request here is one file download, simulated as one step. The
    // engine has no report cache, so every request is a miss. Every pass
    // does the same work, so rates use the median pass.
    let pass = median(&pass_s);
    let chunks: u64 = out
        .counts
        .iter()
        .filter(|(k, _)| k.ends_with(".chunk_requests"))
        .map(|(_, v)| v)
        .sum();
    let steps = step_ns.len() / passes;
    if tail_percentile(steps).is_none_or(|p| p < 99.0) {
        out.problems
            .push(format!("only {steps} steps a pass: too few for a p99"));
    }
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("wall_s", pass);
    m.insert("chunks_per_s", chunks as f64 / pass);
    m.insert("requests_per_s", steps as f64 / pass);
    // Latency percentiles are taken per pass, which holds every cell once
    // (paper_static's two cells step at different speeds, so a window
    // must not split them); the median pass is reported.
    let p50 = windowed_percentile(&step_ns, steps, 50.0);
    m.insert("request_p50_us", p50 / 1e3);
    m.insert("miss_p50_ms", p50 / 1e6);
    m.insert(
        "miss_p99_ms",
        windowed_percentile(&step_ns, steps, 99.0) / 1e6,
    );
    Ok(out)
}

/// Per-layer metrics of a traced run: the traced pass's spans and engine
/// phases, its outcome counts, and replays of what it captured into each
/// layer's public functions.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    runs: Vec<CellRun>,
    pass_s: &[f64],
) -> Result<(), String> {
    let mut sum = |name: &'static str, value: f64| *out.metrics.entry(name).or_insert(0.0) += value;
    let (mut requests_total, mut stuck, mut cache_hits) = (0u64, 0u64, 0u64);
    let (mut transfers, mut transfers_ok, mut retried, mut recovered) = (0u64, 0u64, 0u64, 0u64);
    let (mut phases, mut churn_ops, mut churn_errors) = (0u64, 0u64, 0u64);
    let (mut hops, mut next_hop_calls, mut sample_len) = (0u64, 0u64, 0u64);
    let (mut chunks_generated, mut chunks_downloaded) = (0u64, 0u64);

    for run in runs {
        let config = run.report.config().clone();
        let traffic = run.report.traffic();
        requests_total += requests(&run.report);
        stuck += traffic.stuck_requests();
        cache_hits += run.report.cache_hits();
        transfers += traffic.repair_transfers();
        transfers_ok += traffic.repair_delivered();
        retried += traffic.retried();
        recovered += traffic.recovered();
        sum("storage.detoured", traffic.detoured() as f64);
        sum(
            "storage.capacity_blocked",
            traffic.capacity_blocked() as f64,
        );
        sum(
            "storage.repair_transfers",
            traffic.repair_transfers() as f64,
        );
        if let Some(churn) = run.report.churn() {
            sum("churn.joins", churn.joins as f64);
            sum("churn.leaves", churn.leaves as f64);
        }
        let c = &run.capture;
        sum("core.sim_steps_ms", c.sim_steps as f64 / 1e6);
        sum("swap.settlement_ms", c.settlement as f64 / 1e6);
        sum("fairness.phase_ms", c.fairness as f64 / 1e6);
        phases += c.sim_steps + c.settlement + c.fairness;

        // Replays into each layer's public functions.
        let space = AddressSpace::new(config.bits).map_err(|e| e.to_string())?;
        let topology = tracer
            .span("kademlia.build", |_| {
                TopologyBuilder::new(space)
                    .nodes(config.nodes)
                    .bucket_sizing(config.bucket_sizing.clone())
                    .seed(config.seed)
                    .build()
            })
            .map_err(|e| e.to_string())?;
        if let Some(churn) = &config.churn {
            tracer
                .span("churn.plan", |_| {
                    ChurnPlan::generate(
                        config.nodes,
                        config.files,
                        churn,
                        sub_seed(config.seed, domain::CHURN),
                    )
                })
                .map_err(|e| e.to_string())?;
        }
        if !c.churn.is_empty() {
            let mut replica: Topology = topology.clone();
            tracer.span("kademlia.churn", |_| {
                for &(join, node) in &c.churn {
                    let applied = if join {
                        replica.add_node(node)
                    } else {
                        replica.remove_node(node)
                    };
                    churn_errors += u64::from(applied.is_err());
                }
            });
            churn_ops += c.churn.len() as u64;
        }
        let targets: Vec<NodeId> = tracer.span("kademlia.closest", |_| {
            c.sample
                .iter()
                .map(|d| topology.closest_node(d.chunk))
                .collect()
        });
        tracer.span("kademlia.route", |_| {
            for (d, &target) in c.sample.iter().zip(&targets) {
                let mut at = d.originator;
                while at != target {
                    next_hop_calls += 1;
                    match topology.next_hop(at, d.chunk) {
                        Some(next) => {
                            at = next;
                            hops += 1;
                        }
                        None => break,
                    }
                }
            }
        });
        sample_len += c.sample.len() as u64;

        let files = tracer
            .span("workload.generate", |_| {
                WorkloadBuilder::new(space, config.nodes)
                    .originator_fraction(config.originator_fraction)
                    .file_size(config.file_size)
                    .chunk_dist(config.chunk_dist.clone())
                    .seed(sub_seed(config.seed, domain::WORKLOAD))
                    .build()
                    .map(|mut w| w.take_downloads(config.files as usize))
            })
            .map_err(|e| e.to_string())?;
        chunks_generated += files.iter().map(|f| f.chunks.len() as u64).sum::<u64>();
        let mut download = DownloadSim::new(topology, CachePolicy::None);
        tracer.span("storage.download", |_| {
            for file in &files {
                chunks_downloaded +=
                    download.download_file(file.originator, &file.chunks).chunks as u64;
            }
        });
        drop(files);

        let mut mechanism = SwarmIncentive::new().with_pricing(config.pricing);
        let mut state = RewardState::with_tx_cost(config.nodes, config.channel, config.tx_cost);
        tracer.span("incentives.on_delivery", |_| {
            for d in &c.sample {
                mechanism.on_delivery(download.topology(), d, &mut state);
            }
        });
        tracer.span("fairness.gini", |_| {
            for _ in 0..GINI_REPS {
                black_box(gini(black_box(run.report.incomes())).unwrap_or(0.0));
            }
        });
    }
    if churn_errors > 0 {
        out.problems
            .push(format!("{churn_errors} churn replay operations failed"));
    }
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let frac = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let t = &*tracer;
    let m = &mut out.metrics;
    m.insert("kademlia.build_ms", t.total("kademlia.build") as f64 / 1e6);
    m.insert("kademlia.churn_ops", churn_ops as f64);
    m.insert(
        "kademlia.churn_us_per_op",
        per(t.total("kademlia.churn"), churn_ops) / 1e3,
    );
    m.insert("kademlia.hops", hops as f64);
    m.insert(
        "kademlia.next_hop_ns",
        per(t.total("kademlia.route"), next_hop_calls),
    );
    m.insert(
        "kademlia.closest_ns",
        per(t.total("kademlia.closest"), sample_len),
    );
    m.insert("churn.plan_ms", t.total("churn.plan") as f64 / 1e6);
    m.insert(
        "workload.gen_ns_per_chunk",
        per(t.total("workload.generate"), chunks_generated),
    );
    m.insert(
        "storage.download_ns_per_chunk",
        per(t.total("storage.download"), chunks_downloaded),
    );
    m.insert(
        "storage.delivered_frac",
        frac(requests_total - stuck, requests_total),
    );
    m.insert("storage.cache_hit_frac", frac(cache_hits, requests_total));
    m.insert(
        "storage.repair_delivered_frac",
        frac(transfers_ok, transfers),
    );
    m.insert("storage.retry_recovered_frac", frac(recovered, retried));
    m.insert(
        "incentives.on_delivery_ns",
        per(t.total("incentives.on_delivery"), sample_len),
    );
    m.insert(
        "fairness.gini_us",
        t.total("fairness.gini") as f64
            / 1e3
            / f64::from(GINI_REPS)
            / t.count("fairness.gini").max(1) as f64,
    );
    m.insert("core.chunk_requests", requests_total as f64);
    m.insert(
        "core.phase_coverage_frac",
        frac(phases, t.total("core.run")),
    );
    m.insert(
        "core.spec_admit_us",
        per(
            t.total("core.spec_admit"),
            t.count("core.spec_admit") as u64,
        ) / 1e3,
    );
    m.insert(
        "core.csv_emit_us",
        per(t.total("core.csv_emit"), t.count("core.csv_emit") as u64) / 1e3,
    );
    m.insert(
        "simcore.executor_self_ms",
        t.self_total("simcore.executor") as f64 / 1e6,
    );
    m.insert("trace.overhead_frac", pass_s[1] / pass_s[0] - 1.0);
    Ok(())
}
