//! The `serve_mixed` workload: an in-process `fairswap serve` on loopback,
//! driven by closed-loop keep-alive clients that each submit a spec and
//! wait for its `/result` before sending the next.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fairswap_core::{run_summary_csv, SimSpec, SimulationBuilder};
use fairswap_serve::{http, Client, ServeOptions, ServeSummary, Server, ShutdownHandle};

use crate::gen::{self, Item};
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail_percentile, windowed_percentile, TAIL_WINDOW};
use crate::{pins, Outcome};

/// Closed-loop clients, all in this process: one per core of the
/// two-core reference machine, so neither side of the loop is starved.
const CLIENTS: usize = 2;
/// Simulation workers of the service (engine work stays on one thread).
const WORKERS: usize = 1;
/// How long a client waits for any one response; a wedged service fails
/// the run instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Rounds a traced run records spans for (about 24 000 exchanges, which
/// keeps the span dump to a few MB).
const TRACED_ROUNDS: usize = 20;
/// Passes over the recorded request bytes when timing the HTTP parser.
const PARSE_REPS: usize = 50;
/// Passes over the distinct spec bodies when timing admission.
const ADMIT_REPS: usize = 20;

/// A running in-process service.
struct Service {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Service {
    /// Starts the service and submits the hit set once, checking each
    /// answer against its batch bytes: the workload's set-up.
    fn start_prefilled(hits: &[String], expected: &[Vec<u8>]) -> Result<Self, String> {
        let service = Self::start()?;
        let mut client = Client::with_timeout(service.addr, CLIENT_TIMEOUT);
        let mut off = Tracer::new(false, Instant::now());
        for (spec, expected) in hits.iter().zip(expected) {
            let (cached, body) = exchange(&mut client, spec, false, &mut off)?;
            if cached || body != *expected {
                return Err("hit-set pre-fill returned a cached or wrong result".into());
            }
        }
        Ok(service)
    }

    fn start() -> Result<Self, String> {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            cache_cap: gen::CACHE_CAP,
            queue_cap: 256,
        })
        .map_err(|e| format!("binding the service: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            thread,
        })
    }

    /// Drains the service and waits for its thread.
    fn stop(self) -> Result<(), String> {
        self.shutdown.shutdown();
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("service failed: {e}")),
            Err(_) => Err("service thread panicked".into()),
        }
    }
}

/// The value of `"key":` in a flat JSON body, as written by the service
/// (strings unquoted).
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = body.find(&pattern)? + pattern.len();
    let rest = &body[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn counter(body: &str, key: &str) -> Result<u64, String> {
    field(body, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("/health has no counter {key}: {body}"))
}

/// One submit→result exchange of a spec the stream expects to hit (or
/// miss) the report cache. Returns whether the service answered from its
/// cache, and the `/result` body.
fn exchange(
    client: &mut Client,
    spec: &str,
    hit: bool,
    tracer: &mut Tracer,
) -> Result<(bool, Vec<u8>), String> {
    let (submit_span, result_span) = if hit {
        ("serve.submit.hit", "serve.result.hit")
    } else {
        ("serve.submit.miss", "serve.result.miss")
    };
    let submit = tracer
        .span(submit_span, |_| {
            client.request("POST", "/submit", spec.as_bytes())
        })
        .map_err(|e| format!("/submit: {e}"))?;
    let text = String::from_utf8_lossy(&submit.body);
    if submit.status != 200 {
        return Err(format!(
            "/submit answered {}: {}",
            submit.status,
            text.trim()
        ));
    }
    let job = field(&text, "job").ok_or_else(|| format!("/submit body has no job: {text}"))?;
    let cached = field(&text, "cached") == Some("true");
    let result = tracer
        .span(result_span, |_| {
            client.request("GET", &format!("/result/{job}"), b"")
        })
        .map_err(|e| format!("/result: {e}"))?;
    if result.status != 200 {
        return Err(format!("/result answered {}", result.status));
    }
    Ok((cached, result.body))
}

/// A spec run the batch way — parse, build, run, `run_summary_csv` —
/// giving the bytes `fairswap run --config` writes for it, its run time
/// and its chunk requests.
fn batch_csv(spec: &str, tracer: &mut Tracer) -> Result<(Vec<u8>, u64, u64), String> {
    let config = SimSpec::from_json(spec)
        .map_err(|e| e.to_string())?
        .to_config();
    let start = Instant::now();
    let sim = tracer
        .span("core.build", |_| {
            SimulationBuilder::from_config(config.clone()).build()
        })
        .map_err(|e| e.to_string())?;
    let report = tracer.span("core.run", |_| sim.run());
    let csv = tracer.span("core.csv_emit", |_| {
        run_summary_csv(&config, &report).to_csv_string()
    });
    let nanos = start.elapsed().as_nanos() as u64;
    Ok((
        csv.into_bytes(),
        nanos,
        report.traffic().requests_issued().iter().sum(),
    ))
}

/// One finished exchange of the stream.
struct Record {
    index: usize,
    end: u64,
    nanos: u64,
    error: Option<String>,
    /// The `/result` body of a miss, checked after the stream; hits are
    /// checked as they arrive.
    body: Vec<u8>,
}

/// Takes the stream's exchanges off a shared cursor until it runs out.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    items: &[Item],
    hits: &[String],
    expected_hits: &[Vec<u8>],
    cursor: &AtomicUsize,
    traced_from: usize,
    origin: Instant,
    tracer: &mut Tracer,
) -> Vec<Record> {
    let mut client = Client::with_timeout(addr, CLIENT_TIMEOUT);
    let mut off = Tracer::new(false, Instant::now());
    let mut records = Vec::new();
    loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(index) else {
            return records;
        };
        let (spec, expected) = match item {
            Item::Hit(i) => (&hits[*i], Some(&expected_hits[*i])),
            Item::Miss(spec) => (spec, None),
        };
        let hit = expected.is_some();
        let tracer = if index >= traced_from {
            &mut *tracer
        } else {
            &mut off
        };
        let start = Instant::now();
        let outcome = tracer.span("serve.exchange", |t| exchange(&mut client, spec, hit, t));
        let nanos = start.elapsed().as_nanos() as u64;
        let end = start.duration_since(origin).as_nanos() as u64 + nanos;
        let (error, body) = match (outcome, expected) {
            (Err(e), _) => (Some(e), Vec::new()),
            (Ok((cached, body)), Some(expected)) => {
                let wrong = !cached || body != *expected;
                (
                    wrong.then(|| format!("hit {index} answered wrongly")),
                    Vec::new(),
                )
            }
            (Ok((true, _)), None) => (
                Some(format!("miss {index} answered from the cache")),
                Vec::new(),
            ),
            (Ok((false, body)), None) => (None, body),
        };
        records.push(Record {
            index,
            end,
            nanos,
            error,
            body,
        });
    }
}

/// The specs whose batch bytes `pins.json` pins for a seed, in order: the
/// hit set, then round 0's misses.
fn pinned_specs(seed: u64) -> Vec<String> {
    let misses = gen::round(seed, 0)
        .into_iter()
        .filter_map(|item| match item {
            Item::Miss(spec) => Some(spec),
            Item::Hit(_) => None,
        });
    gen::hit_set(seed).into_iter().chain(misses).collect()
}

/// Prints the pin entry of a seed: the digest of the batch bytes of
/// [`pinned_specs`], concatenated, and their chunk requests.
pub fn print_pins(seed: u64) -> Result<(), String> {
    let mut off = Tracer::new(false, Instant::now());
    let (mut bytes, mut chunks) = (Vec::new(), 0);
    for spec in pinned_specs(seed) {
        let (csv, _, n) = batch_csv(&spec, &mut off)?;
        bytes.extend(csv);
        chunks += n;
    }
    println!("\"{seed}\": [[\"{}\", {chunks}]]", pins::digest(&bytes));
    Ok(())
}

pub fn run(seed: u64, rounds: usize, trace: bool) -> Result<Outcome, String> {
    // Enough rounds for one full window of misses, whatever `--seconds` is.
    let rounds = rounds.max(TAIL_WINDOW.div_ceil(gen::ROUND_MISSES));
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(trace, origin);
    let hits = gen::hit_set(seed);
    let pinned = pins::lookup("serve_mixed", seed)
        .ok_or_else(|| format!("serve_mixed/{seed} has no pin"))?;
    let mut off = Tracer::new(false, origin);
    // The batch reference: its bytes for the hit set and round 0's misses
    // are checked against the pin, and every `/result` against it.
    let (mut pin_bytes, mut pin_chunks) = (Vec::new(), 0);
    let mut expected_hits: Vec<Vec<u8>> = Vec::new();
    for spec in &hits {
        let (csv, _, chunks) = batch_csv(spec, &mut off)?;
        pin_bytes.extend_from_slice(&csv);
        pin_chunks += chunks;
        expected_hits.push(csv);
    }

    // Set-up: start the service and pre-fill the hit set. An untraced run
    // times it in samples of many start-ups (each stopped again, untimed) on
    // a second service, one sample before each segment of the stream.
    let setup_sample = || {
        crate::setup_sample(|| {
            let start = Instant::now();
            let service = Service::start_prefilled(&hits, &expected_hits)?;
            let seconds = start.elapsed().as_secs_f64();
            service.stop()?;
            Ok(seconds)
        })
    };
    let mut setup_s = Vec::new();
    let service = Service::start_prefilled(&hits, &expected_hits)?;
    let mut health = Client::with_timeout(service.addr, CLIENT_TIMEOUT);
    let health_body = |client: &mut Client| -> Result<String, String> {
        let response = client
            .request("GET", "/health", b"")
            .map_err(|e| e.to_string())?;
        Ok(String::from_utf8_lossy(&response.body).into_owned())
    };
    let before = health_body(&mut health)?;

    // The stream: whole rounds, drained by closed-loop clients.
    let items: Vec<Item> = (0..rounds as u64)
        .flat_map(|r| gen::round(seed, r))
        .collect();
    // A traced run traces its last rounds; as many rounds just before them
    // are the untraced baseline for `trace.overhead_frac`.
    let traced_rounds = TRACED_ROUNDS.min(rounds / 2);
    let traced_from = if trace {
        (rounds - traced_rounds) * gen::ROUND_LEN
    } else {
        items.len()
    };
    // The stream runs in segments of whole rounds, so that set-up samples
    // can sit between them; a traced run has one segment and no samples.
    let segments = if trace {
        1
    } else {
        crate::SETUP_SAMPLES.min(rounds)
    };
    let mut records: Vec<Record> = Vec::new();
    let stream_start = Instant::now();
    let mut stream_s = 0.0;
    for segment in 0..segments {
        if !trace {
            setup_s.push(setup_sample()?);
        }
        let from = segment * rounds / segments * gen::ROUND_LEN;
        let to = (segment + 1) * rounds / segments * gen::ROUND_LEN;
        let cursor = AtomicUsize::new(from);
        let start = Instant::now();
        let per_client: Vec<(Vec<Record>, Tracer)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tracer = Tracer::new(trace, origin);
                        let records = client_loop(
                            service.addr,
                            &items[..to],
                            &hits,
                            &expected_hits,
                            &cursor,
                            traced_from,
                            origin,
                            &mut tracer,
                        );
                        (records, tracer)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        stream_s += start.elapsed().as_secs_f64();
        for (r, t) in per_client {
            records.extend(r);
            tracer.absorb(t);
        }
    }
    let after = health_body(&mut health)?;
    drop(health);
    service.stop()?;

    records.sort_by_key(|r| r.index);

    // Output checks, outside the timed window: hits against the batch
    // bytes computed before set-up, misses against a batch run now.
    let (mut hit_ns, mut miss_ns, mut queue_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_ns = Vec::new();
    let mut round_chunks = vec![0u64; rounds];
    for record in &records {
        out.attempted += 1;
        let problem = match (&record.error, &items[record.index]) {
            (Some(e), _) => Some(e.clone()),
            (None, Item::Hit(_)) => {
                hit_ns.push(record.nanos as f64);
                None
            }
            (None, Item::Miss(spec)) => {
                miss_ns.push(record.nanos as f64);
                let (csv, nanos, chunks) = tracer.span("core.batch", |t| batch_csv(spec, t))?;
                queue_ms.push((record.nanos as f64 - nanos as f64) / 1e6);
                round_chunks[record.index / gen::ROUND_LEN] += chunks;
                if record.index < gen::ROUND_LEN {
                    pin_bytes.extend_from_slice(&csv);
                    pin_chunks += chunks;
                }
                (record.body != csv)
                    .then(|| format!("miss {} differs from the batch run.csv", record.index))
            }
        };
        all_ns.push(record.nanos as f64);
        if let Some(problem) = problem {
            out.failed += 1;
            if out.problems.len() < 10 {
                out.problems.push(problem);
            }
        }
    }
    let reference = (pins::digest(&pin_bytes), pin_chunks);
    if pinned.first() != Some(&reference) {
        out.problems.push(format!(
            "batch reference digest {} / {} chunk requests, pinned {:?}",
            reference.0,
            reference.1,
            pinned.first()
        ));
    }
    let hits_seen = counter(&after, "hits")? - counter(&before, "hits")?;
    let misses_seen = counter(&after, "misses")? - counter(&before, "misses")?;
    let hit_items = items.iter().filter(|i| matches!(i, Item::Hit(_))).count() as u64;
    if (hits_seen, misses_seen) != (hit_items, items.len() as u64 - hit_items) {
        out.problems.push(format!(
            "/health counted {hits_seen} hits and {misses_seen} misses; the stream holds {hit_items} hits and {} misses",
            items.len() as u64 - hit_items
        ));
    }
    out.counts = vec![
        ("hits_per_round".into(), hits_seen / rounds as u64),
        ("misses_per_round".into(), misses_seen / rounds as u64),
        ("round0.miss_chunk_requests".into(), round_chunks[0]),
    ];

    // Round durations: each round ends when its last exchange completes
    // (only traced runs use them, and their stream is one segment).
    let mut round_end = vec![0u64; rounds];
    for record in &records {
        let r = record.index / gen::ROUND_LEN;
        round_end[r] = round_end[r].max(record.end);
    }
    let mut previous = stream_start.duration_since(origin).as_nanos() as u64;
    let round_s: Vec<f64> = round_end
        .iter()
        .map(|&end| {
            let seconds = end.saturating_sub(previous) as f64 / 1e9;
            previous = previous.max(end);
            seconds
        })
        .collect();

    hit_ns.sort_by(f64::total_cmp);
    if tail_percentile(miss_ns.len().min(TAIL_WINDOW)).is_none_or(|p| p < 99.0) {
        out.problems
            .push(format!("only {} misses: too few for a p99", miss_ns.len()));
    }
    if trace {
        let traced = rounds - traced_rounds;
        let m = &mut out.metrics;
        m.insert(
            "trace.overhead_frac",
            median(&round_s[traced..]) / median(&round_s[traced - traced_rounds..traced]) - 1.0,
        );
        m.insert(
            "core.chunk_requests",
            round_chunks.iter().sum::<u64>() as f64,
        );
        m.insert("serve.hit_p50_us", percentile(&hit_ns, 50.0) / 1e3);
        m.insert("serve.hit_p99_us", percentile(&hit_ns, 99.0) / 1e3);
        m.insert("serve.queue_wait_ms", median(&queue_ms));
        m.insert(
            "serve.miss_time_frac",
            miss_ns.iter().sum::<f64>() / all_ns.iter().sum::<f64>(),
        );
        m.insert(
            "serve.cache_hit_frac",
            hits_seen as f64 / (hits_seen + misses_seen) as f64,
        );
        m.insert(
            "serve.cache_evictions",
            counter(&after, "evictions")? as f64,
        );
        m.insert("serve.rejected", counter(&after, "rejected")? as f64);
        layer_metrics(&mut out, &mut tracer, &items, &hits);
        out.tracer = Some(tracer);
        return Ok(out);
    }
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    // The timed phase is the whole request stream, set-up samples excluded.
    m.insert("wall_s", stream_s);
    m.insert(
        "chunks_per_s",
        round_chunks.iter().sum::<u64>() as f64 / stream_s,
    );
    m.insert("requests_per_s", items.len() as f64 / stream_s);
    // Latency percentiles are taken per round (all exchanges) or per
    // window of misses, in stream order; the median window is reported.
    m.insert(
        "request_p50_us",
        windowed_percentile(&all_ns, gen::ROUND_LEN, 50.0) / 1e3,
    );
    m.insert(
        "miss_p50_ms",
        windowed_percentile(&miss_ns, TAIL_WINDOW, 50.0) / 1e6,
    );
    m.insert(
        "miss_p99_ms",
        windowed_percentile(&miss_ns, TAIL_WINDOW, 99.0) / 1e6,
    );
    Ok(out)
}

/// Span-derived per-layer metrics, plus in-process replays of the HTTP
/// parser and spec admission over the bytes the stream carried.
fn layer_metrics(out: &mut Outcome, tracer: &mut Tracer, items: &[Item], hits: &[String]) {
    // The HTTP parser over the bytes `Client` writes for round 0's
    // requests (with a fixed job id).
    let mut wire = Vec::new();
    for item in &items[..gen::ROUND_LEN] {
        let spec = match item {
            Item::Hit(i) => &hits[*i],
            Item::Miss(spec) => spec,
        };
        wire.extend_from_slice(
            format!(
                "POST /submit HTTP/1.1\r\nHost: fairswap\r\nContent-Length: {}\r\n\r\n{spec}",
                spec.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(b"GET /result/123456 HTTP/1.1\r\nHost: fairswap\r\n\r\n");
    }
    let mut parsed = 0u64;
    tracer.span("serve.http_parse", |_| {
        for _ in 0..PARSE_REPS {
            let mut reader = Cursor::new(wire.as_slice());
            while let Ok(Some(request)) = http::read_request(&mut reader) {
                std::hint::black_box(request);
                parsed += 1;
            }
        }
    });
    if parsed != (PARSE_REPS * 2 * gen::ROUND_LEN) as u64 {
        out.problems
            .push(format!("http replay parsed {parsed} requests"));
    }

    // Admission (parse with the unknown-key check, then hash) per distinct
    // body.
    let mut bodies: Vec<&str> = hits.iter().map(String::as_str).collect();
    bodies.extend(items[..gen::ROUND_LEN].iter().filter_map(|i| match i {
        Item::Miss(spec) => Some(spec.as_str()),
        Item::Hit(_) => None,
    }));
    tracer.span("core.spec_admit", |_| {
        for _ in 0..ADMIT_REPS {
            for body in &bodies {
                std::hint::black_box(crate::engine::admit(body).ok());
            }
        }
    });

    let t = &*tracer;
    let m = &mut out.metrics;
    m.insert(
        "serve.submit_us",
        median(&t.durations("serve.submit.hit")) / 1e3,
    );
    m.insert(
        "serve.result_wait_ms",
        median(&t.durations("serve.result.miss")) / 1e6,
    );
    m.insert(
        "serve.http_parse_ns",
        t.total("serve.http_parse") as f64 / parsed.max(1) as f64,
    );
    m.insert(
        "core.spec_admit_us",
        t.total("core.spec_admit") as f64 / 1e3 / (ADMIT_REPS * bodies.len()) as f64,
    );
    m.insert(
        "core.csv_emit_us",
        t.total("core.csv_emit") as f64 / 1e3 / t.count("core.csv_emit").max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairswap_serve::{JobResult, ReportCache};
    use std::sync::Arc;

    fn hash(spec: &str) -> fairswap_core::SpecHash {
        SimSpec::from_json(spec).unwrap().content_hash().unwrap()
    }

    /// Replays the stream's lookups through the service's own LRU cache:
    /// every resubmitted hit-set spec must still be resident.
    #[test]
    fn hit_set_stays_resident() {
        let seed = 9;
        let hits: Vec<_> = gen::hit_set(seed).iter().map(|s| hash(s)).collect();
        let mut cache = ReportCache::new(gen::CACHE_CAP);
        let result = Arc::new(JobResult {
            csv: Vec::new(),
            rows: Vec::new(),
        });
        for &h in &hits {
            assert!(cache.get(h).is_none());
            cache.insert(h, Arc::clone(&result));
        }
        let mut since_touch = vec![0usize; hits.len()];
        for r in 0..40 {
            for item in gen::round(seed, r) {
                match item {
                    Item::Hit(i) => {
                        assert!(cache.get(hits[i]).is_some(), "hit {i} evicted in round {r}");
                        // Two clients may finish misses out of stream order;
                        // keep a wide margin below the free slots anyway.
                        assert!(since_touch[i] <= (gen::CACHE_CAP - gen::HIT_SET) / 2);
                        since_touch[i] = 0;
                    }
                    Item::Miss(spec) => {
                        let h = hash(&spec);
                        assert!(cache.get(h).is_none(), "miss spec already cached");
                        cache.insert(h, Arc::clone(&result));
                        since_touch.iter_mut().for_each(|n| *n += 1);
                    }
                }
            }
        }
    }

    #[test]
    fn health_fields_parse() {
        let body = r#"{"status":"ok","queued":0,"rejected":3,"cache":{"entries":5,"hits":17,"misses":4,"evictions":2}}"#;
        assert_eq!(counter(body, "hits"), Ok(17));
        assert_eq!(counter(body, "misses"), Ok(4));
        assert_eq!(counter(body, "rejected"), Ok(3));
        assert_eq!(field(r#"{"job":"12","cached":true}"#, "job"), Some("12"));
        assert_eq!(
            field(r#"{"job":"12","cached":true}"#, "cached"),
            Some("true")
        );
    }
}
