//! `serve_zipf`: Zipfian answer traffic through `AnswerService`.
//!
//! A round sets up the paper world, the engine stack and a service with
//! 2 workers, then two client threads drive a fixed sequence of
//! [`REQUESTS`] requests closed-loop, each waiting for its answer before
//! sending the next. `run.py` pins this workload's process to one CPU:
//! on the virtualized reference host, waking a thread on the other
//! (idle) vCPU costs whatever the hypervisor takes to resume it, which
//! moved p99 between 1.1 and 2.6 ms across identical runs. The sequence
//! draws Zipf(s = 1) over the paper-scale query pool (1,000 ranking, 200
//! comparison, 300 intent and 80 vertical queries) and rotates through
//! all five engines; `--seed` picks the pool and the draws. Every round
//! starts with cold caches, so every round sees the same hit/miss mix.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use navigating_shift::corpus::{Vertical, World, WorldConfig};
use navigating_shift::engines::{AnswerEngines, EngineAnswer, EngineKind};
use navigating_shift::queries::{
    comparison_queries, intent_queries, ranking_queries, vertical_queries,
};
use navigating_shift::serve::{AnswerService, Request, ServeConfig, ServeError, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self, Probe};
use crate::stats::{self, median, ms, percentile};
use crate::{Args, Outcome};

/// The paper world's seed (the committed EXPERIMENTS.md seed).
const WORLD_SEED: u64 = 20251101;
/// Requests per round.
const REQUESTS: usize = 20_000;
/// Client threads; each waits for its answer before sending the next.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Answer depth of every request.
const TOP_K: usize = 10;
/// Length of one round (set-up plus the request sequence) on the
/// reference host, pinned to one CPU.
const ROUND_S: f64 = 2.5;

/// What the caller saw for one request.
struct Seen {
    /// Request index in the round's sequence.
    index: usize,
    /// Caller-side latency: submit to answer in hand.
    latency: Duration,
    /// The served answer's fingerprint, cache flag and service-side
    /// latency, or the error.
    result: Result<(u64, bool, Duration), ServeError>,
}

/// A stable digest of what the check compares: citation URLs, answer
/// text and snippet count.
fn fingerprint(answer: &EngineAnswer) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in &answer.citations {
        c.url.hash(&mut h);
    }
    answer.text.hash(&mut h);
    answer.snippets.len().hash(&mut h);
    h.finish()
}

/// The fixed request sequence for `seed` over `world`.
fn request_sequence(world: &World, seed: u64) -> Vec<Request> {
    let mut pool = ranking_queries(world, 1000, seed ^ 0x5261);
    pool.extend(comparison_queries(world, 100, 100, seed ^ 0x434f));
    pool.extend(intent_queries(world, 100, seed ^ 0x494e));
    for vertical in [Vertical::ConsumerElectronics, Vertical::Automotive] {
        pool.extend(vertical_queries(world, vertical, 40, seed ^ 0x5645));
    }
    let workload = Workload::from_queries(pool, 1.0, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4c4f_4144);
    (0..REQUESTS as u64)
        .map(|i| workload.request_at(&mut rng, i, &EngineKind::ALL, TOP_K))
        .collect()
}

fn probe(r: &Request) -> Probe {
    Probe {
        kind: r.engine,
        query: r.query.clone(),
        k: r.top_k,
        seed: r.seed,
    }
}

/// Drives the whole sequence through `service` from [`CLIENTS`]
/// closed-loop clients; returns what each request saw and the wall time.
fn drive(service: &AnswerService, requests: &[Request]) -> (Vec<Seen>, Duration) {
    let start = Instant::now();
    let seen = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut seen = Vec::with_capacity(requests.len() / CLIENTS + 1);
                    for index in (c..requests.len()).step_by(CLIENTS) {
                        let request = requests[index].clone();
                        let t = Instant::now();
                        let result = service.answer(request);
                        let latency = t.elapsed();
                        seen.push(Seen {
                            index,
                            latency,
                            result: result
                                .map(|s| (fingerprint(&s.answer), s.from_cache, s.latency)),
                        });
                    }
                    seen
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (seen, start.elapsed())
}

/// Name of a [`ServeError`] variant.
fn error_kind(e: &ServeError) -> String {
    let debug = format!("{e:?}");
    debug.split([' ', '{']).next().unwrap_or(&debug).to_string()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_s, mut world_gen_s) = (Vec::new(), Vec::new());
    let (mut rate, mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hit_ms, mut miss_ms, mut handoff_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    // Served fingerprint per distinct request, across all rounds.
    let mut served: BTreeMap<Probe, u64> = BTreeMap::new();
    // Per-round counters, in the order of `COUNTERS`.
    const COUNTERS: [&str; 8] = [
        "serve.answer_cache_hits",
        "serve.answer_cache_misses",
        "serve.answer_cache_evictions",
        "serve.batch_mean_jobs",
        "engines.serp_cache_hits",
        "engines.serp_cache_misses",
        "engines.serp_cache_evictions",
        "engines.single_flight_waiters",
    ];
    let mut counters: [Vec<f64>; 8] = Default::default();
    let mut sequence: Option<Vec<Request>> = None;
    let mut world_handle = None;

    let measured = args.measured_rounds(ROUND_S);
    for round in 0..=measured {
        let t = Instant::now();
        let world = Arc::new(World::generate(&WorldConfig::default_scale(), WORLD_SEED));
        let world_gen = t.elapsed().as_secs_f64();
        let engines = Arc::new(AnswerEngines::build(Arc::clone(&world)));
        let service = AnswerService::start(engines, ServeConfig::with_workers(WORKERS));
        let setup = t.elapsed().as_secs_f64();

        let requests = sequence.get_or_insert_with(|| request_sequence(&world, args.seed));
        let (seen, wall) = drive(&service, requests);
        out.attempted += requests.len() as u64;
        if round == 0 {
            out.set("peak_rss_mb", stats::peak_rss_mb());
        }

        let cache = service.cache().stats();
        out.check(cache.hits + cache.misses == requests.len() as u64, || {
            format!(
                "round {round}: answer-cache hits {} + misses {} != {} requests",
                cache.hits,
                cache.misses,
                requests.len()
            )
        });
        let report = service.shutdown();
        let mut latency_ms = Vec::with_capacity(seen.len());
        for s in seen {
            let caller = ms(s.latency);
            match s.result {
                Ok((fp, from_cache, service_latency)) => {
                    latency_ms.push(caller);
                    if round > 0 {
                        if from_cache {
                            hit_ms.push(caller);
                        } else {
                            miss_ms.push(caller);
                        }
                        handoff_ms.push(caller - ms(service_latency));
                    }
                    let key = probe(&requests[s.index]);
                    let first = *served.entry(key).or_insert(fp);
                    out.check(first == fp, || {
                        format!("request {} answered differently across repeats", s.index)
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    *errors.entry(error_kind(&e)).or_insert(0) += 1;
                }
            }
        }
        out.note(format!(
            "round {round}: setup {setup:.3} s, {} requests in {:.3} s, answer cache {} hits / {} misses / {} evictions",
            requests.len(),
            wall.as_secs_f64(),
            cache.hits,
            cache.misses,
            cache.evictions
        ));
        world_handle = Some(world);
        // Round 0 warms the process (first-touch page faults, allocator
        // growth); it is checked but not measured.
        if round == 0 {
            continue;
        }
        setup_s.push(setup);
        world_gen_s.push(world_gen);
        rate.push(latency_ms.len() as f64 / wall.as_secs_f64());
        p50_ms.push(median(&latency_ms));
        p99_ms.push(percentile(&latency_ms, 0.99));
        for (v, x) in counters.iter_mut().zip([
            cache.hits as f64,
            cache.misses as f64,
            cache.evictions as f64,
            report.batch.mean_batch(),
            report.serp_cache.hits as f64,
            report.serp_cache.misses as f64,
            report.serp_cache.evictions as f64,
            report.single_flight.waiters as f64,
        ]) {
            v.push(x);
        }
    }
    for (kind, n) in &errors {
        out.note(format!("failed with {kind}: {n}"));
    }

    out.set("setup_s", median(&setup_s));
    out.set("answers_per_s", median(&rate));
    out.set("p50_ms", median(&p50_ms));
    out.set("p99_ms", median(&p99_ms));
    out.note(format!(
        "serve: {measured} measured rounds of {REQUESTS} requests, {} distinct requests",
        served.len()
    ));

    // Output check: every distinct request served must equal the answer
    // of a second stack with no service in front and cold caches.
    let world = world_handle.expect("at least one round ran");
    let oracle = AnswerEngines::build(Arc::clone(&world));
    let probes: Vec<Probe> = served.keys().cloned().collect();
    let (answers, answer_us) = layers::answer_all(&oracle, &probes);
    let mismatches = probes
        .iter()
        .zip(&answers)
        .filter(|(p, answer)| served[*p] != fingerprint(answer))
        .count();
    out.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} distinct requests differ from the uncached stack",
            probes.len()
        )
    });
    drop(answers);

    if args.trace {
        out.set("corpus.world_gen_s", median(&world_gen_s));
        for (name, samples) in COUNTERS.iter().zip(&counters) {
            out.set(name, median(samples));
        }
        out.set("serve.hit_p50_ms", median(&hit_ms));
        out.set("serve.miss_p50_ms", median(&miss_ms));
        out.set("serve.miss_p99_ms", percentile(&miss_ms, 0.99));
        out.set("serve.handoff_p50_ms", median(&handoff_ms));
        layers::record_answers(&mut out, &answer_us);
        layers::replay(&world, &oracle, &probes, &mut out);
    }
    out
}
