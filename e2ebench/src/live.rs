//! `live_churn`: writes beside reads on the live index.
//!
//! A round sets up a 4× paper-scale world and its seeded corpus
//! timeline (`TimelineConfig::standard`; `--seed` picks the churn and
//! the queries), then one thread replays the timeline into a fresh
//! `LiveIndex` built with `LiveIndexConfig::standard`. After every
//! [`SNAPSHOT_EVERY`] events, and after the last one, it publishes a
//! snapshot (`LiveIndex::snapshot`, then `LiveSearcher::new`) and runs
//! [`QUERIES_PER_SNAPSHOT`] ranking queries against it. No reader races
//! the writer and nothing runs on a timer, so every round does the same
//! work in the same order.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use navigating_shift::corpus::{EventKind, PageId, Timeline, TimelineConfig, World, WorldConfig};
use navigating_shift::queries::ranking_queries;
use navigating_shift::search::live::{LiveDoc, LiveIndex, LiveIndexConfig, LiveSearcher};
use navigating_shift::search::{LiveIndexStats, QueryScratch, RankingParams, SearchEngine, Serp};

use crate::stats::{self, mean, median, mib, ms, percentile};
use crate::{Args, Outcome};

/// The world's seed (the committed EXPERIMENTS.md seed).
const WORLD_SEED: u64 = 20251101;
/// World volume multiplier over the paper scale: large enough that a
/// replay lasts seconds.
const WORLD_SCALE: usize = 4;
/// Seed of the compaction policy's fan-in draws.
const LIVE_SEED: u64 = 99;
/// Events applied between snapshot publications.
const SNAPSHOT_EVERY: usize = 240;
/// Queries run against each published snapshot.
const QUERIES_PER_SNAPSHOT: usize = 50;
/// Distinct ranking queries the reads cycle through: about one read per
/// query per round, so the read mix varies little between seeds.
const QUERY_POOL: usize = 1000;
/// SERP depth of every read.
const TOP_K: usize = 10;
/// Snapshots (as fractions of the way through the replay) whose SERPs
/// are checked against a batch index over the same live page set.
const CHECK_AT: [f64; 3] = [1.0 / 3.0, 2.0 / 3.0, 1.0];
/// Length of one round (set-up plus the replay) on the 2-CPU reference
/// host.
const ROUND_S: f64 = 4.0;

enum Op {
    Upsert(LiveDoc),
    Delete(PageId),
}

/// A SERP as the check compares it: URL and score bits per result.
type Digest = Vec<(String, u64)>;

fn digest(serp: &Serp) -> Digest {
    serp.results
        .iter()
        .map(|r| (r.url.clone(), r.score.to_bits()))
        .collect()
}

/// Per-write tracing: time split by what the write did, the longest
/// stall, and the documents flushes and merges wrote.
#[derive(Default)]
struct WriteTrace {
    merge: Duration,
    flush: Duration,
    plain: Duration,
    max_stall: Duration,
    docs_written: u64,
    stack_before: Vec<u64>,
}

impl WriteTrace {
    fn apply(&mut self, index: &mut LiveIndex, op: Op) {
        self.stack_before.clear();
        self.stack_before
            .extend(index.segments().iter().map(|s| s.id()));
        let before = index.counters();
        let t = Instant::now();
        apply(index, op);
        let took = t.elapsed();
        let after = index.counters();
        self.max_stall = self.max_stall.max(took);
        if after.compactions > before.compactions {
            self.merge += took;
        } else if after.flushes > before.flushes {
            self.flush += took;
        } else {
            self.plain += took;
        }
        if after.flushes > before.flushes {
            self.docs_written += index
                .segments()
                .iter()
                .filter(|s| !self.stack_before.contains(&s.id()))
                .map(|s| s.len() as u64)
                .sum::<u64>();
        }
    }
}

fn apply(index: &mut LiveIndex, op: Op) {
    match op {
        Op::Upsert(doc) => index.upsert(doc),
        Op::Delete(page) => index.delete(page),
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    /// Events replayed.
    events: usize,
    /// Wall time of the whole replay, reads included.
    wall: Duration,
    /// Time in writes and snapshot publication.
    write: Duration,
    publish_ms: Vec<f64>,
    query_ms: Vec<f64>,
    segments: Vec<f64>,
    read_amp: Vec<f64>,
    /// Digests of the reads at each checked snapshot: (events applied,
    /// query, SERP).
    checked: Vec<(usize, String, Digest)>,
}

/// Replays `timeline` into a fresh index, publishing and querying after
/// every [`SNAPSHOT_EVERY`] events.
fn replay(
    world: &World,
    timeline: &Timeline,
    queries: &[String],
    mut trace: Option<&mut WriteTrace>,
    scratch: &mut QueryScratch,
    out: &mut Outcome,
) -> Round {
    let ops: Vec<Op> = timeline
        .events()
        .iter()
        .map(|e| match e.kind {
            EventKind::Delete => Op::Delete(e.page.id),
            EventKind::Publish | EventKind::Update => {
                Op::Upsert(LiveDoc::from_page(world, &e.page))
            }
        })
        .collect();
    let events = ops.len();
    let snapshots = events.div_ceil(SNAPSHOT_EVERY);
    let check_at: Vec<usize> = CHECK_AT
        .iter()
        .map(|f| ((snapshots as f64 * f).ceil() as usize).clamp(1, snapshots) - 1)
        .collect();
    let params = RankingParams::google();
    let mut index = LiveIndex::new(LiveIndexConfig::standard(LIVE_SEED));
    let mut round = Round {
        events,
        ..Round::default()
    };
    let mut ops = ops.into_iter();
    let mut applied = 0usize;
    let mut next_query = 0usize;

    let start = Instant::now();
    for snapshot in 0..snapshots {
        let chunk = SNAPSHOT_EVERY.min(events - applied);
        let t = Instant::now();
        for op in ops.by_ref().take(chunk) {
            match trace.as_deref_mut() {
                Some(tr) => tr.apply(&mut index, op),
                None => apply(&mut index, op),
            }
        }
        applied += chunk;
        let t_publish = Instant::now();
        let searcher = LiveSearcher::new(Arc::new(index.snapshot()), params.clone());
        let published = Instant::now();
        round.write += published - t;
        round.publish_ms.push(ms(published - t_publish));
        let snap = searcher.snapshot();
        round.segments.push(snap.segment_count() as f64);
        round
            .read_amp
            .push(snap.stored_docs() as f64 / f64::from(snap.doc_count().max(1)));
        let keep = check_at.contains(&snapshot);
        for _ in 0..QUERIES_PER_SNAPSHOT {
            let query = &queries[next_query % queries.len()];
            next_query += 1;
            let t = Instant::now();
            let serp = searcher.search_with(scratch, query, TOP_K);
            round.query_ms.push(ms(t.elapsed()));
            if keep {
                round.checked.push((applied, query.clone(), digest(&serp)));
            }
        }
    }
    round.wall = start.elapsed();
    out.attempted += (events + snapshots + snapshots * QUERIES_PER_SNAPSHOT) as u64;

    // Accounting: every replayed event was applied, deletes included.
    let counters = index.counters();
    let deletes = timeline
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Delete)
        .count() as u64;
    out.check(counters.applied == events as u64, || {
        format!("applied {} of {events} events", counters.applied)
    });
    out.check(counters.deletes == deletes, || {
        format!(
            "applied {} deletes, timeline has {deletes}",
            counters.deletes
        )
    });
    if let Some(tr) = trace {
        out.set("live.flushes", counters.flushes as f64);
        out.set("live.compactions", counters.compactions as f64);
        out.set("live.segments_merged", counters.segments_merged as f64);
        out.set(
            "live.write_amp",
            tr.docs_written as f64 / counters.upserts.max(1) as f64,
        );
        out.set(
            "live.wal_bytes_per_event",
            index.wal().len() as f64 / events as f64,
        );
        out.set("search.index_heap_mb", {
            let stats = LiveIndexStats::rollup(
                &LiveSearcher::new(Arc::new(index.snapshot()), params).segment_stats(),
            );
            mib(stats.postings_bytes
                + stats.positions_bytes
                + stats.block_bytes
                + stats.dict_bytes
                + stats.impact_bytes)
        });
    }
    round
}

/// Checks the kept reads against a batch `SearchEngine::build` over
/// `Timeline::world_at` at the same cut: URL for URL, in score bits.
fn check_against_batch(
    world: &World,
    timeline: &Timeline,
    checked: &[(usize, String, Digest)],
    out: &mut Outcome,
) {
    let mut by_cut: BTreeMap<usize, Vec<(&String, &Digest)>> = BTreeMap::new();
    for (cut, query, serp) in checked {
        by_cut.entry(*cut).or_default().push((query, serp));
    }
    for (cut, reads) in by_cut {
        let oracle = SearchEngine::build(&timeline.world_at(world, cut), RankingParams::google());
        for (query, live) in reads {
            let batch = digest(&oracle.search(query, TOP_K));
            out.check(&batch == live, || {
                format!("cut {cut}: live SERP for {query:?} differs from the batch index")
            });
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let config = WorldConfig::scaled(WORLD_SCALE);
    let mut setup_s = Vec::new();
    let (mut world_gen_s, mut timeline_gen_s) = (Vec::new(), Vec::new());
    let mut rounds_seen: Vec<Round> = Vec::new();
    let mut traces: Vec<WriteTrace> = Vec::new();
    let mut first_checked: Option<Vec<(usize, String, Digest)>> = None;
    let mut scratch = QueryScratch::new();
    // Kernel counters per round: documents scored, candidates pruned.
    let mut kernel = [Vec::new(), Vec::new()];

    let measured = args.measured_rounds(ROUND_S);
    for round_no in 0..=measured {
        let t = Instant::now();
        let world = World::generate(&config, WORLD_SEED);
        let t_world = t.elapsed();
        let timeline = Timeline::generate(&world, &TimelineConfig::standard(), args.seed);
        let t_setup = t.elapsed();

        let queries: Vec<String> = ranking_queries(&world, QUERY_POOL, args.seed ^ 0x4c49_5645)
            .into_iter()
            .map(|q| q.text)
            .collect();
        let mut trace = args.trace.then(WriteTrace::default);
        let mut round = replay(
            &world,
            &timeline,
            &queries,
            trace.as_mut(),
            &mut scratch,
            &mut out,
        );
        if round_no == 0 {
            out.set("peak_rss_mb", stats::peak_rss_mb());
        }
        let kernel_stats = scratch.take_stats();
        match &first_checked {
            None => check_against_batch(&world, &timeline, &round.checked, &mut out),
            Some(first) => out.check(first == &round.checked, || {
                format!("round {round_no}: checked SERPs differ from round 0")
            }),
        }
        out.note(format!(
            "round {round_no}: setup {:.3} s, {} events + {} snapshots + {} queries in {:.3} s",
            t_setup.as_secs_f64(),
            timeline.len(),
            round.publish_ms.len(),
            round.query_ms.len(),
            round.wall.as_secs_f64()
        ));
        first_checked.get_or_insert_with(|| std::mem::take(&mut round.checked));
        // Round 0 warms the process (first-touch page faults, allocator
        // growth); it is checked but not measured.
        if round_no == 0 {
            continue;
        }
        setup_s.push(t_setup.as_secs_f64());
        world_gen_s.push(t_world.as_secs_f64());
        timeline_gen_s.push((t_setup - t_world).as_secs_f64());
        kernel[0].push(kernel_stats.docs_scored as f64);
        kernel[1].push(kernel_stats.candidates_pruned as f64);
        rounds_seen.push(round);
        traces.extend(trace);
    }

    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&rounds_seen.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(&setup_s));
    out.set(
        "answers_per_s",
        per_round(&|r| r.query_ms.len() as f64 / r.wall.as_secs_f64()),
    );
    out.set("p50_ms", per_round(&|r| median(&r.query_ms)));
    out.set("p99_ms", per_round(&|r| percentile(&r.query_ms, 0.99)));
    out.note(format!(
        "live: {measured} measured rounds of {} queries",
        rounds_seen[0].query_ms.len()
    ));

    if args.trace {
        out.set("corpus.world_gen_s", median(&world_gen_s));
        out.set("corpus.timeline_gen_s", median(&timeline_gen_s));
        out.set(
            "search.retrieval_p50_us",
            per_round(&|r| median(&r.query_ms) * 1e3),
        );
        out.set(
            "search.retrieval_p99_us",
            per_round(&|r| percentile(&r.query_ms, 0.99) * 1e3),
        );
        out.set("search.docs_scored", median(&kernel[0]));
        out.set("search.candidates_pruned", median(&kernel[1]));
        let secs = |f: fn(&WriteTrace) -> Duration| {
            median(
                &traces
                    .iter()
                    .map(|t| f(t).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        out.set("live.merge_write_s", secs(|t| t.merge));
        out.set("live.flush_write_s", secs(|t| t.flush));
        out.set("live.plain_write_s", secs(|t| t.plain));
        out.set(
            "live.max_write_stall_ms",
            median(&traces.iter().map(|t| ms(t.max_stall)).collect::<Vec<_>>()),
        );
        out.set(
            "live.snapshot_p50_ms",
            per_round(&|r| median(&r.publish_ms)),
        );
        out.set("live.segments_mean", per_round(&|r| mean(&r.segments)));
        out.set("live.read_amp_mean", per_round(&|r| mean(&r.read_amp)));
        out.set(
            "live.ingest_eps",
            per_round(&|r| r.events as f64 / r.write.as_secs_f64()),
        );
    }
    out
}
