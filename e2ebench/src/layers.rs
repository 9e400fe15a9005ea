//! Layer replays for the traced runs of `study_paper` and `serve_zipf`.
//!
//! Retrieval, snippet extraction and LLM ranking happen inside
//! `AnswerEngines::answer`, where the benchmark cannot time them. The
//! traced run therefore replays the workload's own answer requests
//! through the same public functions, one layer at a time: the index
//! build, the LLM pre-training, `SearchEngine::search_with` at each
//! persona's ranking parameters, `AnswerEngines::snippets_from_serp` and
//! `Llm::rank_entities`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use navigating_shift::corpus::{EntityId, World};
use navigating_shift::engines::{AnswerEngines, EngineAnswer, EngineKind};
use navigating_shift::llm::{GroundingMode, Llm, LlmConfig, Snippet};
use navigating_shift::search::{QueryScratch, RankingParams, SearchEngine, SearchIndex};

use crate::stats::{median, mib, percentile, us};
use crate::Outcome;

/// One answer request: the inputs of `AnswerEngines::answer`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Probe {
    /// Engine asked.
    pub kind: EngineKind,
    /// Query text.
    pub query: String,
    /// Answer depth.
    pub k: usize,
    /// Decode seed.
    pub seed: u64,
}

/// Answers every probe on `stack` with one scratch, timing each call;
/// returns the answers and their latencies in microseconds.
pub fn answer_all(stack: &AnswerEngines, probes: &[Probe]) -> (Vec<EngineAnswer>, Vec<f64>) {
    let mut scratch = QueryScratch::new();
    let mut answers = Vec::with_capacity(probes.len());
    let mut latency_us = Vec::with_capacity(probes.len());
    for p in probes {
        let t = Instant::now();
        let answer = stack.answer_with(&mut scratch, p.kind, &p.query, p.k, p.seed);
        latency_us.push(us(t.elapsed()));
        answers.push(answer);
    }
    (answers, latency_us)
}

/// Records the answer-latency layer metrics.
pub fn record_answers(out: &mut Outcome, latency_us: &[f64]) {
    out.set("engines.answer_p50_us", median(latency_us));
    out.set("engines.answer_p99_us", percentile(latency_us, 0.99));
}

/// The retrieval a probe's answer runs: Google's organic parameters at
/// depth `k` for Google, Google's parameters at the persona's pool size
/// for Gemini (which grounds through Google), and the persona's own
/// retrieval parameters at its pool size for the other engines.
fn retrieval(stack: &AnswerEngines, probe: &Probe) -> (RankingParams, usize) {
    match probe.kind {
        EngineKind::Google => (RankingParams::google(), probe.k),
        EngineKind::Gemini => (RankingParams::google(), stack.persona(probe.kind).pool_size),
        kind => {
            let persona = stack.persona(kind);
            (persona.retrieval.clone(), persona.pool_size)
        }
    }
}

/// The entities a generative answer asks the model to rank: those the
/// evidence names, restricted to the evidence's modal topic (ties to the
/// lower topic id) — the candidate set `AnswerEngines` builds before it
/// calls `Llm::rank_entities`.
fn rank_candidates(world: &World, snippets: &[Snippet]) -> Vec<EntityId> {
    let mut candidates: Vec<EntityId> = snippets
        .iter()
        .flat_map(|s| s.entities.iter().map(|(e, _)| *e))
        .collect();
    candidates.sort();
    candidates.dedup();
    let mut topic_mass = BTreeMap::new();
    for e in &candidates {
        *topic_mass.entry(world.entity(*e).topic).or_insert(0usize) += 1;
    }
    if let Some((&modal, _)) = topic_mass
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
    {
        candidates.retain(|e| world.entity(*e).topic == modal);
    }
    candidates
}

/// Replays the build-time layers over `world` and the per-request
/// layers over `probes`, recording their metrics. `stack` supplies the
/// personas and snippet extraction; its caches are not touched.
pub fn replay(world: &Arc<World>, stack: &AnswerEngines, probes: &[Probe], out: &mut Outcome) {
    let t = Instant::now();
    let index = Arc::new(SearchIndex::build(world));
    out.set("search.index_build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let llm = Llm::pretrain(world, LlmConfig::default());
    out.set("llm.pretrain_s", t.elapsed().as_secs_f64());

    let mut engines: BTreeMap<EngineKind, SearchEngine> = BTreeMap::new();
    let mut scratch = QueryScratch::new();
    let (mut retrieval_us, mut snippets_us, mut rank_us) = (Vec::new(), Vec::new(), Vec::new());
    for probe in probes {
        let (params, depth) = retrieval(stack, probe);
        let engine = engines
            .entry(probe.kind)
            .or_insert_with(|| SearchEngine::with_index(Arc::clone(&index), params));
        let t = Instant::now();
        let serp = engine.search_with(&mut scratch, &probe.query, depth);
        retrieval_us.push(us(t.elapsed()));

        let t = Instant::now();
        let snippets = stack.snippets_from_serp(&serp);
        snippets_us.push(us(t.elapsed()));

        if probe.kind != EngineKind::Google {
            let candidates = rank_candidates(world, &snippets);
            if !candidates.is_empty() {
                let t = Instant::now();
                let ranked =
                    llm.rank_entities(&candidates, &snippets, GroundingMode::Normal, probe.seed);
                rank_us.push(us(t.elapsed()));
                std::hint::black_box(ranked);
            }
        }
    }
    let kernel = scratch.take_stats();
    out.set("search.retrieval_p50_us", median(&retrieval_us));
    out.set("search.retrieval_p99_us", percentile(&retrieval_us, 0.99));
    out.set("search.docs_scored", kernel.docs_scored as f64);
    out.set("search.candidates_pruned", kernel.candidates_pruned as f64);
    out.set(
        "search.index_heap_mb",
        mib(index.stats().estimated_heap_bytes),
    );
    out.set("engines.snippets_p50_us", median(&snippets_us));
    out.set("llm.rank_p50_us", median(&rank_us));
    out.note(format!(
        "replay: {} retrievals, {} snippet extractions, {} LLM rankings",
        retrieval_us.len(),
        snippets_us.len(),
        rank_us.len()
    ));
}
