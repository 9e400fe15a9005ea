//! End-to-end benchmark of the whole program, split by layer.
//!
//! ```sh
//! shift-e2ebench --workload <study_paper|serve_zipf|live_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process (so peak RSS and
//! allocator state belong to that workload): one warm-up round, then a
//! number of measured rounds sized from `--seconds`, each a whole pass
//! of the workload's fixed operation sequence. It checks every round's
//! outputs against results computed apart from the code under test, and
//! prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set ([`E2E`]); with `--trace 1` the
//! per-layer set ([`LAYERS`]), measured by timing calls into each
//! module's public functions from this crate. A layer a workload never
//! reaches reads 0 in that workload.

mod layers;
mod live;
mod serve;
mod stats;
mod study;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answers_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Per-layer metrics, measured by the traced run: `(name, unit)`.
pub const LAYERS: &[(&str, &str)] = &[
    ("corpus.world_gen_s", "s"),
    ("corpus.timeline_gen_s", "s"),
    ("search.index_build_s", "s"),
    ("search.index_heap_mb", "MB"),
    ("search.retrieval_p50_us", "us"),
    ("search.retrieval_p99_us", "us"),
    ("search.docs_scored", "count"),
    ("search.candidates_pruned", "count"),
    ("llm.pretrain_s", "s"),
    ("llm.rank_p50_us", "us"),
    ("engines.answer_p50_us", "us"),
    ("engines.answer_p99_us", "us"),
    ("engines.snippets_p50_us", "us"),
    ("engines.serp_cache_hits", "count"),
    ("engines.serp_cache_misses", "count"),
    ("engines.serp_cache_evictions", "count"),
    ("engines.single_flight_waiters", "count"),
    ("serve.answer_cache_hits", "count"),
    ("serve.answer_cache_misses", "count"),
    ("serve.answer_cache_evictions", "count"),
    ("serve.batch_mean_jobs", "jobs"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.handoff_p50_ms", "ms"),
    ("core.study_s", "s"),
    ("core.fig1_s", "s"),
    ("core.fig2_s", "s"),
    ("core.fig3_s", "s"),
    ("core.fig4_s", "s"),
    ("core.tab1_s", "s"),
    ("core.tab2_s", "s"),
    ("core.tab3_s", "s"),
    ("live.ingest_eps", "1/s"),
    ("live.merge_write_s", "s"),
    ("live.flush_write_s", "s"),
    ("live.plain_write_s", "s"),
    ("live.max_write_stall_ms", "ms"),
    ("live.flushes", "count"),
    ("live.compactions", "count"),
    ("live.segments_merged", "count"),
    ("live.write_amp", "ratio"),
    ("live.wal_bytes_per_event", "B"),
    ("live.snapshot_p50_ms", "ms"),
    ("live.segments_mean", "count"),
    ("live.read_amp_mean", "ratio"),
];

/// Command-line arguments every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Intended run length; sets the number of measured rounds.
    pub seconds: Duration,
    /// Run the traced variant (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// Measured rounds for a workload whose round lasts about `round_s`
    /// on the reference host: enough to fill `--seconds`, and at least
    /// [`MIN_MEASURED_ROUNDS`]. Every run of a workload with the same
    /// `--seconds` does the same number of rounds, so runs differ only
    /// in their seed.
    pub fn measured_rounds(&self, round_s: f64) -> usize {
        ((self.seconds.as_secs_f64() / round_s).round() as usize).max(MIN_MEASURED_ROUNDS)
    }
}

/// Fewest measured rounds a run makes, whatever `--seconds` says: the
/// medians need at least three values.
pub const MIN_MEASURED_ROUNDS: usize = 3;

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted across all rounds.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output-check failures (each a human-readable reason).
    pub check_failures: Vec<String>,
    /// Metric values by name; the set printed depends on `--trace`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds a human-readable line to the run's log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "study_paper" => study::run(&args),
        "serve_zipf" => serve::run(&args),
        "live_churn" => live::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    for line in &outcome.notes {
        println!("{line}");
    }
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "{workload}: attempted {} operations, failed {}",
        outcome.attempted, outcome.failed
    );
    if args.trace {
        // The traced run measures the end-to-end set too; its distance
        // from an untraced run of the same seed is the tracing overhead.
        for &(name, unit) in E2E {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            println!("  traced {name:<23} {value:>14.4} {unit}");
        }
    }
    let names = if args.trace { LAYERS } else { E2E };
    let mut json = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("  {name:<30} {value:>14.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
