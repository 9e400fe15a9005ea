//! Deterministic background merges.
//!
//! The policy is seeded: every "how many runs to merge" decision draws
//! from a SplitMix64 stream keyed by `(seed, decision counter)`. Which
//! runs merge is then a pure function of the stack: the adjacent window
//! of that width holding the fewest stored versions plus tombstones. A
//! replayed event sequence therefore reproduces the exact same merge
//! schedule — segment ids, windows, and contents — bit for bit. The
//! merge itself is one serial pass over its inputs' page-ordered claims.

use std::sync::Arc;

use shift_corpus::PageId;

use super::memtable::LiveDoc;
use super::segment::Segment;

/// Seeded merge-width policy: when the segment stack reaches the
/// trigger, `width ∈ [fanin_min, fanin_max]` adjacent runs merge, with
/// `width` drawn deterministically per decision and the window picked
/// by `cheapest_window`.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    fanin_min: usize,
    fanin_max: usize,
    seed: u64,
    decisions: u64,
}

impl CompactionPolicy {
    /// A policy drawing widths from `[fanin_min, fanin_max]` (both
    /// clamped to at least 2 — a 1-way "merge" would never shrink the
    /// stack) seeded by `seed`.
    pub fn new(fanin_min: usize, fanin_max: usize, seed: u64) -> CompactionPolicy {
        let fanin_min = fanin_min.max(2);
        CompactionPolicy {
            fanin_min,
            fanin_max: fanin_max.max(fanin_min),
            seed,
            decisions: 0,
        }
    }

    /// Draws the next merge width, capped at `available` runs. Returns
    /// `None` when fewer than 2 runs are available. Each call consumes
    /// one decision from the seeded stream whether or not it merges,
    /// keeping the schedule a pure function of the call sequence.
    pub fn next_width(&mut self, available: usize) -> Option<usize> {
        let draw = splitmix64(self.seed ^ self.decisions.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.decisions += 1;
        if available < 2 {
            return None;
        }
        let span = (self.fanin_max - self.fanin_min + 1) as u64;
        let width = self.fanin_min + (draw % span) as usize;
        Some(width.min(available))
    }

    /// Decisions drawn so far (part of the deterministic-counters
    /// surface the churn benchmark asserts on).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

/// SplitMix64: a single mixing step, enough to decorrelate the
/// decision counter from the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Start of the adjacent `width`-run window that is cheapest to merge:
/// the fewest stored versions plus tombstones, the newest window on
/// ties. Small, young runs merge among themselves; the large base run
/// is rewritten only when the runs above it have grown comparable.
pub(crate) fn cheapest_window(segments: &[Arc<Segment>], width: usize) -> usize {
    let cost = |start: usize| -> usize {
        segments[start..start + width]
            .iter()
            .map(|s| s.len() + s.tombstones().len())
            .sum()
    };
    // Newest window first: `min_by_key` keeps the first of equal keys.
    (0..=segments.len() - width)
        .rev()
        .min_by_key(|&start| cost(start))
        .expect("window fits in the stack")
}

/// Merges adjacent runs (given oldest first, as they sit in the stack)
/// into one fresh segment.
///
/// A page's surviving claim is the one in the newest input that
/// mentions it: a stored version or a tombstone. A winning tombstone is
/// kept when `older_runs_below` — runs older than the window remain
/// beneath it, and the tombstone must go on shadowing them. A prefix
/// merge has nothing below it and drops its tombstones.
pub(crate) fn merge_segments(id: u64, inputs: &[Arc<Segment>], older_runs_below: bool) -> Segment {
    let mut runs: Vec<Claims<'_>> = inputs
        .iter()
        .map(|s| Claims {
            docs: s.docs(),
            tombstones: s.tombstones(),
        })
        .collect();
    let mut docs = Vec::new();
    let mut tombstones = Vec::new();
    while let Some(page) = runs.iter().filter_map(Claims::peek).min() {
        // Newest run first: the first claim on `page` wins, the older
        // ones are shadowed and only skipped.
        let mut newest = true;
        for run in runs.iter_mut().rev() {
            if run.peek() != Some(page) {
                continue;
            }
            let version = run.take(page);
            if newest {
                match version {
                    Some(doc) => docs.push(doc.clone()),
                    None if older_runs_below => tombstones.push(PageId(page)),
                    None => {}
                }
                newest = false;
            }
        }
    }
    Segment::build(id, docs, tombstones)
}

/// One run's claims in ascending page order: its stored versions and
/// its tombstones, interleaved (a run never holds both for one page).
struct Claims<'a> {
    docs: &'a [LiveDoc],
    tombstones: &'a [PageId],
}

impl<'a> Claims<'a> {
    /// The next page this run claims.
    fn peek(&self) -> Option<u32> {
        let doc = self.docs.first().map(|d| d.page.0);
        let tombstone = self.tombstones.first().map(|t| t.0);
        match (doc, tombstone) {
            (Some(d), Some(t)) => Some(d.min(t)),
            (d, t) => d.or(t),
        }
    }

    /// Consumes the claim on `page`, the run's next page: its stored
    /// version, or `None` for a tombstone.
    fn take(&mut self, page: u32) -> Option<&'a LiveDoc> {
        match self.docs.split_first() {
            Some((doc, rest)) if doc.page.0 == page => {
                self.docs = rest;
                Some(doc)
            }
            _ => {
                self.tombstones = &self.tombstones[1..];
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_corpus::{PageId, SourceType};

    fn doc(id: u32, body: &str) -> LiveDoc {
        LiveDoc::new(
            PageId(id),
            format!("https://example.test/{id}"),
            "example.test".to_string(),
            0.4,
            5.0,
            SourceType::Earned,
            format!("Title {id}"),
            body.to_string(),
        )
    }

    #[test]
    fn policy_is_deterministic_and_bounded() {
        let mut a = CompactionPolicy::new(2, 4, 99);
        let mut b = CompactionPolicy::new(2, 4, 99);
        for avail in [5usize, 2, 8, 3, 7, 2, 6] {
            let wa = a.next_width(avail);
            assert_eq!(wa, b.next_width(avail));
            let w = wa.expect("2+ runs available");
            assert!((2..=4).contains(&w) && w <= avail, "width {w}");
        }
        assert_eq!(a.decisions(), 7);
        assert_eq!(a.next_width(1), None);
        assert_eq!(a.decisions(), 8, "a skipped decision still draws");
        let mut c = CompactionPolicy::new(2, 4, 100);
        let seq_a: Vec<_> = (0..16).map(|_| a.next_width(10)).collect();
        let seq_c: Vec<_> = (0..16).map(|_| c.next_width(10)).collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn merge_keeps_newest_version_and_applies_tombstones() {
        let old = Arc::new(Segment::build(
            0,
            vec![
                doc(1, "v1 of one"),
                doc(2, "v1 of two"),
                doc(3, "v1 of three"),
            ],
            Vec::new(),
        ));
        let mid = Arc::new(Segment::build(
            1,
            vec![doc(2, "v2 of two")],
            vec![PageId(3)],
        ));
        let new = Arc::new(Segment::build(
            2,
            vec![doc(4, "v1 of four")],
            vec![PageId(2)],
        ));
        let merged = merge_segments(9, &[old, mid, new], false);
        assert_eq!(merged.id(), 9);
        let pages: Vec<u32> = merged.docs().iter().map(|d| d.page.0).collect();
        assert_eq!(pages, [1, 4], "2 deleted by newest, 3 by mid");
        assert!(
            merged.tombstones().is_empty(),
            "prefix merge drops tombstones"
        );
        assert_eq!(merged.docs()[0].body, "v1 of one");
    }

    #[test]
    fn merge_is_pure_across_runs() {
        let a = Arc::new(Segment::build(
            0,
            (0..40).map(|i| doc(i, "body text here")).collect(),
            (40..45).map(PageId).collect(),
        ));
        let b = Arc::new(Segment::build(
            1,
            (20..50).map(|i| doc(i, "newer body text")).collect(),
            (0..5).map(PageId).collect(),
        ));
        let x = merge_segments(2, &[Arc::clone(&a), Arc::clone(&b)], true);
        let y = merge_segments(2, &[a, b], true);
        assert_eq!(x.len(), y.len());
        for (dx, dy) in x.docs().iter().zip(y.docs()) {
            assert_eq!(dx.page, dy.page);
            assert_eq!(dx.body, dy.body);
        }
        assert_eq!(x.tombstones(), y.tombstones());
        assert_eq!(x.store().vocabulary_size(), y.store().vocabulary_size());
    }

    #[test]
    fn window_merge_keeps_a_tombstone_that_is_the_newest_claim() {
        let older = Arc::new(Segment::build(
            3,
            vec![doc(1, "v2 of one"), doc(2, "v2 of two")],
            vec![PageId(7)],
        ));
        let newer = Arc::new(Segment::build(
            4,
            vec![doc(5, "v1 of five")],
            vec![PageId(2)],
        ));
        let merged = merge_segments(9, &[older, newer], true);
        let pages: Vec<u32> = merged.docs().iter().map(|d| d.page.0).collect();
        assert_eq!(pages, [1, 5]);
        assert_eq!(
            merged.tombstones(),
            &[PageId(2), PageId(7)],
            "both tombstones must go on shadowing the runs below"
        );
    }

    #[test]
    fn window_merge_drops_a_tombstone_a_newer_version_supersedes() {
        let older = Arc::new(Segment::build(
            3,
            vec![doc(1, "v2 of one")],
            vec![PageId(2)],
        ));
        let newer = Arc::new(Segment::build(4, vec![doc(2, "v3 of two")], Vec::new()));
        let merged = merge_segments(9, &[older, newer], true);
        assert!(
            merged.tombstones().is_empty(),
            "the resurrecting version wins"
        );
        let pages: Vec<u32> = merged.docs().iter().map(|d| d.page.0).collect();
        assert_eq!(pages, [1, 2]);
        assert_eq!(merged.docs()[1].body, "v3 of two");
    }

    #[test]
    fn prefix_merge_drops_every_tombstone() {
        let old = Arc::new(Segment::build(0, vec![doc(1, "v1")], vec![PageId(4)]));
        let mid = Arc::new(Segment::build(1, Vec::new(), vec![PageId(1), PageId(6)]));
        let new = Arc::new(Segment::build(2, vec![doc(6, "v2")], vec![PageId(9)]));
        let merged = merge_segments(9, &[old, mid, new], false);
        assert!(merged.tombstones().is_empty());
        let pages: Vec<u32> = merged.docs().iter().map(|d| d.page.0).collect();
        assert_eq!(pages, [6]);
    }

    #[test]
    fn cheapest_window_prefers_small_runs_and_the_newest_on_ties() {
        let run = |id: u64, docs: u32, tombstones: u32| {
            Arc::new(Segment::build(
                id,
                (0..docs).map(|i| doc(i, "body")).collect(),
                (docs..docs + tombstones).map(PageId).collect(),
            ))
        };
        let stack = [run(0, 40, 0), run(1, 3, 0), run(2, 1, 2), run(3, 2, 1)];
        assert_eq!(
            cheapest_window(&stack, 2),
            2,
            "3 + 3 ties 3 + 3; newest wins"
        );
        assert_eq!(cheapest_window(&stack, 3), 1);
        assert_eq!(cheapest_window(&stack, 4), 0);
        let base_small = [run(0, 1, 0), run(1, 5, 0), run(2, 5, 0)];
        assert_eq!(cheapest_window(&base_small, 2), 0);
    }
}
