//! Deterministic fault injection for the chaos test suite.
//!
//! A [`FaultPlan`] is a *seeded schedule* of failures: for every named
//! injection site it holds a firing probability (in per-mille) and a
//! per-site call counter. Whether the `n`-th arrival at a site faults is a
//! pure function of `(seed, site, n)` — the same seed always produces the
//! same per-site schedule, which is what makes a chaos run replayable. The
//! *interleaving* of requests onto those slots still depends on thread
//! scheduling, but the set of decisions each site will hand out is fixed
//! up front (see [`FaultPlan::schedule`]).
//!
//! The plan itself always compiles (so its determinism is covered by
//! tier-1 tests), but the serving layer only consults it when the crate is
//! built with the `chaos` feature — production builds carry no branch at
//! any injection site. Sites live in the request hot path:
//!
//! | Site                  | Effect when it fires                          |
//! |-----------------------|-----------------------------------------------|
//! | `PanicBeforeCompute`  | handler panics before running the engine       |
//! | `PanicAfterCompute`   | handler panics after the engine returned       |
//! | `ComputeDelay`        | artificial latency before the engine runs      |
//! | `DropCachePut`        | a cacheable response is silently not cached    |
//! | `EvictSessions`       | the session store is force-emptied (mid-page)  |
//! | `ResetMidWrite`       | the connection drops after a partial response  |
//! | `MemoInsertDropped`   | a transposition-table store is silently skipped |
//! | `SnapshotWriteTorn`   | a snapshot write stops halfway through its temp file |
//! | `ConnectionStall`     | the peer stops reading mid-response (writes freeze) |
//! | `PanicInProbe`        | the event loop's cache probe panics            |

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Named injection sites in the serving hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside the request handler before the engine runs.
    PanicBeforeCompute,
    /// Panic inside the request handler after the engine returned.
    PanicAfterCompute,
    /// Sleep [`FaultPlan::delay`] before running the engine.
    ComputeDelay,
    /// Skip the response-cache `put` for a cacheable answer.
    DropCachePut,
    /// Evict every live resumable session (simulates a full/flushed store).
    EvictSessions,
    /// Abort the connection after writing a partial response head.
    ResetMidWrite,
    /// Skip a transposition-table insert (the memo layer's analogue of
    /// [`FaultSite::DropCachePut`]: the subtree is recomputed, never
    /// answered wrong).
    MemoInsertDropped,
    /// Tear a snapshot write halfway through its temp file (a crash
    /// mid-write). The rename never happens, so the previous complete
    /// snapshot — or a cold start — is what a restart sees.
    SnapshotWriteTorn,
    /// The peer stops reading mid-response: the event loop freezes this
    /// connection's socket writes until the write-stall reaper fires,
    /// proving a stalled consumer never blocks the loop or a worker.
    ConnectionStall,
    /// Panic inside the loop-side probe of a buffered engine request,
    /// proving a probe panic answers 500 and the event loop keeps serving.
    PanicInProbe,
}

/// Every site, in counter-index order.
pub const SITES: [FaultSite; 10] = [
    FaultSite::PanicBeforeCompute,
    FaultSite::PanicAfterCompute,
    FaultSite::ComputeDelay,
    FaultSite::DropCachePut,
    FaultSite::EvictSessions,
    FaultSite::ResetMidWrite,
    FaultSite::MemoInsertDropped,
    FaultSite::SnapshotWriteTorn,
    FaultSite::ConnectionStall,
    FaultSite::PanicInProbe,
];

/// A seeded, per-site fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Firing probability per site, in per-mille (0 = never, 1000 = always).
    per_mille: [u16; SITES.len()],
    /// How many arrivals each site has seen.
    counters: [AtomicU64; SITES.len()],
    /// How long [`FaultSite::ComputeDelay`] stalls when it fires.
    pub delay: Duration,
}

impl FaultPlan {
    /// A plan under `seed` with every probability zero (arm sites with
    /// [`FaultPlan::with`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            per_mille: [0; SITES.len()],
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            delay: Duration::from_millis(20),
        }
    }

    /// The disarmed plan: no site ever fires.
    pub fn disabled() -> FaultPlan {
        FaultPlan::new(0)
    }

    /// Arms `site` with a firing probability of `per_mille`/1000.
    pub fn with(mut self, site: FaultSite, per_mille: u16) -> FaultPlan {
        self.per_mille[site as usize] = per_mille.min(1000);
        self
    }

    /// Sets the artificial latency injected by [`FaultSite::ComputeDelay`].
    pub fn with_delay(mut self, delay: Duration) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// Whether the `n`-th arrival at `site` faults — pure in
    /// `(seed, site, n)`.
    fn decide(&self, site: FaultSite, n: u64) -> bool {
        let p = self.per_mille[site as usize];
        if p == 0 {
            return false;
        }
        let mixed = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((site as u64 + 1) << 48)
                .wrapping_add(n),
        );
        (mixed % 1000) < u64::from(p)
    }

    /// Consumes the next slot at `site` and reports whether it faults.
    /// Each call advances that site's counter by one.
    pub fn fires(&self, site: FaultSite) -> bool {
        let n = self.counters[site as usize].fetch_add(1, Ordering::Relaxed);
        self.decide(site, n)
    }

    /// The first `upto` decisions `site` will hand out, without consuming
    /// them — the replayable schedule a chaos run executes against.
    pub fn schedule(&self, site: FaultSite, upto: u64) -> Vec<bool> {
        (0..upto).map(|n| self.decide(site, n)).collect()
    }

    /// How many arrivals `site` has consumed so far.
    pub fn arrivals(&self, site: FaultSite) -> u64 {
        self.counters[site as usize].load(Ordering::Relaxed)
    }
}

/// SplitMix64: the standard 64-bit finalizer-style mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(42).with(FaultSite::PanicBeforeCompute, 250);
        let b = FaultPlan::new(42).with(FaultSite::PanicBeforeCompute, 250);
        assert_eq!(
            a.schedule(FaultSite::PanicBeforeCompute, 500),
            b.schedule(FaultSite::PanicBeforeCompute, 500),
        );
        // Consuming slots does not perturb the schedule.
        for _ in 0..100 {
            a.fires(FaultSite::PanicBeforeCompute);
        }
        assert_eq!(
            a.schedule(FaultSite::PanicBeforeCompute, 500),
            b.schedule(FaultSite::PanicBeforeCompute, 500),
        );
    }

    #[test]
    fn different_seeds_differ_and_sites_are_independent() {
        let a = FaultPlan::new(1)
            .with(FaultSite::DropCachePut, 500)
            .with(FaultSite::EvictSessions, 500);
        let b = FaultPlan::new(2)
            .with(FaultSite::DropCachePut, 500)
            .with(FaultSite::EvictSessions, 500);
        assert_ne!(
            a.schedule(FaultSite::DropCachePut, 256),
            b.schedule(FaultSite::DropCachePut, 256),
            "distinct seeds must give distinct schedules"
        );
        assert_ne!(
            a.schedule(FaultSite::DropCachePut, 256),
            a.schedule(FaultSite::EvictSessions, 256),
            "sites under one seed draw independent schedules"
        );
    }

    #[test]
    fn probability_bounds_are_exact() {
        let never = FaultPlan::new(7);
        let always = FaultPlan::new(7).with(FaultSite::ComputeDelay, 1000);
        for _ in 0..200 {
            assert!(!never.fires(FaultSite::ComputeDelay));
            assert!(always.fires(FaultSite::ComputeDelay));
        }
        assert_eq!(never.arrivals(FaultSite::ComputeDelay), 200);
    }

    #[test]
    fn firing_rate_tracks_the_probability() {
        let plan = FaultPlan::new(99).with(FaultSite::ResetMidWrite, 300);
        let fired = plan
            .schedule(FaultSite::ResetMidWrite, 10_000)
            .iter()
            .filter(|f| **f)
            .count();
        assert!(
            (2_600..=3_400).contains(&fired),
            "~30% of 10k slots should fire, got {fired}"
        );
    }
}
