//! Differential harness: warm-basis OLA against the cold-resolve
//! oracle.
//!
//! The warm machinery (persistent `ProbeCache` re-solves, chained basis
//! carry, margin-gated infeasibility verdicts) is a *pure perf change*:
//! every feasibility verdict it serves must agree with a from-scratch
//! solve, so allocations and completions are required to be
//! **bit-identical** to [`OfflineAdapt::cold_oracle`] — across seeded
//! traces, every fault intensity, and snapshot/restore interruption at
//! every k-th event. The same holds with the re-solve throttle on
//! (`min_resolve_interval`), whose cached plan must also survive a
//! snapshot/restore unchanged.
//!
//! Snapshot semantics under test: the warm basis and probe cache are
//! deliberately **not** serialized by `dlflow-snapshot v1` — they are
//! pure pivot-order hints, safe to drop and rebuild after a restore.
//! The interrupted runs here restore into *fresh* policy instances
//! (empty caches) and must still reproduce the uninterrupted cold
//! oracle bit for bit; any verdict leaking out of a stale basis would
//! surface as a diverging completion float.

mod common;

use common::{completions_of, load, run_interrupted, traced};
use dlflow_sim::engine::{OnlineScheduler, ResolveStats};
use dlflow_sim::schedulers::offline_adapt::ResolveMode;
use dlflow_sim::schedulers::{OfflineAdapt, OlaLite};
use dlflow_sim::workload::Trace;
use proptest::prelude::*;

/// Uninterrupted run, returning completions and resolve telemetry.
fn run_straight(trace: &Trace, policy: &mut OfflineAdapt) -> (Vec<(usize, u64)>, ResolveStats) {
    policy.reset();
    let mut eng = load(trace);
    eng.drain(policy).unwrap();
    let stats = OnlineScheduler::resolve_stats(policy).unwrap();
    (completions_of(&mut eng), stats)
}

/// Throttled policy (re-solve at most once per `tau`) in `mode`.
fn throttled(tau: f64, mode: ResolveMode) -> OfflineAdapt {
    let mut policy = OfflineAdapt::with_throttle(tau);
    policy.resolve_mode = mode;
    policy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Warm-path OLA is bit-identical to the cold-resolve oracle across
    /// seeds and fault intensities — and pays for exactly as many LP
    /// solves in total (the warm path changes *who* answers a probe,
    /// never *how many* probes the bisection asks).
    #[test]
    fn warm_ola_is_bit_identical_to_cold_oracle(
        seed in 0u64..20_000,
        n in 4usize..12,
        intensity in 0u8..3,
    ) {
        let trace = traced(seed, n, intensity);
        let (cold_done, cold_stats) =
            run_straight(&trace, &mut OfflineAdapt::cold_oracle());
        let (warm_done, warm_stats) =
            run_straight(&trace, &mut OfflineAdapt::new());
        prop_assert_eq!(cold_done.len(), n);
        prop_assert_eq!(&warm_done, &cold_done);
        prop_assert_eq!(warm_stats.lp_solves(), cold_stats.lp_solves());
        prop_assert_eq!(warm_stats.n_resolves, cold_stats.n_resolves);
        // The oracle never serves a probe warm, by construction.
        prop_assert_eq!(cold_stats.warm_lp_solves, 0);
        prop_assert_eq!(cold_stats.warm_resolves, 0);
    }

    /// Dropping the warm basis mid-run is safe: interrupting the warm
    /// policy at every k-th event (snapshot → fresh instance → restore)
    /// still reproduces the uninterrupted **cold oracle** bit for bit.
    #[test]
    fn interrupted_warm_run_matches_uninterrupted_cold_oracle(
        seed in 0u64..20_000,
        n in 4usize..10,
        every in 1usize..5,
        intensity in 0u8..3,
    ) {
        let trace = traced(seed, n, intensity);
        let (reference, _) =
            run_straight(&trace, &mut OfflineAdapt::cold_oracle());
        let (interrupted, _) = run_interrupted(&trace, every, OfflineAdapt::new);
        prop_assert_eq!(&interrupted, &reference);
    }

    /// The throttle's plan reuse is verdict-neutral too: a warm
    /// throttled policy replays the cold throttled oracle bit for bit,
    /// for a window shorter than most inter-event gaps and one spanning
    /// many events.
    #[test]
    fn throttled_warm_ola_is_bit_identical_to_cold_oracle(
        seed in 0u64..20_000,
        n in 4usize..12,
        intensity in 0u8..3,
        long in 0u8..2,
    ) {
        let tau = if long == 1 { 5.0 } else { 0.5 };
        let trace = traced(seed, n, intensity);
        let (cold_done, cold_stats) =
            run_straight(&trace, &mut throttled(tau, ResolveMode::ColdOracle));
        let (warm_done, warm_stats) =
            run_straight(&trace, &mut throttled(tau, ResolveMode::WarmIncremental));
        prop_assert_eq!(cold_done.len(), n);
        prop_assert_eq!(&warm_done, &cold_done);
        prop_assert_eq!(warm_stats.n_resolves, cold_stats.n_resolves);
        prop_assert_eq!(warm_stats.lp_solves(), cold_stats.lp_solves());
    }

    /// The throttle's cached plan (`solved_at`, `known`, `alloc`) round-
    /// trips through the snapshot: a throttled run restored at every
    /// k-th event matches the uninterrupted one bit for bit.
    #[test]
    fn interrupted_throttled_run_matches_uninterrupted(
        seed in 0u64..20_000,
        n in 4usize..10,
        every in 1usize..5,
        intensity in 0u8..3,
        long in 0u8..2,
    ) {
        let tau = if long == 1 { 5.0 } else { 0.5 };
        let trace = traced(seed, n, intensity);
        let (reference, _) = run_straight(&trace, &mut OfflineAdapt::with_throttle(tau));
        let (interrupted, _) =
            run_interrupted(&trace, every, || OfflineAdapt::with_throttle(tau));
        prop_assert_eq!(&interrupted, &reference);
    }

    /// OLA-lite is deterministic (same trace → bit-identical replay)
    /// and survives every fault intensity, for walk factors besides the
    /// default.
    #[test]
    fn ola_lite_is_deterministic_across_intensities(
        seed in 0u64..20_000,
        n in 4usize..12,
        intensity in 0u8..3,
        tight in 0u8..2,
    ) {
        let alpha = if tight == 1 { 1.5 } else { 3.0 };
        let trace = traced(seed, n, intensity);
        let mut a = OlaLite::with_alpha(alpha);
        let mut b = OlaLite::with_alpha(alpha);
        let sa = trace.replay(&mut a).unwrap();
        let sb = trace.replay(&mut b).unwrap();
        prop_assert_eq!(sa.n_jobs, n);
        prop_assert_eq!(sa.n_events, sb.n_events);
        prop_assert_eq!(
            sa.metrics.max_stretch.to_bits(),
            sb.metrics.max_stretch.to_bits()
        );
        prop_assert!(sa.metrics.makespan.is_finite());
    }
}

/// The differential above must not pass vacuously: on a dense trace the
/// eager-warm policy actually engages its warm machinery, and the mean
/// resolve cost it reports is a real bisection (≫ 1 LP per re-plan).
#[test]
fn warm_engagement_is_not_vacuous() {
    let trace = traced(7, 60, 0);
    let (_, warm) = run_straight(&trace, &mut OfflineAdapt::new());
    assert!(
        warm.warm_lp_solves > 0,
        "eager-warm OLA never served a probe warm: {warm:?}"
    );
    assert!(
        warm.warm_resolves > warm.cold_resolves,
        "warm engagement should dominate events on a fault-free trace: {warm:?}"
    );
    assert!(
        warm.mean_lp_solves_per_resolve() > 1.0,
        "resolve cost collapsed: {warm:?}"
    );
}

/// The throttled differentials above must not pass vacuously either:
/// both windows actually serve events from the cached plan.
#[test]
fn throttle_reuse_is_not_vacuous() {
    let trace = traced(7, 40, 1);
    let (_, eager) = run_straight(&trace, &mut OfflineAdapt::new());
    for tau in [0.5, 5.0] {
        let (_, lazy) = run_straight(&trace, &mut OfflineAdapt::with_throttle(tau));
        assert!(
            lazy.n_resolves < eager.n_resolves,
            "t={tau}: {} re-solves vs {} eager",
            lazy.n_resolves,
            eager.n_resolves
        );
    }
}
