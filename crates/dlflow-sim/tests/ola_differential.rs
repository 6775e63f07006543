//! Differential harness for the OLA family's snapshot and throttle
//! paths.
//!
//! `dlflow-snapshot v1` carries each OLA policy's resolve count and
//! its own state (`OfflineAdapt`'s throttle cache, `OlaLite`'s walk
//! anchor). It deliberately does **not** carry `OlaLite`'s warm basis
//! or probe cache: they are pure pivot-order hints, safe to drop and
//! rebuild after a restore. The interrupted runs here restore into
//! *fresh* policy instances (empty caches) at every k-th event, across
//! seeded traces and every fault intensity, and must reproduce the
//! uninterrupted run bit for bit; any state the snapshot loses shows
//! as a diverging completion float.

mod common;

use common::{completions_of, load, run_interrupted, traced};
use dlflow_sim::engine::{OnlineScheduler, ResolveStats};
use dlflow_sim::schedulers::{OfflineAdapt, OlaLite};
use dlflow_sim::workload::Trace;
use proptest::prelude::*;

/// Uninterrupted run, returning completions and resolve telemetry.
fn run_straight<P: OnlineScheduler>(
    trace: &Trace,
    policy: &mut P,
) -> (Vec<(usize, u64)>, ResolveStats) {
    policy.reset();
    let mut eng = load(trace);
    eng.drain(policy).unwrap();
    let stats = policy.resolve_stats().unwrap();
    (completions_of(&mut eng), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Eager OLA keeps nothing across events that the snapshot drops:
    /// a run restored at every k-th event matches the uninterrupted one
    /// bit for bit.
    #[test]
    fn interrupted_eager_run_matches_uninterrupted(
        seed in 0u64..20_000,
        n in 4usize..10,
        every in 1usize..5,
        intensity in 0u8..3,
    ) {
        let trace = traced(seed, n, intensity);
        let (reference, _) = run_straight(&trace, &mut OfflineAdapt::new());
        prop_assert_eq!(reference.len(), n);
        let (interrupted, _) = run_interrupted(&trace, every, OfflineAdapt::new);
        prop_assert_eq!(&interrupted, &reference);
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

/// OLA-lite's warm machinery must not be dropped silently: on a dense
/// trace it serves probes warm, and most re-plans engage it.
#[test]
fn warm_engagement_is_not_vacuous() {
    let trace = traced(7, 60, 0);
    let (_, warm) = run_straight(&trace, &mut OlaLite::new());
    assert!(
        warm.warm_lp_solves > 0,
        "OLA-lite never served a probe warm: {warm:?}"
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

/// The throttled differential above must not pass vacuously either:
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
