//! Output pins for the OLA family's snapshot-visible behaviour.
//!
//! `OlaLite` is not covered by the campaign goldens, and the
//! differential harness only checks two of its runs against each other.
//! These tests commit its exact completion bit patterns and
//! [`ResolveStats`] on small seeded traces (two walk factors, three
//! fault intensities, one run interrupted by snapshot/restore), plus the
//! `snapshot_state` text of both OLA policies at a fixed event. Any
//! change to the walk, the warm verdict rule, the cold fallback or the
//! resolve counting shows up here as the first differing job.

mod common;

use common::{completions_of, load, run_interrupted, traced};
use dlflow_sim::engine::{OnlineScheduler, ResolveStats, StepOutcome};
use dlflow_sim::schedulers::{OfflineAdapt, OlaLite};

/// Trace seed shared by every pin.
const SEED: u64 = 4242;
/// Requests per pinned trace.
const N: usize = 10;

fn stats(
    n_resolves: usize,
    warm_lp_solves: usize,
    cold_lp_solves: usize,
    warm_resolves: usize,
    cold_resolves: usize,
) -> ResolveStats {
    ResolveStats {
        n_resolves,
        warm_lp_solves,
        cold_lp_solves,
        warm_resolves,
        cold_resolves,
    }
}

/// Asserts completions job by job, so a failure names the first
/// divergent job rather than dumping both vectors.
fn assert_completions(what: &str, got: &[(usize, u64)], want: &[(usize, u64)]) {
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g,
            w,
            "{what}: job {} completes at {:e}, pinned {:e}",
            w.0,
            f64::from_bits(g.1),
            f64::from_bits(w.1)
        );
    }
    assert_eq!(got.len(), want.len(), "{what}: completion count");
}

fn run_lite(alpha: f64, intensity: u8) -> (Vec<(usize, u64)>, ResolveStats) {
    let trace = traced(SEED, N, intensity);
    let mut policy = OlaLite::with_alpha(alpha);
    policy.reset();
    let mut eng = load(&trace);
    eng.drain(&mut policy).unwrap();
    (completions_of(&mut eng), policy.resolve_stats().unwrap())
}

fn check_lite(alpha: f64, intensity: u8, want: &[(usize, u64)], want_stats: ResolveStats) {
    let (got, got_stats) = run_lite(alpha, intensity);
    let what = format!("OLA-lite a={alpha} intensity {intensity}");
    assert_completions(&what, &got, want);
    assert_eq!(got_stats, want_stats, "{what}: resolve stats");
}

#[test]
fn ola_lite_alpha_2_fault_free() {
    check_lite(
        2.0,
        0,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff767f1948f868e),
            (2, 0x3ff767f1948f868e),
            (3, 0x400203c8a46fdf14),
            (4, 0x3ff767f1948f868e),
            (5, 0x3ff9fb993df04c22),
            (6, 0x400203c8a46fdf14),
            (7, 0x400349f8a804ab28),
            (8, 0x400afb999cdceb45),
            (9, 0x4013ebd5691cf57f),
        ],
        stats(13, 20, 17, 12, 1),
    );
}

#[test]
fn ola_lite_alpha_2_moderate_faults() {
    check_lite(
        2.0,
        1,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff767f1948f868e),
            (2, 0x3ff767f1948f868e),
            (3, 0x400536fc0d60b5ec),
            (4, 0x3ff767f1948f868e),
            (5, 0x3ff9fb993df04c22),
            (6, 0x400536fc0d60b5ec),
            (7, 0x400536fc0d60b5ec),
            (8, 0x400bd9e9e61accea),
            (9, 0x4013ebd5691cf57f),
        ],
        stats(14, 17, 23, 10, 4),
    );
}

#[test]
fn ola_lite_alpha_2_harsh_faults() {
    check_lite(
        2.0,
        2,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff767f1948f868e),
            (2, 0x3ff767f1948f868e),
            (3, 0x400203c8a46fdf14),
            (4, 0x3ff767f1948f868e),
            (5, 0x3ff9fb993df04c22),
            (6, 0x400203c8a46fdf14),
            (7, 0x400349f8a804ab28),
            (8, 0x400afb999cdceb45),
            (9, 0x4013ebd5691cf57f),
        ],
        stats(14, 17, 22, 11, 3),
    );
}

#[test]
fn ola_lite_alpha_1_2_fault_free() {
    check_lite(
        1.2,
        0,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff6129c28d5d7b4),
            (2, 0x3ff6129c28d5d7b4),
            (3, 0x3ffb0727f01a01cc),
            (4, 0x3ff6f715685edc4b),
            (5, 0x3ff8a278ea9dcbb1),
            (6, 0x3fffda0e2a88de8c),
            (7, 0x4002da8f5c4e6912),
            (8, 0x400a8c305126a92f),
            (9, 0x4013ebd5691cf57f),
        ],
        stats(13, 40, 19, 12, 1),
    );
}

#[test]
fn ola_lite_alpha_1_2_moderate_faults() {
    check_lite(
        1.2,
        1,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff6129c28d5d7b4),
            (2, 0x3ff6129c28d5d7b4),
            (3, 0x3ffb0727f01a01cc),
            (4, 0x3ff6f715685edc4b),
            (5, 0x3ff8a278ea9dcbb1),
            (6, 0x3fffda0e2a88de8c),
            (7, 0x4004809471c3d376),
            (8, 0x400a9bac533730fd),
            (9, 0x4013ebd5691cf57f),
        ],
        stats(15, 41, 27, 12, 3),
    );
}

#[test]
fn ola_lite_alpha_1_2_harsh_faults() {
    check_lite(
        1.2,
        2,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff6129c28d5d7b4),
            (2, 0x3ff6129c28d5d7b4),
            (3, 0x3ffce13b05b85834),
            (4, 0x3ff6f715685edc4b),
            (5, 0x3ff90149888a435f),
            (6, 0x3fffda0e2a88de8c),
            (7, 0x4002da8f5c4e6912),
            (8, 0x400a8c305126a92f),
            (9, 0x4013ebd5691cf57f),
        ],
        stats(14, 39, 22, 12, 2),
    );
}

/// Restoring into a fresh policy drops the warm basis and probe cache
/// but keeps the walk anchor `last_f` and the resolve count; the pinned
/// fault-free run is interrupted at every fourth event. Its completions
/// happen to equal the uninterrupted run's.
#[test]
fn ola_lite_interrupted_run() {
    let trace = traced(SEED, N, 0);
    let (got, policy) = run_interrupted(&trace, 4, || OlaLite::with_alpha(1.2));
    assert_completions(
        "interrupted OLA-lite a=1.2",
        &got,
        &[
            (0, 0x3fdc80a9607a46bd),
            (1, 0x3ff6129c28d5d7b4),
            (2, 0x3ff6129c28d5d7b4),
            (3, 0x3ffb0727f01a01cc),
            (4, 0x3ff6f715685edc4b),
            (5, 0x3ff8a278ea9dcbb1),
            (6, 0x3fffda0e2a88de8c),
            (7, 0x4002da8f5c4e6912),
            (8, 0x400a8c305126a92f),
            (9, 0x4013ebd5691cf57f),
        ],
    );
    assert_eq!(
        policy.resolve_stats().unwrap(),
        stats(13, 2, 4, 1, 1),
        "interrupted OLA-lite: resolve stats since the last restore"
    );
}

/// Steps `policy` through the first `events` events of the moderate-
/// fault trace and returns its `snapshot_state` text.
fn state_after(policy: &mut dyn OnlineScheduler, events: usize) -> String {
    let trace = traced(SEED, N, 1);
    policy.reset();
    let mut eng = load(&trace);
    while eng.n_events() < events {
        assert_eq!(eng.step(policy).unwrap(), StepOutcome::Advanced);
    }
    policy.snapshot_state()
}

#[test]
fn ola_lite_snapshot_state_text() {
    assert_eq!(
        state_after(&mut OlaLite::new(), 7),
        "n_resolves 3\nlast_f 3ff000010cb4323b\n"
    );
}

#[test]
fn throttled_ola_snapshot_state_text() {
    assert_eq!(state_after(&mut OfflineAdapt::with_throttle(5.0), 7),
        "n_resolves 3\nsolved_at 3fef1cee85603c34\nknown 1 2\nalloc 3\nrow\nrow\nrow 1:3fd184e10c44e902 2:3fe73d8f79dd8b7f\n"
    );
}
