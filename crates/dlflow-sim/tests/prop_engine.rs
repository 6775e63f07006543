//! Oracle property tests for the incremental engine: on random
//! instances, the new [`Engine`]-backed `simulate` and the legacy
//! dense-allocation batch loop (`simulate_dense`) must produce
//! **identical** completions, event counts, plan counts, and busy
//! vectors — bit for bit, for every scheduler. Trace replays must agree
//! with the closed simulation of the materialized instance, and campaign
//! reports must not depend on worker chunking.

use dlflow_sim::engine::{simulate, simulate_dense, OnlineScheduler, RunMetrics};
use dlflow_sim::schedulers::{
    Edf, FifoFastest, Mct, OfflineAdapt, RoundRobin, Srpt, Swrpt, WeightedAge,
};
use dlflow_sim::workload::{generate, generate_trace, ArrivalProcess, TraceSpec, WorkloadSpec};
use proptest::prelude::*;

/// All 8 ported policies.
fn policies() -> Vec<Box<dyn OnlineScheduler>> {
    vec![
        Box::new(Mct::new()),
        Box::new(FifoFastest::new()),
        Box::new(Srpt::new()),
        Box::new(Swrpt::new()),
        Box::new(RoundRobin::new()),
        Box::new(WeightedAge::new()),
        Box::new(Edf::new()),
        Box::new(OfflineAdapt::new()),
    ]
}

/// The cheap (LP-free) subset, usable at larger sizes.
fn cheap_policies() -> Vec<Box<dyn OnlineScheduler>> {
    vec![
        Box::new(Mct::new()),
        Box::new(FifoFastest::new()),
        Box::new(Srpt::new()),
        Box::new(Swrpt::new()),
        Box::new(RoundRobin::new()),
        Box::new(WeightedAge::new()),
        Box::new(Edf::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole's core guarantee: the incremental engine is an exact
    /// drop-in for the legacy batch loop, for every scheduler.
    #[test]
    fn engine_matches_legacy_dense_loop(
        seed in 0u64..10_000,
        n_jobs in 2usize..7,
        n_machines in 1usize..4,
        availability in 0.3f64..1.0,
    ) {
        let inst = generate(&WorkloadSpec {
            n_jobs,
            n_machines,
            availability,
            seed,
            ..Default::default()
        });
        for mut p in policies() {
            let new = simulate(&inst, p.as_mut()).expect("engine completes");
            let old = simulate_dense(&inst, p.as_mut()).expect("legacy loop completes");
            prop_assert_eq!(&new.completions, &old.completions, "{}: completions", p.name());
            prop_assert_eq!(new.n_events, old.n_events, "{}: n_events", p.name());
            prop_assert_eq!(new.n_plans, old.n_plans, "{}: n_plans", p.name());
            prop_assert_eq!(&new.busy, &old.busy, "{}: busy", p.name());
        }
    }

    /// Same oracle at larger sizes for the LP-free policies (where the
    /// dense loop's O(m·n_total) cost is still tolerable in a test).
    #[test]
    fn engine_matches_legacy_dense_loop_larger(seed in 0u64..1_000) {
        let inst = generate(&WorkloadSpec {
            n_jobs: 40,
            n_machines: 4,
            availability: 0.5,
            mean_interarrival: 1.0,
            seed,
            ..Default::default()
        });
        for mut p in cheap_policies() {
            let new = simulate(&inst, p.as_mut()).expect("engine completes");
            let old = simulate_dense(&inst, p.as_mut()).expect("legacy loop completes");
            prop_assert_eq!(&new.completions, &old.completions, "{}: completions", p.name());
            prop_assert_eq!(new.n_events, old.n_events, "{}: n_events", p.name());
            prop_assert_eq!(&new.busy, &old.busy, "{}: busy", p.name());
        }
    }

    /// Streaming replay of an open trace agrees with the closed
    /// simulation of the same requests materialized as an instance:
    /// identical event/plan counts and busy vectors, metrics equal up to
    /// float-summation order.
    #[test]
    fn trace_replay_matches_materialized_instance(
        seed in 0u64..10_000,
        n in 5usize..40,
        burst in 0u8..2,
    ) {
        let process = if burst == 1 {
            ArrivalProcess::Bursty { rate: 4.0, mean_burst: 2.0, mean_gap: 5.0 }
        } else {
            ArrivalProcess::Poisson { rate: 2.0 }
        };
        let trace = generate_trace(&TraceSpec {
            n_requests: n,
            process,
            seed,
            ..Default::default()
        });
        let inst = trace.to_instance().expect("generated traces materialize");
        for mut p in cheap_policies() {
            let stats = trace.replay(p.as_mut()).expect("replay completes");
            let closed = simulate(&inst, p.as_mut()).expect("closed run completes");
            let m = RunMetrics::from_completions(&inst, &closed.completions);
            prop_assert_eq!(stats.n_events, closed.n_events, "{}: n_events", p.name());
            prop_assert_eq!(stats.n_plans, closed.n_plans, "{}: n_plans", p.name());
            prop_assert_eq!(&stats.busy, &closed.busy, "{}: busy", p.name());
            prop_assert!((stats.metrics.max_stretch - m.max_stretch).abs() <= 1e-9 * (1.0 + m.max_stretch.abs()));
            prop_assert!((stats.metrics.makespan - m.makespan).abs() <= 1e-9);
            prop_assert!((stats.metrics.sum_flow - m.sum_flow).abs() <= 1e-6 * (1.0 + m.sum_flow.abs()));
        }
    }
}

/// Campaign determinism rides along with the engine refactor: parallel
/// and serial tournaments must stay byte-identical (the deeper test
/// lives in `tests/prop_campaign.rs`; this is the engine-level recheck
/// with OLA included).
#[test]
fn campaign_json_parallel_vs_serial_byte_identical() {
    use dlflow_sim::campaign::{parse_campaign, run_campaign, run_campaign_serial};
    let cfg = parse_campaign(
        "name oracle\nseeds 3\nsigbits 10\n\
         platform p servers=3 banks=3 heterogeneity=2\n\
         workload w jobs=5 load=1.2\n\
         scheduler swrpt\nscheduler mct\nscheduler ola throttle=15\n",
    )
    .unwrap();
    let par = run_campaign(&cfg).unwrap().to_json();
    let ser = run_campaign_serial(&cfg).unwrap().to_json();
    assert_eq!(par, ser);
}
