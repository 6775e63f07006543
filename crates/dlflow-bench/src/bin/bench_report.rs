//! `bench-report` — quick-mode perf probe emitting machine-readable JSON.
//!
//! Runs a fixed, representative subset of the criterion suites
//! (`bench_num`, `bench_simplex`, `bench_core`, `bench_gripps`,
//! `bench_sim`) with a small measurement budget and writes per-bench
//! **median** ns/iter to `BENCH_PR10.json` (override with `--out <path>`),
//! establishing the perf trajectory across PRs. The Theorem-2 entry also
//! records the `FlowStats` warm/cold probe split (the PR-3 headline);
//! the sim section records the incremental engine's large-trace scaling
//! curve and its speedup over the legacy dense-allocation batch loop
//! (the PR-5 headline).
//!
//! The PR-9 section measures the flattened + sharded replay stack:
//!
//! * **Throughput floors.** Host speed drifts between sessions (the
//!   recorded absolute `BENCH_PR5` number is not reproducible on a
//!   different box), so the floors are *same-process ratios*: the PR-5
//!   stack ([`ReferenceEngine`] driving the frozen [`Pr5Swrpt`] policy)
//!   is re-timed in the same run, interleaved round-for-round with the
//!   new engine, and the gate is the best same-round ratio. Expected
//!   locally: flat ≥ 2× on the 3-machine trace, sharded ≥ 4× on the
//!   32-machine federation; the asserted floors are set lower (1.5× /
//!   3×) so a noisy CI runner flags collapse, not jitter.
//! * **Shard scaling.** Events/s of `ShardedEngine::replay_trace` on the
//!   32-machine federation at 1/2/4/8/16/32 shards.
//! * **Allocation counting.** [`allocmeter::Meter`] is this binary's
//!   global allocator; the report asserts that a second wave of jobs
//!   through a *warm* engine allocates only the id-table doublings
//!   (amortized zero per event) and records whole-replay allocation
//!   totals, which bound capacity growth — not per-event traffic.
//!
//! The PR-10 `ola-resolve` group measures the persistent warm-basis LP
//! machinery:
//!
//! * **Per-probe resolve cost.** A representative deadline-probe LP is
//!   re-solved cold vs through [`ProbeCache`] (alternating two RHS
//!   variants so every warm iteration is a genuine patch + dual
//!   repair). The asserted floor is a ≥ 3× warm-over-cold speedup; the
//!   local headline is ~10×.
//! * **End-to-end replay.** Eager OLA (`throttle = 0`, Theorem 2's
//!   milestone search, every LP cold) and `OLA-lite` (the warm α-walk)
//!   on a 1k-arrival trace, with the event-level resolve telemetry
//!   ([`ResolveStats`]) recorded. The gates are deterministic counts:
//!   eager OLA's mean LP solves per re-plan stays ≤ 5, and OLA-lite,
//!   the only user of the warm path, serves most re-plans warm.
//!
//! Usage: `cargo run --release -p dlflow-bench --bin bench-report`

use allocmeter::Meter;
use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_core::lp_build::{build_deadline_lp, build_deadline_probe_lp, build_makespan_lp};
use dlflow_core::maxflow::min_max_weighted_flow_divisible;
use dlflow_core::milestones::milestones;
use dlflow_gripps::databank::{Databank, DatabankSpec};
use dlflow_gripps::motif::Motif;
use dlflow_gripps::scan::scan_databank;
use dlflow_lp::ProbeCache;
use dlflow_num::Rat;
use dlflow_sim::engine::{simulate_dense, JobSpec, OnlineScheduler, ResolveStats};
use dlflow_sim::reference::{Pr5Swrpt, ReferenceEngine};
use dlflow_sim::schedulers::{OfflineAdapt, OlaLite, Swrpt};
use dlflow_sim::shard::ShardedEngine;
use dlflow_sim::workload::{
    generate, generate_trace, ArrivalProcess, Trace, TraceSpec, WorkloadSpec,
};
use std::time::Instant;

#[global_allocator]
static METER: Meter = Meter::new();

/// Samples per benchmark; the median is reported.
const SAMPLES: usize = 7;
/// Target wall-clock per sample.
const SAMPLE_BUDGET_NS: u128 = 10_000_000; // 10 ms

/// Times `routine` with `samples` samples and returns the median ns per
/// iteration.
fn median_ns_with<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    // Calibrate the per-sample iteration count on one warm-up run.
    let t0 = Instant::now();
    std::hint::black_box(routine());
    let once = t0.elapsed().as_nanos().max(1);
    let iters = (SAMPLE_BUDGET_NS / once).clamp(1, 100_000) as usize;
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        out.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    out.sort_by(|a, b| a.total_cmp(b));
    out[samples / 2]
}

/// Times `routine` and returns the median ns per iteration.
fn median_ns<O>(routine: impl FnMut() -> O) -> f64 {
    median_ns_with(SAMPLES, routine)
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_PR10.json".to_string())
    };

    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, ns: f64| {
        println!("{name:<44} {ns:>14.1} ns/iter (median)");
        entries.push((name.to_string(), ns));
    };

    // --- bench_num: the Rat fast path. ---
    let a = Rat::from_ratio(123456789, 987654321);
    let b = Rat::from_ratio(555555557, 333333331);
    push("num/rat_add", median_ns(|| a.add_ref(&b)));
    push("num/rat_mul", median_ns(|| a.mul_ref(&b)));
    push("num/rat_cmp", median_ns(|| a < b));
    let big = Rat::from_i64(i64::MAX).powi(2); // bignum-path operand
    push("num/rat_add_bignum", median_ns(|| big.add_ref(&b)));

    // --- bench_simplex: the exact-Rat suite (the PR's 5× target). ---
    for n in [4usize, 8] {
        let inst = generate(&WorkloadSpec {
            n_jobs: n,
            n_machines: 3,
            seed: 1,
            ..Default::default()
        })
        .map_scalar(|v| Rat::from_ratio((v * 16.0).round() as i64, 16));
        push(
            &format!("simplex/system1_exact_{n}"),
            median_ns(|| {
                let built = build_makespan_lp(&inst);
                dlflow_lp::solve(&built.lp).status
            }),
        );
    }
    let inst16 = generate(&WorkloadSpec {
        n_jobs: 16,
        n_machines: 3,
        seed: 2,
        ..Default::default()
    });
    let deadlines: Vec<f64> = (0..16).map(|j| inst16.job(j).release + 100.0).collect();
    push(
        "simplex/system2_preemptive_f64_16",
        median_ns(|| {
            let built = build_deadline_lp(&inst16, &deadlines, true);
            dlflow_lp::solve(&built.lp).status
        }),
    );

    // --- bench_core: milestones + the warm-started Theorem-2 path. ---
    let inst64 = generate(&WorkloadSpec {
        n_jobs: 64,
        n_machines: 3,
        seed: 3,
        ..Default::default()
    });
    push(
        "core/milestones_64",
        median_ns(|| milestones(&inst64).len()),
    );
    let exact4 = generate(&WorkloadSpec {
        n_jobs: 4,
        n_machines: 2,
        seed: 6,
        ..Default::default()
    })
    .map_scalar(|v| Rat::from_ratio((v * 16.0).round() as i64, 16));
    push(
        "core/theorem2_divisible_exact_4",
        median_ns(|| min_max_weighted_flow_divisible(&exact4).optimum.to_f64()),
    );
    // A deeper search so the warm-start split is visible in the stats.
    let exact8 = generate(&WorkloadSpec {
        n_jobs: 8,
        n_machines: 3,
        seed: 5,
        ..Default::default()
    })
    .map_scalar(|v| Rat::from_ratio((v * 8.0).round() as i64, 8));
    let stats = min_max_weighted_flow_divisible(&exact8).stats;
    push(
        "core/theorem2_divisible_exact_8",
        median_ns(|| min_max_weighted_flow_divisible(&exact8).optimum.to_f64()),
    );
    println!(
        "  theorem2 n=8 probes: {} total = {} warm + {} cold ({} milestones)",
        stats.n_probes, stats.n_warm_probes, stats.n_cold_probes, stats.n_milestones
    );

    // --- bench_gripps: the (now genuinely parallel) scanner. ---
    let bank = Databank::generate(&DatabankSpec {
        n_sequences: 64,
        mean_len: 120,
        min_len: 30,
        seed: 7,
    });
    let motifs = Motif::random_set(6, 5, 11);
    push(
        "gripps/scan_databank_64x6",
        median_ns(|| scan_databank(&bank, &motifs).matches.len()),
    );

    // --- bench_sim: the incremental engine's large-trace scaling curve
    // (PR 5), plus the head-to-head against the legacy dense loop. ---
    let make_trace = |n: usize| {
        generate_trace(&TraceSpec {
            n_requests: n,
            n_machines: 3,
            process: ArrivalProcess::Poisson { rate: 2.0 },
            seed: 17,
            ..Default::default()
        })
    };
    let mut sim_scaling: Vec<(usize, f64, usize)> = Vec::new();
    for (n, samples) in [(1_000usize, SAMPLES), (10_000, 3), (100_000, 3)] {
        let t = make_trace(n);
        let n_events = t.replay(&mut Swrpt::new()).unwrap().n_events;
        let ns = median_ns_with(samples, || t.replay(&mut Swrpt::new()).unwrap().n_events);
        push(&format!("sim/engine_trace_swrpt_{n}"), ns);
        sim_scaling.push((n, ns, n_events));
    }
    // Speedup over the legacy dense-allocation batch loop at n = 5k.
    let t5k = make_trace(5_000);
    let inst5k = t5k.to_instance().expect("generated trace materializes");
    let engine_ns = median_ns_with(3, || t5k.replay(&mut Swrpt::new()).unwrap().n_events);
    let dense_ns = median_ns_with(3, || {
        simulate_dense(&inst5k, &mut Swrpt::new()).unwrap().n_events
    });
    push("sim/engine_trace_swrpt_5k", engine_ns);
    push("sim/legacy_dense_swrpt_5k", dense_ns);
    let sim_speedup_5k = dense_ns / engine_ns;
    println!("  engine vs legacy dense @5k: {sim_speedup_5k:.1}x");

    // --- PR 9: flattened + sharded replay vs the frozen PR-5 stack. ---

    /// ns/event of the PR-5 stack (ReferenceEngine + frozen Pr5Swrpt)
    /// replaying `t` — push-all then drain, PR 5's own driving idiom.
    fn pr5_stack_ns(t: &Trace, m: usize) -> f64 {
        let mut re = ReferenceEngine::new(m);
        let mut pol = Pr5Swrpt::new();
        let t0 = Instant::now();
        for k in 0..t.len() {
            re.push_arrival(t.job_spec(k)).expect("valid trace arrival");
        }
        re.drain(&mut pol).expect("reference replay");
        t0.elapsed().as_nanos() as f64 / re.n_events() as f64
    }

    /// ns/event of the flattened engine's streaming replay of `t`.
    fn flat_ns(t: &Trace) -> f64 {
        let t0 = Instant::now();
        let s = t.replay(&mut Swrpt::new()).expect("flat replay");
        t0.elapsed().as_nanos() as f64 / s.n_events as f64
    }

    /// (ns/event, total events) of a sharded replay of `t` at `k` shards.
    fn sharded_ns(t: &Trace, m: usize, k: usize) -> (f64, usize) {
        let mut se = ShardedEngine::new(m, k);
        // Counters only — makes the buffering switch explicit (and it is
        // part of what is being measured: no completion stream is built).
        se.set_record_completions(false);
        let mut pols: Vec<Box<dyn OnlineScheduler + Send>> = (0..k)
            .map(|_| Box::new(Swrpt::new()) as Box<dyn OnlineScheduler + Send>)
            .collect();
        let t0 = Instant::now();
        let s = se.replay_trace(t, &mut pols).expect("sharded replay");
        (
            t0.elapsed().as_nanos() as f64 / s.n_events as f64,
            s.n_events,
        )
    }

    // Throughput floor 1: the flattened single-engine path on the exact
    // BENCH_PR5 trace shape (3 machines, 100k Poisson arrivals).
    // Interleaved rounds; the gate is the best same-round ratio, which
    // cancels host-speed drift between rounds.
    let t100k = make_trace(100_000);
    let (mut ref3_best, mut flat_best, mut flat_ratio) = (f64::INFINITY, f64::INFINITY, 0.0f64);
    for _ in 0..4 {
        let r = pr5_stack_ns(&t100k, 3);
        let f = flat_ns(&t100k);
        ref3_best = ref3_best.min(r);
        flat_best = flat_best.min(f);
        flat_ratio = flat_ratio.max(r / f);
    }
    push("sim/pr5_stack_100k_m3", ref3_best);
    push("sim/flat_replay_100k_m3", flat_best);
    println!("  flat vs PR-5 stack @100k m=3: {flat_ratio:.2}x");

    // Throughput floor 2 + shard scaling: a 32-machine federation.
    let t32 = generate_trace(&TraceSpec {
        n_requests: 100_000,
        n_machines: 32,
        process: ArrivalProcess::Poisson { rate: 2.0 },
        seed: 17,
        ..Default::default()
    });
    let (mut ref32_best, mut shard32_best, mut shard_ratio) =
        (f64::INFINITY, f64::INFINITY, 0.0f64);
    for _ in 0..3 {
        let r = pr5_stack_ns(&t32, 32);
        let (s, _) = sharded_ns(&t32, 32, 32);
        ref32_best = ref32_best.min(r);
        shard32_best = shard32_best.min(s);
        shard_ratio = shard_ratio.max(r / s);
    }
    push("sim/pr5_stack_100k_m32", ref32_best);
    push("sim/sharded_replay_100k_m32_k32", shard32_best);
    println!("  sharded k=32 vs PR-5 stack @100k m=32: {shard_ratio:.2}x");

    let mut shard_scaling: Vec<(usize, f64, usize)> = Vec::new();
    for k in [1usize, 2, 4, 8, 16, 32] {
        let mut best = f64::INFINITY;
        let mut events = 0usize;
        for _ in 0..2 {
            let (ns, ev) = sharded_ns(&t32, 32, k);
            best = best.min(ns);
            events = ev;
        }
        println!(
            "  sharded m=32 k={k}: {best:.1} ns/event, {:.2}M events/s",
            1e3 / best
        );
        shard_scaling.push((k, best, events));
    }

    // Allocation counting: whole-replay totals (bounded by capacity
    // growth, independent of event count)...
    let a0 = allocmeter::alloc_count();
    let flat_events = t100k
        .replay(&mut Swrpt::new())
        .expect("flat replay")
        .n_events;
    let flat_allocs = allocmeter::alloc_count() - a0;
    let a0 = allocmeter::alloc_count();
    let (_, shard_events) = sharded_ns(&t32, 32, 32);
    let shard_allocs = allocmeter::alloc_count() - a0;
    println!(
        "  allocations: flat {flat_allocs} over {flat_events} events, \
         sharded {shard_allocs} over {shard_events} events"
    );
    // ...and the strict steady-state claim: drive a warm engine (slab,
    // heaps, and policy scratch all at capacity after a first wave)
    // through a second wave of jobs. Only the engine's id table still
    // grows — a few amortized doublings, zero allocations per event.
    let mut eng = dlflow_sim::engine::Engine::new(3);
    eng.record_completions = false; // counters only, like the replays above
    let mut pol = Swrpt::new();
    let wave = |eng: &mut dlflow_sim::engine::Engine, pol: &mut Swrpt, lo: usize| {
        for j in 0..1_000usize {
            eng.push_arrival(JobSpec {
                release: (lo + j) as f64 * 0.5,
                weight: 1.0 + (j % 7) as f64,
                costs: vec![2.0 + (j % 5) as f64, 3.5, 4.0 + (j % 3) as f64],
            })
            .expect("valid job");
        }
        eng.drain(pol).expect("drain");
    };
    wave(&mut eng, &mut pol, 0);
    let a0 = allocmeter::alloc_count();
    wave(&mut eng, &mut pol, 1_000);
    // The wave closure itself allocates one costs Vec per job (1000
    // allocations), so the engine's own budget is the delta beyond them.
    let warm_wave_allocs = (allocmeter::alloc_count() - a0).saturating_sub(1_000);
    println!("  warm-engine second wave (1k jobs): {warm_wave_allocs} engine allocations");

    // --- ola-resolve: the PR-10 persistent warm-basis machinery. ---

    // Per-probe resolve cost on a representative deadline-probe LP
    // (6 jobs × 4 machines). The warm routine alternates two RHS
    // variants so every iteration is a real persistent patch + dual
    // repair, never a cache no-op.
    let probe_sub = {
        let jobs: Vec<Job<f64>> = (0..6)
            .map(|k| Job {
                release: 10.0,
                weight: 1.0 + k as f64,
                name: String::new(),
            })
            .collect();
        let cost: Vec<Vec<Cost<f64>>> = (0..4)
            .map(|i| {
                (0..6)
                    .map(|k| Cost::Finite(1.0 + ((i * 7 + k * 3) % 5) as f64))
                    .collect()
            })
            .collect();
        Instance::new(jobs, cost).expect("probe instance")
    };
    let d0 = [14.0, 13.0, 12.5, 12.2, 15.0, 16.0];
    let d1 = [14.1, 13.1, 12.6, 12.3, 15.1, 16.1];
    let probe_lp0 = build_deadline_probe_lp(&probe_sub, &d0, false);
    let probe_lp1 = build_deadline_probe_lp(&probe_sub, &d1, false);
    let cold_probe_ns = median_ns(|| dlflow_lp::solve(&probe_lp0));
    let mut probe_cache: ProbeCache<f64> = ProbeCache::new();
    let probe_seed = dlflow_lp::solve_warm(&probe_lp0, None);
    probe_cache
        .solve(&probe_lp0, probe_seed.basis.as_ref())
        .expect("seeded probe cache serves");
    let mut flip = false;
    let warm_probe_ns = median_ns(|| {
        flip = !flip;
        let p = if flip { &probe_lp1 } else { &probe_lp0 };
        probe_cache.solve(p, None)
    });
    let warm_probe_speedup = cold_probe_ns / warm_probe_ns;
    push("ola/cold_probe_solve", cold_probe_ns);
    push("ola/warm_probe_resolve", warm_probe_ns);
    println!("  warm vs cold per-probe resolve: {warm_probe_speedup:.2}x");

    // End-to-end replay: eager OLA vs OLA-lite on a 1k-arrival trace,
    // interleaved rounds, best ns/event each.
    let ola_trace = generate_trace(&TraceSpec {
        n_requests: 1_000,
        seed: 7,
        ..Default::default()
    });
    fn ola_round(trace: &Trace, policy: &mut dyn OnlineScheduler) -> (f64, ResolveStats) {
        policy.reset();
        let t0 = Instant::now();
        let s = trace.replay(policy).expect("OLA replay");
        let ns = t0.elapsed().as_nanos() as f64 / s.n_events as f64;
        (ns, policy.resolve_stats().unwrap_or_default())
    }
    let mut eager = OfflineAdapt::new();
    let mut lite = OlaLite::new();
    let (mut eager_ns, mut lite_ns) = (f64::INFINITY, f64::INFINITY);
    let (mut eager_stats, mut lite_stats) = (ResolveStats::default(), ResolveStats::default());
    for _ in 0..2 {
        let (ns, rs) = ola_round(&ola_trace, &mut eager);
        eager_ns = eager_ns.min(ns);
        eager_stats = rs;
        let (ns, rs) = ola_round(&ola_trace, &mut lite);
        lite_ns = lite_ns.min(ns);
        lite_stats = rs;
    }
    let lite_vs_ola = eager_ns / lite_ns;
    push("sim/ola_eager_replay_1k", eager_ns);
    push("sim/olalite_replay_1k", lite_ns);
    println!(
        "  OLA eager: {:.2}M events/s; OLA-lite vs OLA: {lite_vs_ola:.2}x (recorded, not gated)",
        1e3 / eager_ns
    );
    for (name, rs) in [("OLA eager", &eager_stats), ("OLA-lite", &lite_stats)] {
        println!(
            "  {name} telemetry: {} re-solves ({} warm-served + {} cold), \
             {} warm + {} cold LP solves, {:.2} mean LP/resolve",
            rs.n_resolves,
            rs.warm_resolves,
            rs.cold_resolves,
            rs.warm_lp_solves,
            rs.cold_lp_solves,
            rs.mean_lp_solves_per_resolve()
        );
    }

    // --- JSON emission (no serde in the offline dependency set). ---
    let mut json = String::from("{\n  \"pr\": 10,\n  \"mode\": \"quick\",\n");
    json.push_str(&format!(
        "  \"samples_per_bench\": {SAMPLES},\n  \"theorem2_probe_stats\": {{\n    \"n_milestones\": {},\n    \"n_probes\": {},\n    \"n_warm_probes\": {},\n    \"n_cold_probes\": {}\n  }},\n",
        stats.n_milestones, stats.n_probes, stats.n_warm_probes, stats.n_cold_probes
    ));
    json.push_str("  \"sim_engine_scaling\": [\n");
    for (i, (n, ns, n_events)) in sim_scaling.iter().enumerate() {
        let comma = if i + 1 == sim_scaling.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"n_arrivals\": {n}, \"median_ns\": {ns:.1}, \"n_events\": {n_events}, \"events_per_sec\": {:.0}}}{comma}\n",
            *n_events as f64 / (ns / 1e9)
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sim_speedup_dense_to_engine_5k\": {sim_speedup_5k:.2},\n"
    ));
    json.push_str("  \"sim_shard_scaling_m32\": [\n");
    for (i, (k, ns, n_events)) in shard_scaling.iter().enumerate() {
        let comma = if i + 1 == shard_scaling.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!(
            "    {{\"shards\": {k}, \"best_ns_per_event\": {ns:.1}, \"n_events\": {n_events}, \"events_per_sec\": {:.0}}}{comma}\n",
            1e9 / ns
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"throughput_floor\": {{\n    \
         \"flat_m3_ratio_vs_pr5_stack\": {flat_ratio:.2},\n    \
         \"sharded_m32_k32_ratio_vs_pr5_stack\": {shard_ratio:.2},\n    \
         \"pr5_stack_best_ns_per_event_m3\": {ref3_best:.1},\n    \
         \"flat_best_ns_per_event_m3\": {flat_best:.1},\n    \
         \"pr5_stack_best_ns_per_event_m32\": {ref32_best:.1},\n    \
         \"sharded_k32_best_ns_per_event_m32\": {shard32_best:.1},\n    \
         \"recorded_pr5_events_per_sec_100k\": 6710259\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"replay_allocations\": {{\n    \
         \"flat_100k_total\": {flat_allocs},\n    \
         \"flat_100k_events\": {flat_events},\n    \
         \"sharded_m32_k32_100k_total\": {shard_allocs},\n    \
         \"sharded_m32_k32_100k_events\": {shard_events},\n    \
         \"warm_engine_second_wave_1k_jobs\": {warm_wave_allocs}\n  }},\n"
    ));
    let stats_json = |rs: &ResolveStats| {
        format!(
            "{{\n      \
             \"n_resolves\": {},\n      \
             \"warm_resolves\": {},\n      \
             \"cold_resolves\": {},\n      \
             \"warm_lp_solves\": {},\n      \
             \"cold_lp_solves\": {},\n      \
             \"mean_lp_solves_per_resolve\": {:.2}\n    }}",
            rs.n_resolves,
            rs.warm_resolves,
            rs.cold_resolves,
            rs.warm_lp_solves,
            rs.cold_lp_solves,
            rs.mean_lp_solves_per_resolve()
        )
    };
    json.push_str(&format!(
        "  \"ola_resolve\": {{\n    \
         \"cold_probe_ns\": {cold_probe_ns:.1},\n    \
         \"warm_probe_ns\": {warm_probe_ns:.1},\n    \
         \"warm_probe_speedup\": {warm_probe_speedup:.2},\n    \
         \"ola_eager_best_ns_per_event\": {eager_ns:.1},\n    \
         \"ola_eager_events_per_sec\": {:.0},\n    \
         \"olalite_best_ns_per_event\": {lite_ns:.1},\n    \
         \"olalite_ratio_vs_ola\": {lite_vs_ola:.2},\n    \
         \"eager_resolve_stats\": {},\n    \
         \"olalite_resolve_stats\": {}\n  }},\n",
        1e9 / eager_ns,
        stats_json(&eager_stats),
        stats_json(&lite_stats)
    ));
    json.push_str("  \"median_ns\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("\nwrote {out_path}");

    // Sanity: the warm-start machinery must actually fire on the deep search.
    assert!(
        stats.n_probes == stats.n_warm_probes + stats.n_cold_probes,
        "probe accounting is inconsistent: {stats:?}"
    );
    if stats.n_probes >= 3 {
        assert!(
            stats.n_warm_probes > 0,
            "expected warm-started probes on the Theorem-2 path: {stats:?}"
        );
    }

    // Sanity: the incremental engine must clearly beat the legacy dense
    // loop at 5k arrivals (the local headline is well above this CI-safe
    // floor; the recorded number is the real measurement).
    assert!(
        sim_speedup_5k >= 4.0,
        "engine speedup over the dense loop collapsed: {sim_speedup_5k:.2}x"
    );

    // Throughput floors vs the frozen PR-5 stack, same process, best
    // same-round ratio. Local headlines are ~2x (flat) and >4x
    // (sharded); the asserted floors leave noise headroom so a slow or
    // shared runner flags a real collapse, not jitter.
    assert!(
        flat_ratio >= 1.5,
        "flattened replay no longer clearly beats the PR-5 stack: {flat_ratio:.2}x"
    );
    assert!(
        shard_ratio >= 3.0,
        "sharded replay no longer clearly beats the PR-5 stack: {shard_ratio:.2}x"
    );

    // Allocation flatness: replay totals are capacity growth, orders of
    // magnitude below event counts; a warm engine's second wave costs at
    // most a few id-table doublings.
    assert!(
        (flat_allocs as usize) < flat_events / 100,
        "flat replay allocations scale with events: {flat_allocs} over {flat_events}"
    );
    assert!(
        (shard_allocs as usize) < shard_events,
        "sharded replay allocates per event: {shard_allocs} over {shard_events}"
    );
    assert!(
        warm_wave_allocs <= 8,
        "warm engine steady state is no longer allocation-free: {warm_wave_allocs}"
    );

    // OLA floors. The per-probe persistent resolve must clearly beat a
    // from-scratch solve (local headline ~10×, floor 3× for noisy
    // runners) and OLA-lite, its one user, must serve most re-plans
    // warm. Eager OLA's cost is a deterministic count: Theorem 2's
    // milestone search needs about 2–3 LP solves per re-plan (the
    // retired bisection needed 41).
    assert!(
        warm_probe_speedup >= 3.0,
        "persistent warm probe resolve no longer clearly beats cold: {warm_probe_speedup:.2}x"
    );
    assert!(
        eager_stats.mean_lp_solves_per_resolve() <= 5.0,
        "eager OLA's milestone search costs too many LP solves per re-plan: {eager_stats:?}"
    );
    assert!(
        lite_stats.warm_resolves > lite_stats.cold_resolves,
        "OLA-lite no longer serves most re-plans warm: {lite_stats:?}"
    );
}
