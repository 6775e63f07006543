//! The four workloads: input generation from the seed, the untraced run
//! (input text → report bytes through the calls `dlflow simulate` and
//! `dlflow campaign` make) and the traced run (the same work through
//! public layer calls, each timed from outside the library).

use crate::tracer::{HookStats, Traced};
use dlflow_core::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
use dlflow_gripps::CostModel;
use dlflow_sim::campaign::{
    parse_campaign, run_campaign_serial, CampaignReport, RunRecord, SchedulerSpec, QUICK_CONFIG,
};
use dlflow_sim::engine::{simulate, OnlineScheduler, ResolveStats, RunMetrics};
use dlflow_sim::service::{run_simulation_with, ServiceReport, SimInput, SimOptions};
use dlflow_sim::shard::ShardedEngine;
use dlflow_sim::workload::{generate_trace, ArrivalProcess, FaultProcess, Trace, TraceSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A large fault-free 3-machine trace under SWRPT on the flat engine.
    /// Runnable, but not in `BENCHMARK.json`: its times moved too much
    /// from run to run to gate (see `README.md`).
    TraceFlat1m,
    /// A small 3-machine trace under eager OLA (an LP re-solve per event).
    /// Runnable, but not in `BENCHMARK.json`, for the same reason.
    TraceOla,
    /// The built-in quick §6 campaign on its first two seeds, scored
    /// against the exact optimum.
    CampaignQuick,
    /// A 32-machine trace with a fault schedule, SWRPT on 8 shards.
    TraceM32FaultsSharded,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::TraceFlat1m,
        Workload::TraceOla,
        Workload::CampaignQuick,
        Workload::TraceM32FaultsSharded,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceFlat1m => "trace-flat-1m",
            Workload::TraceOla => "trace-ola",
            Workload::CampaignQuick => "campaign-quick",
            Workload::TraceM32FaultsSharded => "trace-m32-faults-sharded",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures; the
/// self-tests run [`Scale::TINY`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requests of `trace-flat-1m`.
    pub flat_requests: usize,
    /// Requests of `trace-ola`.
    pub ola_requests: usize,
    /// Requests of `trace-m32-faults-sharded`.
    pub sharded_requests: usize,
    /// Seeds per cell of `campaign-quick`.
    pub campaign_seeds: u64,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        flat_requests: 1_000_000,
        ola_requests: 3_000,
        sharded_requests: 8_000,
        campaign_seeds: 2,
    };
    /// Sizes that run in well under a second, for self-tests.
    pub const TINY: Scale = Scale {
        flat_requests: 2_000,
        ola_requests: 60,
        sharded_requests: 2_000,
        campaign_seeds: 2,
    };
}

/// Arrival rate of every trace workload (requests per second).
const RATE: f64 = 2.0;
/// Machines of the sharded workload.
const SHARDED_MACHINES: usize = 32;
/// Shards of the sharded workload, four machines each. Below the rayon
/// shim's 16-item threshold the drain runs on the calling thread: on a
/// host that gives two threads about one core, a two-thread drain
/// measures the OS scheduler more than the engine.
const SHARDED_SHARDS: usize = 8;
/// Fault process of the sharded workload: mean seconds in service and
/// in repair per machine. Its schedule is part of the platform, like
/// the cycle times, so the benchmark seed varies the request stream
/// only.
const MTBF: f64 = 200.0;
const MTTR: f64 = 20.0;
const FAULT_SEED: u64 = 0xFA17;

/// What the program is asked to run on a trace.
#[derive(Clone, Debug)]
pub struct TraceJob {
    /// Requests in the trace (every one must complete).
    pub n_requests: usize,
    /// Compact scheduler spec, as `dlflow simulate --scheduler` takes it.
    pub scheduler: &'static str,
    /// `--shards` (1 = the flat engine).
    pub shards: usize,
}

/// A workload's generated input: the text the program receives.
#[derive(Clone, Debug)]
pub struct Input {
    /// `.dlt` trace or campaign-config text.
    pub text: String,
    /// For trace workloads, how to run it; `None` for the campaign.
    pub trace: Option<TraceJob>,
}

/// Generates a workload's input from the seed. The same seed gives the
/// same bytes.
pub fn make_input(w: Workload, seed: u64, scale: Scale) -> Input {
    let trace_text = |n: usize, m: usize, faults: bool| {
        let mut spec = TraceSpec {
            n_requests: n,
            n_machines: m,
            process: ArrivalProcess::Poisson { rate: RATE },
            seed,
            ..TraceSpec::default()
        };
        if faults {
            spec.faults = Some(FaultProcess {
                mtbf: MTBF,
                mttr: MTTR,
                horizon: n as f64 / RATE,
                seed: FAULT_SEED,
            });
        }
        let mut trace = generate_trace(&spec);
        trace.cycle_times = platform(m);
        trace.to_dlt()
    };
    let (text, trace) = match w {
        Workload::TraceFlat1m => (
            trace_text(scale.flat_requests, 3, false),
            Some(TraceJob {
                n_requests: scale.flat_requests,
                scheduler: "swrpt",
                shards: 1,
            }),
        ),
        Workload::TraceOla => (
            trace_text(scale.ola_requests, 3, false),
            Some(TraceJob {
                n_requests: scale.ola_requests,
                scheduler: "ola",
                shards: 1,
            }),
        ),
        Workload::TraceM32FaultsSharded => (
            trace_text(scale.sharded_requests, SHARDED_MACHINES, true),
            Some(TraceJob {
                n_requests: scale.sharded_requests,
                scheduler: "swrpt",
                shards: SHARDED_SHARDS,
            }),
        ),
        Workload::CampaignQuick => (campaign_text(scale.campaign_seeds), None),
    };
    Input { text, trace }
}

/// The machine fleet (cycle times) of an `m`-machine trace workload:
/// the `m` quantile midpoints of the default `TraceSpec` cycle-time
/// range `[1, heterogeneity]`. The benchmark seed varies the request
/// stream (and fault schedule) only: with 3 machines, a seeded fleet
/// swings the offered load, and with it the run time, by up to a factor
/// of two from seed to seed.
fn platform(m: usize) -> Vec<f64> {
    let h = TraceSpec::default().heterogeneity;
    (0..m)
        .map(|k| 1.0 + (h - 1.0) * (k as f64 + 0.5) / m as f64)
        .collect()
}

/// The built-in quick config, `seeds` scenarios per cell (the first
/// `seeds` of its 20). Its scenarios are seeded inside the config
/// (`seed-base 1`), and the benchmark seed is not used: across
/// seed-bases 1–5 the 20-seed campaign's wall time ranged 1.1–2.5 s
/// and OLA's p95 ratio 1.02–2.49, since a few scenarios dominate both.
fn campaign_text(seeds: u64) -> String {
    let mut lines: Vec<String> = QUICK_CONFIG.lines().map(str::to_string).collect();
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with("seeds "))
        .expect("QUICK_CONFIG has a `seeds` line");
    *line = format!("seeds {seeds}");
    lines.join("\n") + "\n"
}

/// Schedule quality read from a report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Trace workloads: the report's max stretch. The campaign: OLA's
    /// mean max stretch over its scenarios.
    pub max_stretch: f64,
    /// The campaign: OLA's mean max-stretch ratio against the exact
    /// optimum. Trace workloads have no exact optimum: 1, the neutral
    /// ratio.
    pub ola_ratio_mean: f64,
    /// As `ola_ratio_mean`, the nearest-rank 95th percentile.
    pub ola_ratio_p95: f64,
}

/// One run of a workload, input text to report bytes.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Input text → report bytes, seconds.
    pub wall_s: f64,
    /// Input text → parsed input, seconds.
    pub setup_s: f64,
    /// Engine events the run processed.
    pub events: u64,
    /// The report bytes (`ServiceReport::to_json`, or the campaign's
    /// JSON followed by its markdown).
    pub bytes: String,
    /// Schedule quality.
    pub quality: Quality,
    /// The campaign's report, which its traced run re-derives.
    pub campaign: Option<CampaignReport>,
}

/// Tolerance of the "online never beats the exact optimum" check.
const RATIO_FLOOR: f64 = 1.0 - 1e-9;

fn check_trace_report(report: &ServiceReport, job: &TraceJob) -> Result<(), String> {
    if report.n_jobs != job.n_requests {
        return Err(format!(
            "trace report completed {} of {} requests",
            report.n_jobs, job.n_requests
        ));
    }
    let m = &report.metrics;
    if !(m.max_stretch.is_finite() && m.max_stretch >= RATIO_FLOOR && m.makespan.is_finite()) {
        return Err(format!(
            "trace report has max stretch {} and makespan {}",
            m.max_stretch, m.makespan
        ));
    }
    Ok(())
}

fn trace_quality(report: &ServiceReport) -> Quality {
    Quality {
        max_stretch: report.metrics.max_stretch,
        ola_ratio_mean: 1.0,
        ola_ratio_p95: 1.0,
    }
}

fn check_campaign_report(report: &CampaignReport, cfg_ola: usize) -> Result<Quality, String> {
    if let Some(r) = report
        .runs
        .iter()
        .find(|r| r.stretch_ratio.is_nan() || r.stretch_ratio < RATIO_FLOOR)
    {
        return Err(format!(
            "campaign row (seed {}, {}) has stretch_ratio {} < 1 - 1e-9",
            r.seed, r.scheduler, r.stretch_ratio
        ));
    }
    let a = &report.aggregates[cfg_ola];
    Ok(Quality {
        max_stretch: a.mean_max_stretch,
        ola_ratio_mean: a.mean_ratio,
        ola_ratio_p95: a.p95_ratio,
    })
}

/// Index of the eager-OLA entrant of a campaign config.
fn ola_index(specs: &[SchedulerSpec]) -> Result<usize, String> {
    specs
        .iter()
        .position(|s| matches!(s, SchedulerSpec::Ola { .. }))
        .ok_or_else(|| "campaign config has no `scheduler ola` line".to_string())
}

/// A set-up shorter than this is timed again, outside the wall time,
/// until this much time is spent on it (at most [`SETUP_REPS`] times),
/// and the iteration reports the fastest repetition: a single 1 ms
/// trace parse or 5 µs config parse is mostly timer, cache and
/// interrupt noise, and on a shared host its median moved by 40 %
/// between sets of runs while its minimum moved by 2 %.
const SETUP_RETIME_S: f64 = 0.05;
const SETUP_REPS: usize = 200;

fn retime_setup(first: f64, mut setup: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let (mut best, mut spent, mut reps) = (first, first, 1);
    while spent < SETUP_RETIME_S && reps < SETUP_REPS {
        let t = Instant::now();
        setup()?;
        let dt = secs(t);
        best = best.min(dt);
        spent += dt;
        reps += 1;
    }
    Ok(best)
}

/// The untraced run: exactly the library calls `dlflow simulate` (trace
/// workloads) or `dlflow campaign --serial` (the campaign) make.
pub fn run_untraced(input: &Input) -> Result<Outcome, String> {
    let t0 = Instant::now();
    match &input.trace {
        Some(job) => {
            let trace = Trace::parse_dlt(&input.text)?;
            let sim_input = SimInput::Open(trace);
            let setup_s = t0.elapsed().as_secs_f64();
            let spec = SchedulerSpec::parse_compact(job.scheduler)?;
            let opts = SimOptions {
                shards: job.shards,
                ..SimOptions::default()
            };
            let (report, _) = run_simulation_with(&sim_input, &spec, &opts)?;
            let bytes = report.to_json();
            let wall_s = t0.elapsed().as_secs_f64();
            check_trace_report(&report, job)?;
            Ok(Outcome {
                wall_s,
                setup_s: retime_setup(setup_s, || Trace::parse_dlt(&input.text).map(drop))?,
                events: report.n_events as u64,
                bytes,
                quality: trace_quality(&report),
                campaign: None,
            })
        }
        None => {
            let cfg = parse_campaign(&input.text)?;
            let setup_s = t0.elapsed().as_secs_f64();
            let report = run_campaign_serial(&cfg)?;
            let bytes = report.to_json() + &report.to_markdown();
            let wall_s = t0.elapsed().as_secs_f64();
            let quality = check_campaign_report(&report, ola_index(&cfg.schedulers)?)?;
            Ok(Outcome {
                wall_s,
                setup_s: retime_setup(setup_s, || parse_campaign(&input.text).map(drop))?,
                events: report.runs.iter().map(|r| r.n_events as u64).sum(),
                bytes,
                quality,
                campaign: Some(report),
            })
        }
    }
}

/// Per-layer metric values of one traced run, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn hook_sink() -> Arc<Mutex<HookStats>> {
    Arc::new(Mutex::new(HookStats::default()))
}

fn take_hooks(sink: &Arc<Mutex<HookStats>>) -> HookStats {
    sink.lock().expect("a traced policy panicked").clone()
}

/// Scheduler and LP metrics shared by every traced run.
fn scheduler_layers(
    l: &mut Layers,
    hooks: &HookStats,
    rs: Option<&ResolveStats>,
    events: f64,
    wall_s: f64,
    cores: f64,
) {
    l.insert("schedulers.plan_calls", hooks.plans as f64);
    l.insert("schedulers.plan_ns_p50", hooks.plan_hist.quantile(0.50));
    l.insert("schedulers.plan_ns_p99", hooks.plan_hist.quantile(0.99));
    l.insert(
        "schedulers.plan_share",
        hooks.plan_ns as f64 * 1e-9 / cores / wall_s,
    );
    l.insert(
        "schedulers.hook_ns_per_event",
        hooks.hook_ns as f64 / events,
    );
    if let Some(rs) = rs {
        let solves = rs.lp_solves() as f64;
        l.insert("schedulers.replans_warm", rs.warm_resolves as f64);
        l.insert("schedulers.replans_cold", rs.cold_resolves as f64);
        l.insert("lp.solves", solves);
        l.insert("lp.solves_per_replan", rs.mean_lp_solves_per_resolve());
        if solves > 0.0 {
            l.insert("lp.warm_solve_share", rs.warm_lp_solves as f64 / solves);
        }
    }
}

/// The traced run: the same work as [`run_untraced`], split into its
/// layers' public calls with a timer around each and every policy
/// wrapped in [`Traced`]. Its report bytes must equal the untraced
/// run's (`reference`, for the campaign the untraced report whose rows
/// it re-derives). `cores` is the effective parallelism of a sharded
/// drain, used to turn summed hook time into wall time.
pub fn run_traced(
    input: &Input,
    reference: Option<&CampaignReport>,
    cores: f64,
) -> Result<(Outcome, Layers), String> {
    let mut l: Layers = crate::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let out = match &input.trace {
        Some(job) => traced_trace(input, job, cores, &mut l)?,
        None => {
            let reference = reference.ok_or("the traced campaign run needs its untraced report")?;
            traced_campaign(input, reference, &mut l)?
        }
    };
    Ok((out, l))
}

fn traced_trace(
    input: &Input,
    job: &TraceJob,
    cores: f64,
    l: &mut Layers,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let trace = Trace::parse_dlt(&input.text)?;
    let parse_s = secs(t0);
    let spec = SchedulerSpec::parse_compact(job.scheduler)?;
    let sink = hook_sink();
    let n = trace.len();
    let allocs0 = allocmeter::alloc_count();
    let (report, engine_s, drain_cores) = if job.shards <= 1 {
        let mut policy = Traced::new(spec.build(), sink.clone());
        let t = Instant::now();
        let stats = trace
            .replay(&mut policy)
            .map_err(|e| format!("{}: {e}", spec.label()))?;
        let engine_s = secs(t);
        let report = ServiceReport {
            scheduler: spec.label(),
            input_kind: "trace",
            n_jobs: stats.n_jobs,
            n_machines: trace.n_machines(),
            n_events: stats.n_events,
            n_plans: stats.n_plans,
            utilization: stats.utilization,
            metrics: stats.metrics,
            max_active: stats.max_active,
            completions: Vec::new(),
            resolve_stats: policy.resolve_stats(),
        };
        (report, engine_s, 1.0)
    } else {
        // The path `run_simulation_with` takes for `--shards N`.
        let mut se = ShardedEngine::new(trace.n_machines(), job.shards);
        let mut policies: Vec<Box<dyn OnlineScheduler + Send>> = (0..se.n_shards())
            .map(|_| {
                Box::new(Traced::new(spec.build(), sink.clone())) as Box<dyn OnlineScheduler + Send>
            })
            .collect();
        for e in &trace.platform_events {
            se.push_platform_event(*e).map_err(|e| e.to_string())?;
        }
        se.set_record_completions(false);
        let t = Instant::now();
        for k in 0..n {
            se.push_arrival(trace.job_spec(k))
                .map_err(|e| e.to_string())?;
        }
        let route_s = secs(t);
        let t = Instant::now();
        se.drain(&mut policies).map_err(|e| e.to_string())?;
        let drain_s = secs(t);
        if se.n_completed() != n {
            return Err(format!(
                "sharded drain completed {} of {n} requests",
                se.n_completed()
            ));
        }
        let resolve_stats = policies
            .iter()
            .try_fold(ResolveStats::default(), |mut acc, p| {
                p.resolve_stats().map(|s| {
                    acc.merge(&s);
                    acc
                })
            });
        drop(policies);
        let drain_hook_s = take_hooks(&sink).hook_ns as f64 * 1e-9 / cores;
        let per_shard: Vec<f64> = (0..se.n_shards())
            .map(|s| se.shard(s).n_events() as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        let events = se.n_events() as f64;
        l.insert("shard.route_ns_per_arrival", route_s * 1e9 / n as f64);
        l.insert(
            "shard.drain_self_ns_per_event",
            (drain_s - drain_hook_s) * 1e9 / events,
        );
        l.insert(
            "shard.event_skew",
            per_shard.iter().copied().fold(0.0, f64::max) / mean,
        );
        l.insert("shard.platform_events", trace.platform_events.len() as f64);
        let report = ServiceReport {
            scheduler: spec.label(),
            input_kind: "trace",
            n_jobs: n,
            n_machines: trace.n_machines(),
            n_events: se.n_events(),
            n_plans: se.n_plans(),
            utilization: se.utilization(),
            metrics: se.metrics(),
            max_active: se.peak_active(),
            completions: Vec::new(),
            resolve_stats,
        };
        (report, route_s + drain_s, cores)
    };
    let allocs = allocmeter::alloc_count() - allocs0;
    let t = Instant::now();
    let bytes = report.to_json();
    let render_s = secs(t);
    let wall_s = secs(t0);
    check_trace_report(&report, job)?;

    let hooks = take_hooks(&sink);
    if hooks.completions != n as u64 {
        return Err(format!(
            "policies saw {} completions of {n} requests",
            hooks.completions
        ));
    }
    let events = report.n_events as f64;
    l.insert("workload.parse_dlt_s", parse_s);
    l.insert(
        "workload.parse_mb_per_s",
        input.text.len() as f64 / 1e6 / parse_s,
    );
    l.insert("engine.events", events);
    l.insert("engine.plans", report.n_plans as f64);
    l.insert("engine.peak_active", report.max_active as f64);
    l.insert(
        "engine.self_ns_per_event",
        (engine_s - hooks.hook_ns as f64 * 1e-9 / drain_cores) * 1e9 / events,
    );
    l.insert(
        "engine.allocs_per_event",
        allocs.saturating_sub(hooks.hook_allocs) as f64 / events,
    );
    scheduler_layers(
        l,
        &hooks,
        report.resolve_stats.as_ref(),
        events,
        wall_s,
        drain_cores,
    );
    l.insert("service.render_us", render_s * 1e6);
    Ok(Outcome {
        wall_s,
        setup_s: parse_s,
        events: report.n_events as u64,
        bytes,
        quality: trace_quality(&report),
        campaign: None,
    })
}

/// `dlflow_sim::campaign`'s scenario-seed derivation. The traced run
/// re-derives every scenario from it; a drift shows as an `opt_stretch`
/// mismatch against the untraced report.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scenario_seed(base: u64, pi: usize, wi: usize, k: u64) -> u64 {
    splitmix64(
        splitmix64(splitmix64(base.wrapping_add(pi as u64)).wrapping_add(wi as u64))
            .wrapping_add(k),
    )
}

fn traced_campaign(
    input: &Input,
    reference: &CampaignReport,
    l: &mut Layers,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let cfg = parse_campaign(&input.text)?;
    let setup_s = secs(t0);
    let model = CostModel::paper_scale();
    let sink = hook_sink();
    let mut rs_total = ResolveStats::default();
    let (mut maxflow_ms, mut probes, mut milestones, mut maxflow_allocs) = (Vec::new(), 0, 0, 0);
    let (mut ola_sim_s, mut other_sim_s, mut sim_allocs) = (0.0, 0.0, 0u64);
    let mut runs: Vec<RunRecord> = Vec::new();
    for pi in 0..cfg.platforms.len() {
        for wi in 0..cfg.workloads.len() {
            for k in 0..cfg.n_seeds {
                let seed = scenario_seed(cfg.seed_base, pi, wi, k);
                let platform = cfg.platforms[pi].realize(splitmix64(seed ^ 0xA5A5_A5A5));
                let requests =
                    cfg.workloads[wi].realize(&platform, &model, splitmix64(seed ^ 0x5A5A_5A5A));
                let base = platform
                    .instance_dyadic(&requests, &model, cfg.sig_bits)
                    .map_err(|e| format!("scenario ({pi},{wi},{k}): {e}"))?;
                let exact = base.to_exact_dyadic().with_stretch_weights();
                let a0 = allocmeter::alloc_count();
                let t = Instant::now();
                let flow =
                    min_max_weighted_flow_divisible_with(&exact, ProbeMethod::MaxFlowUniform);
                maxflow_ms.push(secs(t) * 1e3);
                maxflow_allocs += allocmeter::alloc_count() - a0;
                probes += flow.stats.n_probes;
                milestones += flow.stats.n_milestones;
                let opt_stretch = flow.optimum.to_f64();
                let sim_inst = if cfg.stretch_weights {
                    base.with_stretch_weights()
                } else {
                    base
                };
                for spec in &cfg.schedulers {
                    let mut policy = Traced::new(spec.build(), sink.clone());
                    let a0 = allocmeter::alloc_count();
                    let t = Instant::now();
                    let res = simulate(&sim_inst, &mut policy)
                        .map_err(|e| format!("scenario ({pi},{wi},{k}) / {}: {e}", spec.label()))?;
                    let dt = secs(t);
                    sim_allocs += allocmeter::alloc_count() - a0;
                    if matches!(
                        spec,
                        SchedulerSpec::Ola { .. } | SchedulerSpec::OlaLite { .. }
                    ) {
                        ola_sim_s += dt;
                    } else {
                        other_sim_s += dt;
                    }
                    if let Some(rs) = policy.resolve_stats() {
                        rs_total.merge(&rs);
                    }
                    let m = RunMetrics::from_completions(&sim_inst, &res.completions);
                    runs.push(RunRecord {
                        platform: cfg.platforms[pi].name.clone(),
                        workload: cfg.workloads[wi].name.clone(),
                        seed: k,
                        scheduler: spec.label(),
                        max_stretch: m.max_stretch,
                        sum_stretch: m.sum_stretch,
                        makespan: m.makespan,
                        utilization: res.utilization(&sim_inst),
                        max_weighted_flow: m.max_weighted_flow,
                        opt_stretch,
                        stretch_ratio: m.max_stretch / opt_stretch,
                        n_events: res.n_events,
                        n_plans: res.n_plans,
                    });
                }
            }
        }
    }
    // Rows re-derived here, rendered under the untraced report's
    // aggregates: byte equality proves every row, optimum included, is
    // the same.
    let t = Instant::now();
    let mut report = reference.clone();
    report.runs = runs;
    let bytes = report.to_json() + &report.to_markdown();
    let render_s = secs(t);
    let wall_s = secs(t0);
    let quality = check_campaign_report(&report, ola_index(&cfg.schedulers)?)?;

    let hooks = take_hooks(&sink);
    let events: f64 = report.runs.iter().map(|r| r.n_events as f64).sum();
    let sim_s = ola_sim_s + other_sim_s;
    maxflow_ms.sort_by(f64::total_cmp);
    l.insert("engine.events", events);
    l.insert(
        "engine.plans",
        report.runs.iter().map(|r| r.n_plans as f64).sum(),
    );
    l.insert(
        "engine.self_ns_per_event",
        (sim_s - hooks.hook_ns as f64 * 1e-9) * 1e9 / events,
    );
    l.insert(
        "engine.allocs_per_event",
        sim_allocs.saturating_sub(hooks.hook_allocs) as f64 / events,
    );
    let rs = (rs_total.n_resolves > 0).then_some(&rs_total);
    scheduler_layers(l, &hooks, rs, events, wall_s, 1.0);
    l.insert("maxflow.ms_per_scenario_p50", crate::median(&maxflow_ms));
    l.insert(
        "maxflow.ms_per_scenario_max",
        maxflow_ms.last().copied().unwrap_or(0.0),
    );
    l.insert("maxflow.probes", probes as f64);
    l.insert("maxflow.milestones", milestones as f64);
    l.insert("maxflow.allocs", maxflow_allocs as f64);
    l.insert("campaign.ola_sim_s", ola_sim_s);
    l.insert("campaign.other_sim_s", other_sim_s);
    l.insert("campaign.render_ms", render_s * 1e3);
    Ok(Outcome {
        wall_s,
        setup_s,
        events: events as u64,
        bytes,
        quality,
        campaign: None,
    })
}
