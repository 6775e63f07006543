//! The replayable `simulate` service: one entry point that runs any
//! scheduler over either a **closed instance** or an **open-arrival
//! trace** and renders a deterministic report — the library half of the
//! `dlflow simulate` CLI subcommand.
//!
//! Reports are plain data plus hand-rendered JSON (the offline
//! dependency set has no serde): the same input always produces
//! byte-identical output, so a `dlflow simulate` invocation is a
//! reproducible, replayable record of a run.
//!
//! ## Example
//!
//! ```
//! use dlflow_sim::campaign::SchedulerSpec;
//! use dlflow_sim::service::{run_simulation, SimInput};
//! use dlflow_sim::workload::{generate_trace, TraceSpec};
//!
//! let trace = generate_trace(&TraceSpec { n_requests: 30, ..Default::default() });
//! let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
//! let report = run_simulation(&SimInput::Open(trace), &spec).unwrap();
//! assert_eq!(report.n_jobs, 30);
//! assert!(report.to_json().contains("\"scheduler\": \"SWRPT\""));
//! ```

use crate::campaign::SchedulerSpec;
use crate::engine::{
    simulate, Engine, OnlineScheduler, ResolveStats, RunMetrics, SimResult, StepOutcome,
};
use crate::shard::ShardedEngine;
use crate::workload::{FaultProcess, Trace};
use dlflow_core::instance::Instance;

/// What to simulate: a closed instance (all jobs known up front) or an
/// open-arrival trace (requests streamed through the incremental
/// engine).
pub enum SimInput {
    /// A closed instance — every job pushed at start, per-job
    /// completions reported.
    Closed(Instance<f64>),
    /// An open trace — replayed with memory proportional to the
    /// in-flight request count.
    Open(Trace),
}

/// Outcome of one service run: counters plus metrics, rendering to text
/// and deterministic JSON.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Scheduler label (the policy's self-reported name).
    pub scheduler: String,
    /// `"instance"` or `"trace"`.
    pub input_kind: &'static str,
    /// Jobs simulated.
    pub n_jobs: usize,
    /// Machines.
    pub n_machines: usize,
    /// Events processed.
    pub n_events: usize,
    /// `plan` invocations.
    pub n_plans: usize,
    /// Run metrics.
    pub metrics: RunMetrics,
    /// Fleet utilization over `[first release, makespan]`.
    pub utilization: f64,
    /// Largest number of simultaneously in-flight jobs (trace replays
    /// only; equals 0 for closed instances, where the engine does not
    /// track it).
    pub max_active: usize,
    /// Per-job completion times (closed instances only; empty for
    /// trace replays, which stream completions instead of storing them).
    pub completions: Vec<f64>,
    /// Re-solve cost telemetry, for policies that report it (OLA and
    /// its variants); `None` for policies that do no LP re-solving.
    /// Sharded runs aggregate across shards.
    pub resolve_stats: Option<ResolveStats>,
}

/// Fault injection requested on the command line: a seeded MTBF/MTTR
/// process layered on top of whatever platform events the input already
/// carries. `until` bounds the failure window; when `None` it defaults
/// to the input's own span (last release, plus the serial work for
/// closed instances).
#[derive(Clone, Debug)]
pub struct FaultInjection {
    /// Mean time between failures, seconds.
    pub mtbf: f64,
    /// Mean time to repair, seconds.
    pub mttr: f64,
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Failure-window end (`None` = derive from the input).
    pub until: Option<f64>,
}

/// Optional service behaviors behind `dlflow simulate`'s fault and
/// snapshot flags. [`Default`] is the plain run.
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Inject a seeded failure/recovery schedule.
    pub faults: Option<FaultInjection>,
    /// Take one snapshot when the engine's event counter first reaches
    /// this value (the run still continues to completion).
    pub snapshot_at: Option<usize>,
    /// Resume from this snapshot text instead of starting at `t = 0`
    /// (the snapshot carries the full engine + scheduler state, so the
    /// input's arrivals are **not** re-pushed).
    pub resume: Option<String>,
    /// Partition the platform into this many contiguous machine shards,
    /// each drained by its own engine + scheduler instance (`0` and `1`
    /// both mean the flat single-engine path). Sharding is incompatible
    /// with snapshot/resume — the snapshot format covers one engine.
    pub shards: usize,
}

impl SimOptions {
    fn is_plain(&self) -> bool {
        self.faults.is_none()
            && self.snapshot_at.is_none()
            && self.resume.is_none()
            && self.shards <= 1
    }
}

/// Default failure window of an input: everything after the last
/// release (plus, for closed instances, the serial work on the fastest
/// machines) counts as the drain phase and stays fault-free.
fn default_horizon(input: &SimInput) -> f64 {
    match input {
        SimInput::Closed(inst) => {
            let max_release = (0..inst.n_jobs())
                .map(|j| inst.job(j).release)
                .fold(0.0f64, f64::max);
            let serial: f64 = (0..inst.n_jobs()).map(|j| inst.fastest_cost(j)).sum();
            max_release + serial
        }
        SimInput::Open(trace) => (0..trace.len())
            .map(|k| trace.job_spec(k).release)
            .fold(0.0f64, f64::max),
    }
}

fn input_machines(input: &SimInput) -> usize {
    match input {
        SimInput::Closed(inst) => inst.n_machines(),
        SimInput::Open(trace) => trace.n_machines(),
    }
}

/// Runs `spec`'s scheduler over the input with fault-injection and
/// snapshot/resume options. Returns the report plus the snapshot text,
/// if one was requested and taken. The plain-options path is exactly
/// [`run_simulation`].
pub fn run_simulation_with(
    input: &SimInput,
    spec: &SchedulerSpec,
    opts: &SimOptions,
) -> Result<(ServiceReport, Option<String>), String> {
    if opts.is_plain() {
        return Ok((run_simulation(input, spec)?, None));
    }
    if opts.resume.is_some() && opts.faults.is_some() {
        return Err(
            "--resume and --faults cannot be combined: the snapshot already carries its \
             fault schedule"
                .into(),
        );
    }
    if opts.shards > 1 {
        if opts.resume.is_some() || opts.snapshot_at.is_some() {
            return Err(
                "--shards: snapshot and resume cover a single engine; rerun without sharding"
                    .into(),
            );
        }
        return run_sharded(input, spec, opts);
    }
    let mut policy = spec.build();
    let m = input_machines(input);
    let (kind, n_jobs_hint) = match input {
        SimInput::Closed(inst) => ("instance", inst.n_jobs()),
        SimInput::Open(trace) => ("trace", trace.len()),
    };

    let mut eng = if let Some(snap) = &opts.resume {
        let eng = Engine::restore(snap, policy.as_mut()).map_err(|e| format!("--resume: {e}"))?;
        if eng.n_machines() != m {
            return Err(format!(
                "--resume: snapshot has {} machines but the input has {m}",
                eng.n_machines()
            ));
        }
        eng
    } else {
        policy.reset();
        let mut eng = Engine::new(m);
        if let SimInput::Open(trace) = input {
            for e in &trace.platform_events {
                eng.push_platform_event(*e).map_err(|e| e.to_string())?;
            }
        }
        if let Some(f) = &opts.faults {
            let horizon = f.until.unwrap_or_else(|| default_horizon(input));
            let window_ok = horizon.is_finite() && horizon > 0.0;
            if !window_ok {
                return Err("--faults: the failure window is empty (set until=<t>)".into());
            }
            let process = FaultProcess {
                mtbf: f.mtbf,
                mttr: f.mttr,
                horizon,
                seed: f.seed,
            };
            for e in process.sample(m) {
                eng.push_platform_event(e).map_err(|e| e.to_string())?;
            }
        }
        match input {
            SimInput::Closed(inst) => {
                for j in 0..inst.n_jobs() {
                    eng.push_arrival(crate::engine::job_spec_of(inst, j))
                        .map_err(|e| e.to_string())?;
                }
            }
            SimInput::Open(trace) => {
                eng.record_completions = false;
                for k in 0..trace.len() {
                    eng.push_arrival(trace.job_spec(k))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        eng
    };

    let mut snapshot = None;
    let mut max_active = 0usize;
    let mut guard = 0usize;
    let budget =
        4 * (n_jobs_hint + eng.pending_len() + eng.active().len()) + 2 * eng.n_events() + 64;
    loop {
        guard += 1;
        if guard > budget.saturating_mul(8) {
            return Err("simulation exceeded its event budget (engine stuck?)".into());
        }
        max_active = max_active.max(eng.active().len());
        if snapshot.is_none() && opts.snapshot_at.is_some_and(|at| eng.n_events() >= at) {
            snapshot = Some(eng.snapshot(policy.as_ref()));
        }
        if eng.step(policy.as_mut()).map_err(|e| e.to_string())? == StepOutcome::Idle {
            break;
        }
    }
    // A snapshot point past the final event degenerates to the end state.
    if snapshot.is_none() && opts.snapshot_at.is_some() {
        snapshot = Some(eng.snapshot(policy.as_ref()));
    }

    let completions = if matches!(input, SimInput::Closed(_)) && opts.resume.is_none() {
        let mut done: Vec<(usize, f64)> = eng
            .take_completed()
            .into_iter()
            .map(|c| (c.id, c.completion))
            .collect();
        done.sort_unstable_by_key(|&(id, _)| id);
        done.into_iter().map(|(_, c)| c).collect()
    } else {
        Vec::new()
    };

    let report = ServiceReport {
        scheduler: spec.label(),
        input_kind: kind,
        n_jobs: eng.n_completed(),
        n_machines: m,
        n_events: eng.n_events(),
        n_plans: eng.n_plans(),
        utilization: eng.utilization(),
        metrics: eng.metrics(),
        max_active,
        completions,
        resolve_stats: policy.resolve_stats(),
    };
    Ok((report, snapshot))
}

/// The multi-cluster path behind `--shards N`: one [`ShardedEngine`]
/// over the input's machines, one scheduler instance per shard, faults
/// routed by global machine index. Closed instances report per-job
/// completions from the deterministic merged stream; open traces stream
/// them exactly like the flat path.
fn run_sharded(
    input: &SimInput,
    spec: &SchedulerSpec,
    opts: &SimOptions,
) -> Result<(ServiceReport, Option<String>), String> {
    let m = input_machines(input);
    let mut se = ShardedEngine::new(m, opts.shards);
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        (0..se.n_shards()).map(|_| spec.build()).collect();
    if let SimInput::Open(trace) = input {
        for e in &trace.platform_events {
            se.push_platform_event(*e).map_err(|e| e.to_string())?;
        }
    }
    if let Some(f) = &opts.faults {
        let horizon = f.until.unwrap_or_else(|| default_horizon(input));
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err("--faults: the failure window is empty (set until=<t>)".into());
        }
        let process = FaultProcess {
            mtbf: f.mtbf,
            mttr: f.mttr,
            horizon,
            seed: f.seed,
        };
        for e in process.sample(m) {
            se.push_platform_event(e).map_err(|e| e.to_string())?;
        }
    }
    let (kind, n_jobs) = match input {
        SimInput::Closed(inst) => {
            se.set_record_completions(true);
            for j in 0..inst.n_jobs() {
                se.push_arrival(crate::engine::job_spec_of(inst, j))
                    .map_err(|e| e.to_string())?;
            }
            ("instance", inst.n_jobs())
        }
        SimInput::Open(trace) => {
            se.set_record_completions(false);
            for k in 0..trace.len() {
                se.push_arrival(trace.job_spec(k))
                    .map_err(|e| e.to_string())?;
            }
            ("trace", trace.len())
        }
    };
    se.drain(&mut policies).map_err(|e| e.to_string())?;
    let completions = if matches!(input, SimInput::Closed(_)) {
        let mut done: Vec<(usize, f64)> = se
            .take_completed()
            .into_iter()
            .map(|c| (c.id, c.completion))
            .collect();
        done.sort_unstable_by_key(|&(id, _)| id);
        done.into_iter().map(|(_, c)| c).collect()
    } else {
        Vec::new()
    };
    let report = ServiceReport {
        scheduler: spec.label(),
        input_kind: kind,
        n_jobs,
        n_machines: m,
        n_events: se.n_events(),
        n_plans: se.n_plans(),
        utilization: se.utilization(),
        metrics: se.metrics(),
        max_active: se.peak_active(),
        completions,
        // Aggregate across shards; a single shard without telemetry
        // means the policy kind reports none at all.
        resolve_stats: policies
            .iter()
            .try_fold(ResolveStats::default(), |mut acc, p| {
                p.resolve_stats().map(|s| {
                    acc.merge(&s);
                    acc
                })
            }),
    };
    Ok((report, None))
}

/// Runs `spec`'s scheduler over the input. Closed instances go through
/// [`simulate`]; open traces through [`Trace::replay`].
pub fn run_simulation(input: &SimInput, spec: &SchedulerSpec) -> Result<ServiceReport, String> {
    let mut policy = spec.build();
    match input {
        SimInput::Closed(inst) => {
            let res: SimResult =
                simulate(inst, policy.as_mut()).map_err(|e| format!("{}: {e}", spec.label()))?;
            let metrics = RunMetrics::from_completions(inst, &res.completions);
            Ok(ServiceReport {
                scheduler: spec.label(),
                input_kind: "instance",
                n_jobs: inst.n_jobs(),
                n_machines: inst.n_machines(),
                n_events: res.n_events,
                n_plans: res.n_plans,
                utilization: res.utilization(inst),
                metrics,
                max_active: 0,
                completions: res.completions,
                resolve_stats: policy.resolve_stats(),
            })
        }
        SimInput::Open(trace) => {
            let stats = trace
                .replay(policy.as_mut())
                .map_err(|e| format!("{}: {e}", spec.label()))?;
            Ok(ServiceReport {
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
            })
        }
    }
}

/// Formats a float for report output: fixed 6 decimals, deterministic.
fn f6(v: f64) -> String {
    format!("{v:.6}")
}

impl ServiceReport {
    /// Human-readable summary.
    pub fn to_text(&self) -> String {
        let m = &self.metrics;
        let mut s = String::new();
        s.push_str(&format!(
            "{} over {} ({} jobs, {} machines)\n",
            self.scheduler, self.input_kind, self.n_jobs, self.n_machines
        ));
        s.push_str(&format!(
            "  events: {}   plans: {}   utilization: {:.3}",
            self.n_events, self.n_plans, self.utilization
        ));
        if self.max_active > 0 {
            s.push_str(&format!("   peak in-flight: {}", self.max_active));
        }
        s.push('\n');
        if let Some(rs) = &self.resolve_stats {
            s.push_str(&format!(
                "  re-solves: {} ({} warm-served + {} cold)   LP solves: {} warm + {} cold   mean LP/resolve: {:.2}\n",
                rs.n_resolves,
                rs.warm_resolves,
                rs.cold_resolves,
                rs.warm_lp_solves,
                rs.cold_lp_solves,
                rs.mean_lp_solves_per_resolve()
            ));
        }
        s.push_str(&format!(
            "  max stretch: {:.6}   sum stretch: {:.6}\n",
            m.max_stretch, m.sum_stretch
        ));
        s.push_str(&format!(
            "  max flow: {:.6}   mean flow: {:.6}   max weighted flow: {:.6}\n",
            m.max_flow, m.mean_flow, m.max_weighted_flow
        ));
        s.push_str(&format!("  makespan: {:.6}\n", m.makespan));
        s
    }

    /// Deterministic machine-readable JSON (same input → byte-identical
    /// bytes; no serde in the offline dependency set).
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"scheduler\": \"{}\",\n", self.scheduler));
        s.push_str(&format!("  \"input\": \"{}\",\n", self.input_kind));
        s.push_str(&format!("  \"n_jobs\": {},\n", self.n_jobs));
        s.push_str(&format!("  \"n_machines\": {},\n", self.n_machines));
        s.push_str(&format!("  \"n_events\": {},\n", self.n_events));
        s.push_str(&format!("  \"n_plans\": {},\n", self.n_plans));
        if let Some(rs) = &self.resolve_stats {
            s.push_str(&format!("  \"n_resolves\": {},\n", rs.n_resolves));
            s.push_str(&format!("  \"warm_resolves\": {},\n", rs.warm_resolves));
            s.push_str(&format!("  \"cold_resolves\": {},\n", rs.cold_resolves));
            s.push_str(&format!("  \"warm_lp_solves\": {},\n", rs.warm_lp_solves));
            s.push_str(&format!("  \"cold_lp_solves\": {},\n", rs.cold_lp_solves));
            s.push_str(&format!(
                "  \"mean_lp_solves_per_resolve\": {},\n",
                f6(rs.mean_lp_solves_per_resolve())
            ));
        }
        s.push_str(&format!("  \"max_active\": {},\n", self.max_active));
        s.push_str(&format!("  \"utilization\": {},\n", f6(self.utilization)));
        s.push_str(&format!("  \"max_stretch\": {},\n", f6(m.max_stretch)));
        s.push_str(&format!("  \"sum_stretch\": {},\n", f6(m.sum_stretch)));
        s.push_str(&format!("  \"max_flow\": {},\n", f6(m.max_flow)));
        s.push_str(&format!("  \"mean_flow\": {},\n", f6(m.mean_flow)));
        s.push_str(&format!(
            "  \"max_weighted_flow\": {},\n",
            f6(m.max_weighted_flow)
        ));
        s.push_str(&format!("  \"makespan\": {}", f6(m.makespan)));
        if self.completions.is_empty() {
            s.push('\n');
        } else {
            s.push_str(",\n  \"completions\": [");
            for (j, c) in self.completions.iter().enumerate() {
                let comma = if j + 1 == self.completions.len() {
                    ""
                } else {
                    ", "
                };
                s.push_str(&format!("{}{comma}", f6(*c)));
            }
            s.push_str("]\n");
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, generate_trace, TraceSpec, WorkloadSpec};

    #[test]
    fn closed_and_open_runs_report_consistently() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 30,
            seed: 4,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("srpt").unwrap();
        let open = run_simulation(&SimInput::Open(trace.clone()), &spec).unwrap();
        let closed =
            run_simulation(&SimInput::Closed(trace.to_instance().unwrap()), &spec).unwrap();
        assert_eq!(open.n_events, closed.n_events);
        assert_eq!(open.n_plans, closed.n_plans);
        assert!((open.metrics.max_stretch - closed.metrics.max_stretch).abs() < 1e-9);
        assert_eq!(open.completions.len(), 0);
        assert_eq!(closed.completions.len(), 30);
        assert!(open.max_active >= 1);
    }

    #[test]
    fn fault_injection_with_snapshot_resume_matches_the_straight_run() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 25,
            seed: 11,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        let opts = SimOptions {
            faults: Some(FaultInjection {
                mtbf: 6.0,
                mttr: 1.5,
                seed: 3,
                until: None,
            }),
            snapshot_at: Some(20),
            resume: None,
            shards: 0,
        };
        let input = SimInput::Open(trace);
        let (full, snap) = run_simulation_with(&input, &spec, &opts).unwrap();
        assert_eq!(full.n_jobs, 25);
        let snap = snap.expect("snapshot taken");

        // Resuming the snapshot finishes the same run: identical final
        // event count and bit-identical metrics.
        let resume = SimOptions {
            resume: Some(snap.clone()),
            ..Default::default()
        };
        let (resumed, none) = run_simulation_with(&input, &spec, &resume).unwrap();
        assert!(none.is_none());
        assert_eq!(resumed.n_jobs, 25);
        assert_eq!(resumed.n_events, full.n_events);
        assert_eq!(
            resumed.metrics.makespan.to_bits(),
            full.metrics.makespan.to_bits()
        );
        assert_eq!(
            resumed.metrics.max_stretch.to_bits(),
            full.metrics.max_stretch.to_bits()
        );

        // Resuming into a different scheduler kind is a typed refusal,
        // and --resume + --faults cannot be combined.
        let edf = SchedulerSpec::parse_compact("edf").unwrap();
        let err = run_simulation_with(&input, &edf, &resume).unwrap_err();
        assert!(err.contains("cannot restore into"), "{err}");
        let both = SimOptions {
            faults: opts.faults.clone(),
            resume: Some(snap),
            ..Default::default()
        };
        let err = run_simulation_with(&input, &spec, &both).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn plain_options_take_the_plain_path() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 20,
            seed: 5,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("mct").unwrap();
        let plain = run_simulation(&SimInput::Open(trace.clone()), &spec).unwrap();
        let (with, snap) =
            run_simulation_with(&SimInput::Open(trace), &spec, &SimOptions::default()).unwrap();
        assert!(snap.is_none());
        assert_eq!(plain.to_json(), with.to_json());
    }

    #[test]
    fn sharded_runs_report_deterministically_and_refuse_snapshots() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 40,
            n_machines: 4,
            seed: 9,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        let opts = SimOptions {
            shards: 2,
            ..Default::default()
        };
        let input = SimInput::Open(trace.clone());
        let (a, snap) = run_simulation_with(&input, &spec, &opts).unwrap();
        assert!(snap.is_none());
        assert_eq!(a.n_jobs, 40);
        let (b, _) = run_simulation_with(&input, &spec, &opts).unwrap();
        assert_eq!(a.to_json(), b.to_json());

        // Closed instances report the merged per-job completion times.
        let closed = SimInput::Closed(trace.to_instance().unwrap());
        let (c, _) = run_simulation_with(&closed, &spec, &opts).unwrap();
        assert_eq!(c.completions.len(), 40);
        assert!(c.completions.iter().all(|t| t.is_finite()));

        // Snapshots cover one engine; sharded runs refuse them.
        let bad = SimOptions {
            shards: 2,
            snapshot_at: Some(5),
            ..Default::default()
        };
        let err = run_simulation_with(&input, &spec, &bad).unwrap_err();
        assert!(err.contains("single engine"), "{err}");

        // Sharded fault injection drains to completion.
        let faulty = SimOptions {
            shards: 2,
            faults: Some(FaultInjection {
                mtbf: 8.0,
                mttr: 2.0,
                seed: 5,
                until: None,
            }),
            ..Default::default()
        };
        let (f, _) = run_simulation_with(&input, &spec, &faulty).unwrap();
        assert_eq!(f.n_jobs, 40);
        assert!(f.metrics.makespan.is_finite());
    }

    #[test]
    fn eager_warm_ola_reports_warm_dominated_resolve_costs() {
        // OLA-lite, the one user of the warm path: a 1k-arrival replay
        // must engage the warm machinery on nearly every re-plan — if
        // the warm path silently degrades to cold everywhere, this
        // trips. The *event-level* counters are the honest yardstick:
        // every resolve deliberately ends with a cold rate solve, so
        // per-LP counts need not show warm ≫ cold, but per-resolve
        // counts must.
        let trace = generate_trace(&TraceSpec {
            n_requests: 1000,
            seed: 7,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("olalite").unwrap();
        let report = run_simulation(&SimInput::Open(trace), &spec).unwrap();
        let rs = report
            .resolve_stats
            .expect("OLA-lite reports resolve telemetry");
        assert!(rs.n_resolves > 0);
        assert_eq!(rs.warm_resolves + rs.cold_resolves, rs.n_resolves);
        assert!(
            rs.warm_resolves > 10 * rs.cold_resolves.max(1),
            "OLA-lite must serve re-plans warm ≫ cold: {} warm vs {} cold",
            rs.warm_resolves,
            rs.cold_resolves
        );
        assert!(
            rs.warm_lp_solves > 0 && rs.cold_lp_solves > 0,
            "both LP paths must be exercised: {rs:?}"
        );
        assert!(rs.mean_lp_solves_per_resolve() > 1.0);

        // Telemetry renders in both formats…
        let json = report.to_json();
        assert!(json.contains("\"warm_resolves\""));
        assert!(json.contains("\"warm_lp_solves\""));
        assert!(json.contains("\"mean_lp_solves_per_resolve\""));
        assert!(report.to_text().contains("warm-served"));
        assert!(report.to_text().contains("mean LP/resolve"));

        // …and stays absent for policies that do no LP re-solving.
        let inert = SchedulerSpec::parse_compact("swrpt").unwrap();
        let trace = generate_trace(&TraceSpec {
            n_requests: 20,
            seed: 7,
            ..Default::default()
        });
        let plain = run_simulation(&SimInput::Open(trace), &inert).unwrap();
        assert!(plain.resolve_stats.is_none());
        assert!(!plain.to_json().contains("\"warm_lp_solves\""));
    }

    #[test]
    fn sharded_ola_aggregates_resolve_stats_across_shards() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 30,
            n_machines: 4,
            seed: 9,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("ola").unwrap();
        let opts = SimOptions {
            shards: 2,
            ..Default::default()
        };
        let (report, _) = run_simulation_with(&SimInput::Open(trace), &spec, &opts).unwrap();
        let rs = report.resolve_stats.expect("sharded OLA merges telemetry");
        assert!(rs.n_resolves > 0);
        assert!(rs.lp_solves() >= rs.n_resolves);
    }

    #[test]
    fn reports_are_byte_stable() {
        let inst = generate(&WorkloadSpec {
            n_jobs: 6,
            seed: 8,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("mct").unwrap();
        let a = run_simulation(&SimInput::Closed(inst.clone()), &spec).unwrap();
        let b = run_simulation(&SimInput::Closed(inst), &spec).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
        assert!(a.to_json().contains("\"completions\": ["));
    }
}
