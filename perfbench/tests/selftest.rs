//! Self-tests of the benchmark: every workload at a tiny size, traced and
//! untraced, on the development seed and a held-out one; metric names
//! against `BENCHMARK.json`; and byte-transparency of the traced policy
//! wrapper for every scheduler kind the workloads use.

use dlflow_sim::campaign::{SchedulerSpec, QUICK_CONFIG};
use dlflow_sim::service::{run_simulation_with, ServiceReport, SimInput, SimOptions};
use dlflow_sim::workload::{generate_trace, Trace, TraceSpec};
use perfbench::host::Calibration;
use perfbench::tracer::{HookStats, Traced};
use perfbench::workloads::{Scale, Workload};
use perfbench::{run, RunConfig, END_TO_END, PER_LAYER};
use std::sync::{Arc, Mutex};

const SEEDS: [u64; 2] = [1, 7919];

fn calibration() -> Calibration {
    Calibration {
        nproc: 2,
        parallel_efficiency: 0.5,
        pinned: false,
    }
}

/// `(name, unit, better)` of every metric object in one section of
/// `BENCHMARK.json`, in file order.
fn json_metrics(section: &str) -> Vec<(String, String, String)> {
    let field = |obj: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let start = obj
            .find(&tag)
            .unwrap_or_else(|| panic!("{obj} has no {key}"))
            + tag.len();
        obj[start..][..obj[start..].find('"').expect("closing quote")].to_string()
    };
    let body = &section[section.find('[').expect("metric list")..];
    let body = &body[..=body.find(']').expect("end of metric list")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = benchmark_json();
    for (key, defs) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
        let section = &json[json.find(key).expect("metric section")..];
        let want: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(json_metrics(section), want, "{key}");
    }
    let workloads = &json[json.find("\"workloads\"").expect("workload list")..];
    let workloads = &workloads[..workloads.find(']').expect("end of workload list")];
    let listed: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    for name in listed {
        assert!(
            Workload::from_name(name).is_some(),
            "unknown workload {name}"
        );
    }
}

#[test]
fn every_workload_runs_tiny_and_emits_its_metrics() {
    for w in Workload::ALL {
        for seed in SEEDS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload: w,
                    seed,
                    seconds: 0.0,
                    trace,
                    scale: Scale::TINY,
                };
                let r = run(&cfg, &calibration());
                assert!(
                    r.correct,
                    "{} seed {seed} trace {trace}: {:?}",
                    w.name(),
                    r.notes
                );
                assert_eq!(r.failed, 0);
                assert_eq!(r.attempted, if trace { 4 } else { 2 });
                let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
                    .iter()
                    .map(|d| d.name)
                    .collect();
                assert_eq!(names, want);
                let json = r.to_json();
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                assert!(!json.contains('\n'));
            }
        }
    }
}

#[test]
fn same_seed_same_input_and_trace_seeds_differ() {
    for w in Workload::ALL {
        let a = perfbench::workloads::make_input(w, 3, Scale::TINY);
        let b = perfbench::workloads::make_input(w, 3, Scale::TINY);
        let c = perfbench::workloads::make_input(w, 4, Scale::TINY);
        assert_eq!(a.text, b.text, "{}", w.name());
        // The campaign seeds its scenarios inside its config.
        let seeded = w != Workload::CampaignQuick;
        assert_eq!(a.text != c.text, seeded, "{}", w.name());
    }
}

/// Replays `trace` under `spec` through the wrapper, the way the traced
/// run does, and renders the report `run_simulation_with` would.
fn traced_report(trace: &Trace, spec: &SchedulerSpec) -> (String, HookStats) {
    let sink = Arc::new(Mutex::new(HookStats::default()));
    let mut policy = Traced::new(spec.build(), sink.clone());
    let stats = trace.replay(&mut policy).expect("traced replay");
    let report = ServiceReport {
        scheduler: dlflow_sim::engine::OnlineScheduler::name(&policy),
        input_kind: "trace",
        n_jobs: stats.n_jobs,
        n_machines: trace.n_machines(),
        n_events: stats.n_events,
        n_plans: stats.n_plans,
        utilization: stats.utilization,
        metrics: stats.metrics,
        max_active: stats.max_active,
        completions: Vec::new(),
        resolve_stats: dlflow_sim::engine::OnlineScheduler::resolve_stats(&policy),
    };
    drop(policy);
    let hooks = sink.lock().expect("sink").clone();
    (report.to_json(), hooks)
}

#[test]
fn wrapper_is_byte_transparent_for_every_scheduler_kind() {
    let trace = generate_trace(&TraceSpec {
        n_requests: 150,
        seed: 5,
        ..TraceSpec::default()
    });
    // Every entrant of the quick campaign, plus the trace workloads'.
    let mut kinds: Vec<String> = QUICK_CONFIG
        .lines()
        .filter_map(|l| l.strip_prefix("scheduler "))
        .map(|k| k.trim().replace(' ', ":"))
        .collect();
    kinds.extend(["swrpt".into(), "ola".into()]);
    assert!(kinds.len() >= 6, "{kinds:?}");
    for kind in &kinds {
        let spec = SchedulerSpec::parse_compact(kind).expect("compact spec");
        let (plain, _) = run_simulation_with(
            &SimInput::Open(trace.clone()),
            &spec,
            &SimOptions::default(),
        )
        .expect("untraced run");
        let (traced, hooks) = traced_report(&trace, &spec);
        assert_eq!(traced, plain.to_json(), "{kind}");
        assert_eq!(hooks.completions, 150, "{kind}");
        assert_eq!(hooks.arrivals, 150, "{kind}");
        assert_eq!(hooks.plans as usize, plain.n_plans, "{kind}");
    }
}
