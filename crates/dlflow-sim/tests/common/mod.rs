//! Helpers shared by the OLA-family integration tests: small seeded
//! traces at three fault intensities, engine loading, and completion
//! extraction as exact bit patterns.

use dlflow_sim::engine::{Engine, OnlineScheduler, StepOutcome};
use dlflow_sim::workload::{generate_trace, FaultProcess, Trace, TraceSpec};

/// A small trace at one of three fault intensities: 0 = fault-free,
/// 1 = moderate (occasional outage), 2 = harsh (machines spend a
/// comparable share of the horizon down as up).
pub fn traced(seed: u64, n: usize, intensity: u8) -> Trace {
    let (mtbf, mttr) = match intensity {
        1 => (8.0, 2.0),
        2 => (3.0, 3.0),
        _ => (0.0, 0.0),
    };
    generate_trace(&TraceSpec {
        n_requests: n,
        n_machines: 3,
        seed,
        faults: (intensity > 0).then_some(FaultProcess {
            mtbf,
            mttr,
            horizon: 30.0,
            seed: seed ^ 0x01A0,
        }),
        ..Default::default()
    })
}

/// Pushes the whole trace (arrivals + platform events) into a fresh
/// engine.
pub fn load(trace: &Trace) -> Engine {
    let mut eng = Engine::new(trace.n_machines());
    for e in &trace.platform_events {
        eng.push_platform_event(*e).unwrap();
    }
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).unwrap();
    }
    eng
}

/// Completions as `(id, completion-bits)`, sorted by id.
pub fn completions_of(eng: &mut Engine) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> = eng
        .take_completed()
        .into_iter()
        .map(|c| (c.id, c.completion.to_bits()))
        .collect();
    out.sort_unstable();
    out
}

/// Runs `policy` on `trace`, snapshotting the engine every `every`
/// events and restoring it into a brand-new policy from `fresh` (empty
/// caches, empty warm basis). Returns the completions and the final
/// policy, whose telemetry restarted at each restore.
pub fn run_interrupted<P: OnlineScheduler>(
    trace: &Trace,
    every: usize,
    fresh: impl Fn() -> P,
) -> (Vec<(usize, u64)>, P) {
    let mut policy = fresh();
    policy.reset();
    let mut eng = load(trace);
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "interrupted run does not terminate");
        if eng.step(&mut policy).unwrap() == StepOutcome::Idle {
            break;
        }
        if eng.n_events().is_multiple_of(every) {
            let snap = eng.snapshot(&policy);
            let mut revived = fresh();
            eng = Engine::restore(&snap, &mut revived).unwrap();
            policy = revived;
        }
    }
    (completions_of(&mut eng), policy)
}
