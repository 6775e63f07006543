//! **OLA-lite**: the OLA family's warm-path member.
//!
//! [`super::OfflineAdapt`] finds the optimal objective `F` of every
//! event's sub-problem exactly, by Theorem 2's milestone search (about
//! 2–3 cold LP solves per event). `OlaLite` instead exploits temporal
//! coherence: the optimal `F` moves slowly between consecutive events (a
//! completion can only shrink it, an arrival usually grows it by one
//! job's worth of flow). It remembers the objective the previous event
//! settled on and **geometrically walks** it into place with factor
//! `α > 1`:
//!
//! * if `F` is still feasible, shrink `F ← F/α` while feasibility
//!   holds (tracking the last feasible value);
//! * if it is not, grow `F ← F·α` until it is, capped by the serial
//!   upper bound `hi` of `bracket` (feasible by construction).
//!
//! In steady state the walk terminates after O(1) probes, and after a
//! burst that moves the optimum by a factor `R` it needs `O(log_α R)`
//! probes. The price is resolution: the committed `F` overshoots the
//! optimum by at most a factor `α`, so first-interval rates are derived
//! from a laxer deadline profile than OLA's. The walk was the cheap
//! alternative to a 40-step bisection; next to the milestone search it
//! costs about as many LP solves per event and plans worse.
//!
//! Probes run the warm path end to end: shape-stable probe LPs
//! ([`build_deadline_probe_lp`]) served by the persistent probe cache
//! (within an event every probe after the first is a pure RHS patch on
//! the retained tableau), chained across events through the warm-basis
//! carry. The cache, the carry, the warm verdict rule (a primal
//! certificate for feasible, the persistent path plus a decisive margin
//! for infeasible) and everything else around the search belong to the
//! OLA family's shared re-plan core (the crate-private `ola_core`
//! module, also behind [`super::OfflineAdapt`], which uses neither the
//! cache nor the carry). This module keeps only the walk, `alpha`, the
//! anchor `last_f` and its snapshot state.
//!
//! The certificate and the margin gate alone keep the walk sound. The
//! campaign goldens do not cover this policy; its output is pinned
//! instead by `tests/ola_pins.rs`: completion bit
//! patterns and resolve counts on seeded traces. A probe with no
//! trusted warm verdict is recomputed from scratch in the same
//! shape-stable form. The final rate-extracting solve is a cold
//! filtered solve, falling back to the guaranteed-feasible serial bound
//! (and then to an idle plan) if the committed `F` turns out to sit on
//! a solver tolerance boundary.

use super::ola_core::{self, FSearch, FinalSolve, OlaCore, Replan};
use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use dlflow_core::lp_build::build_deadline_probe_lp;
use dlflow_lp::solve_warm;

/// Safety cap on geometric walk steps per direction. With the default
/// `α = 2` this covers a 2⁶⁴ swing of the optimum between two events —
/// far beyond anything a trace can produce — while bounding the
/// per-event work even for `α` barely above 1.
const MAX_WALK_STEPS: usize = 64;

/// Online adaptation by a geometric objective walk instead of an exact
/// search. See the module docs for the algorithm.
pub struct OlaLite {
    /// Geometric walk factor (> 1). Larger values converge in fewer
    /// probes but commit a laxer objective: `F` overshoots the optimum
    /// by at most this factor.
    pub alpha: f64,
    /// Objective the previous event committed (the walk's anchor).
    last_f: Option<f64>,
    /// The shared OLA re-plan state and telemetry.
    core: OlaCore,
}

impl Default for OlaLite {
    fn default() -> Self {
        OlaLite {
            alpha: 2.0,
            last_f: None,
            core: OlaCore::default(),
        }
    }
}

impl OlaLite {
    /// Fresh policy with the default walk factor `α = 2`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh policy with walk factor `alpha` (must be finite and > 1).
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 1.0,
            "OLA-lite walk factor must be finite and > 1"
        );
        OlaLite {
            alpha,
            ..Self::default()
        }
    }

    /// One feasibility probe of the walk at objective `f`: the shared
    /// warm verdict rule first, then this policy's cold fallback.
    fn probe(&mut self, ev: &mut Replan<'_>, f: f64) -> bool {
        ev.set_f(f);
        if ev.window_empty() {
            return false; // an empty window needs no LP to refute
        }
        let lp = build_deadline_probe_lp(&ev.sub, &ev.d, false);
        if let Some(v) = self.core.warm_probe(ev, &lp, ev.hi) {
            return v;
        }
        // No trusted warm verdict. Unlike OfflineAdapt there is no
        // campaign golden to match, so the recomputation can stay in the
        // cheaper shape-stable form — and its basis doubles as the
        // cache's seed on a fresh run.
        self.core.stats.cold_lp_solves += 1;
        let out = solve_warm(&lp, None);
        if ev.hint.is_none() {
            ev.hint = out.basis;
        }
        out.solution.is_optimal()
    }
}

impl FSearch for OlaLite {
    fn core(&mut self) -> &mut OlaCore {
        &mut self.core
    }

    fn search(&mut self, ev: &mut Replan<'_>) -> Option<FinalSolve> {
        let hi = ev.hi;
        // Anchor the walk on the previous event's objective; a fresh
        // start (or a nonsensical carry) anchors on the serial bound.
        let mut f = match self.last_f {
            Some(prev) if prev.is_finite() && prev > 0.0 => prev.min(hi),
            _ => hi,
        };
        if self.probe(ev, f) {
            // Shrink while feasibility holds; `f` tracks the last
            // feasible value. Terminates: a small enough `F` empties
            // some deadline window (or starves the remaining work).
            for _ in 0..MAX_WALK_STEPS {
                let g = f / self.alpha;
                if self.probe(ev, g) {
                    f = g;
                } else {
                    break;
                }
            }
        } else {
            // Grow until feasible, capped by the serial upper bound
            // (feasible by construction — and re-checked by the final
            // solve's fallback below in case float noise disagrees).
            let mut found = false;
            for _ in 0..MAX_WALK_STEPS {
                if f >= hi {
                    break;
                }
                f = (f * self.alpha).min(hi);
                if self.probe(ev, f) {
                    found = true;
                    break;
                }
            }
            if !found {
                f = hi;
            }
        }

        // Commit: cold filtered solve at the walked objective, falling
        // back to the guaranteed-feasible serial bound if the committed
        // `F` sits on a solver tolerance boundary.
        ev.set_f(f);
        let mut solved = self.core.filtered_solve(ev);
        if !solved.1.is_optimal() && f < hi {
            f = hi;
            ev.set_f(f);
            solved = self.core.filtered_solve(ev);
        }
        let committed = solved.1.is_optimal();
        self.last_f = committed.then_some(f);
        committed.then_some(FinalSolve::Deadline(solved.0, solved.1))
    }
}

impl OnlineScheduler for OlaLite {
    fn name(&self) -> String {
        if self.alpha.total_cmp(&2.0).is_eq() {
            "OLA-lite".into()
        } else {
            format!("OLA-lite(a={})", self.alpha)
        }
    }

    fn reset(&mut self) {
        self.last_f = None;
        self.core.reset();
    }

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // The walk re-anchors from `last_f` at the next `plan` call; an
        // arrival simply makes the grow direction more likely.
    }

    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Nothing cached per job; the next walk shrinks `F` if the
        // departure loosened the optimum.
    }

    fn on_platform_change(&mut self, _now: f64, up: &[bool]) {
        // `last_f` survives: it is only a search anchor, and the grow
        // loop caps at the new platform's `hi` anyway.
        self.core.on_platform_change(up);
    }

    fn snapshot_state(&self) -> String {
        // The warm chain is a pure pivot-order hint and is deliberately
        // dropped across snapshot/restore (same policy as OfflineAdapt).
        // `last_f` is a search anchor, not telemetry: restoring it keeps
        // the first post-restore walk as short as it would have been.
        let mut s = self.core.snapshot_head();
        if let Some(f) = self.last_f {
            s.push_str(&format!("last_f {:016x}\n", f.to_bits()));
        }
        s
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut lines = state.lines();
        self.core.restore_head(lines.next(), "OLA-lite")?;
        self.last_f = match lines.next() {
            None => None,
            Some(line) => Some(
                line.strip_prefix("last_f ")
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .map(f64::from_bits)
                    .ok_or("OLA-lite state: bad last_f line")?,
            ),
        };
        Ok(())
    }

    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        ola_core::plan(self, now, active, alloc);
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        Some(self.core.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, RunMetrics};
    use crate::schedulers::offline_adapt::OfflineAdapt;
    use dlflow_core::instance::{Instance, InstanceBuilder};

    fn two_machine_instance() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.5, 2.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(1.0), Some(2.0), Some(1.5)]);
        b.machine(vec![Some(2.0), Some(1.0), Some(1.5)]);
        b.build().unwrap()
    }

    #[test]
    fn completes_all_jobs() {
        let inst = two_machine_instance();
        let res = simulate(&inst, &mut OlaLite::new()).unwrap();
        assert_eq!(res.completions.len(), 3);
        assert!(res.completions.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn alpha_close_to_one_approaches_full_ola() {
        // A finer walk factor commits an objective closer to the
        // optimum, so its objective can exceed the full OLA's by at
        // most a modest factor; a coarse walk stays a valid, completing
        // policy.
        let inst = two_machine_instance();
        let full = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        let fine = simulate(&inst, &mut OlaLite::with_alpha(1.05)).unwrap();
        let coarse = simulate(&inst, &mut OlaLite::with_alpha(4.0)).unwrap();
        let m_full = RunMetrics::from_completions(&inst, &full.completions);
        let m_fine = RunMetrics::from_completions(&inst, &fine.completions);
        let m_coarse = RunMetrics::from_completions(&inst, &coarse.completions);
        assert!(
            m_fine.max_weighted_flow <= m_full.max_weighted_flow * 1.25 + 1e-6,
            "fine walk {} vs full OLA {}",
            m_fine.max_weighted_flow,
            m_full.max_weighted_flow
        );
        assert!(m_coarse.max_weighted_flow.is_finite());
    }

    #[test]
    #[should_panic(expected = "walk factor")]
    fn rejects_alpha_of_one() {
        let _ = OlaLite::with_alpha(1.0);
    }

    #[test]
    fn name_reports_non_default_alpha() {
        assert_eq!(OlaLite::new().name(), "OLA-lite");
        assert_eq!(OlaLite::with_alpha(1.5).name(), "OLA-lite(a=1.5)");
    }

    #[test]
    fn resolve_stats_count_walk_probes() {
        let inst = two_machine_instance();
        let mut s = OlaLite::new();
        let _ = simulate(&inst, &mut s).unwrap();
        let stats = s.resolve_stats().unwrap();
        assert!(stats.n_resolves > 0);
        assert!(stats.lp_solves() >= stats.n_resolves);
        // In steady state the walk settles in a few probes per event.
        assert!(stats.mean_lp_solves_per_resolve() < 41.0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_anchor() {
        let mut s = OlaLite::new();
        s.core.stats.n_resolves = 7;
        s.last_f = Some(13.5);
        let snap = s.snapshot_state();
        let mut t = OlaLite::new();
        t.restore_state(&snap).unwrap();
        assert_eq!(t.resolve_stats().unwrap().n_resolves, 7);
        assert_eq!(t.last_f, Some(13.5));

        s.last_f = None;
        let snap = s.snapshot_state();
        t.last_f = Some(1.0);
        t.restore_state(&snap).unwrap();
        assert_eq!(t.last_f, None);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut s = OlaLite::new();
        assert!(s.restore_state("").is_err());
        assert!(s.restore_state("n_resolves x").is_err());
        assert!(s.restore_state("n_resolves 3\nlast_f zz\n").is_err());
    }

    #[test]
    fn respects_restricted_availability() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0), None]);
        b.machine(vec![None, Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OlaLite::new()).unwrap();
        assert!((res.completions[0] - 2.0).abs() < 1e-4);
        assert!((res.completions[1] - 2.0).abs() < 1e-4);
    }
}
