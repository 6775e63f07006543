//! The paper's proposal (§5): an **online adaptation of the offline
//! algorithm**, "enhanced by a simple preemption scheme".
//!
//! At every event the policy re-solves the offline divisible
//! max-weighted-flow problem restricted to the jobs currently in the
//! system (their *remaining* work) while accounting for the time they
//! have already spent waiting:
//!
//! 1. find the smallest objective `F` such that the deadline windows
//!    `[now, r_j + F/w_j]` admit a divisible schedule of the remaining
//!    work, by Theorem 2's milestone search (below);
//! 2. take the first time interval of a schedule meeting those
//!    deadlines and convert its fractions `α⁽⁰⁾ᵢⱼ` into machine shares;
//! 3. follow those rates until the next event (arrival/completion), then
//!    re-plan. Divisibility makes preemption and migration free.
//!
//! The policy never sees a closed instance: the sub-problem is built from
//! the active set the engine hands to `plan`, so it works unchanged on
//! open-arrival traces.
//!
//! Everything except the search is the OLA family's shared re-plan core
//! (the crate-private `ola_core` module, also behind
//! [`super::OlaLite`]): the scratch copy of the active set, the
//! placeable-subset filter, the remaining-work sub-instance (every job
//! released at `now`, weights floored), the bracket `(lo, hi)` on `F`
//! (the flow already incurred, and a serial schedule's flow), the
//! filtered feasibility probe, first-interval rate extraction and the
//! [`ResolveStats`] counters. This module keeps the search and the
//! `min_resolve_interval` plan reuse.
//!
//! # The search
//!
//! The deadline of job `j` is `r_j + F/w_j`, measured from its
//! **original** release, so a job that has waited longer has a tighter
//! window. Inside the bracket the order of the deadlines changes only
//! at *milestones*: the values of `F` where two deadlines cross. Between
//! two consecutive milestones every interval length is affine in `F`,
//! so `F` can be an ordinary LP variable (§4.3.2). Per re-plan:
//!
//! 1. list the milestones inside `(lo, hi)`
//!    ([`milestones_above`], with the original releases as deadline
//!    origins);
//! 2. binary-search them with the filtered probe (System (2), solved
//!    from scratch) to isolate the range that holds the optimum
//!    ([`locate_range`]);
//! 3. solve one LP over that range: System (3), with every job's
//!    remaining work available at `now` ([`build_range_lp`]). Its
//!    optimum is `F*`;
//! 4. solve the filtered deadline LP at `F*` and take the rates from it.
//!
//! That is at most ⌈log₂ k⌉ + 4 LP solves for `k` milestones in the
//! bracket, one more with the retry below (about 2–3 per re-plan on
//! the campaigns), all from scratch:
//! the search has no tolerance band to guard, so this policy uses
//! neither the warm-basis carry nor the probe cache (they serve
//! [`super::OlaLite`]'s walk). The sub-instance measures weights in a
//! power-of-two unit near the largest weight, so the LPs see `F` at
//! unit scale however small the weights are; and if f64 roundoff makes
//! the range LP fail (a zero weight floors to a 1e12 deadline slope),
//! it is re-solved once with its rows equilibrated.
//!
//! Step 4's point is fixed by rule: `F*` exactly as the range LP
//! returns it. Only if roundoff makes the filtered LP infeasible there
//! do the range LP's own first-interval rates stand in (and only if the
//! range LP itself fails does the filtered LP at the range's feasible
//! end). Both LPs describe optimal schedules, but different vertices of
//! them, and the range LP's vertex plans worse: its rates raised the
//! quick campaign's mean OLA stretch ratio from 1.003 to 1.010, so it
//! is only the fallback.

use super::ola_core::{self, FSearch, FinalSolve, JobCols, OlaCore, Replan};
use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use dlflow_core::lp_build::build_range_lp;
use dlflow_core::maxflow::locate_range;
use dlflow_core::milestones::milestones_above;
use dlflow_lp::solve;

/// Rates cached by the re-solve throttle (see
/// [`OfflineAdapt::min_resolve_interval`]).
struct PlanCache {
    /// Time of the last full re-solve.
    solved_at: f64,
    /// Job ids that were active at the last re-solve (sorted).
    known: Vec<usize>,
    /// The sparse rate allocation the re-solve produced.
    alloc: Allocation,
}

/// Online adaptation of the offline divisible optimum.
#[derive(Default)]
pub struct OfflineAdapt {
    /// Re-solve throttle: minimum simulated time between two full
    /// re-solves. `0.0` (the default) re-solves at every event, as §5
    /// describes. With a positive interval, events inside the window
    /// reuse the last solve's rates (masked to still-active jobs) —
    /// unless a *new* job has arrived since, or the cached rates would
    /// leave every active job idle, both of which force a re-solve.
    /// This trades optimality for plan cost: the knob the campaign's
    /// `ola throttle=τ` scheduler spec sweeps.
    pub min_resolve_interval: f64,
    cache: Option<PlanCache>,
    /// Recycled milestone buffer.
    ms: Vec<f64>,
    /// The shared OLA re-plan state and telemetry.
    core: OlaCore,
}

impl OfflineAdapt {
    /// Fresh policy that re-solves at every event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh policy that re-solves at most once per `interval` of
    /// simulated time (see [`Self::min_resolve_interval`]).
    pub fn with_throttle(interval: f64) -> Self {
        assert!(interval >= 0.0, "throttle interval must be non-negative");
        OfflineAdapt {
            min_resolve_interval: interval,
            ..Self::default()
        }
    }

    /// Theorem 2 on the event's sub-problem (see the module docs).
    /// Returns `F*` and the solve to take rates from (`None` = plan
    /// idle). If the range LP fails, `F*` is the located range's
    /// feasible end.
    fn theorem2(&mut self, ev: &mut Replan<'_>) -> (f64, Option<FinalSolve>) {
        // The sub-instance measures weights in `ev.unit`, so the search
        // runs on `F / unit`; the probes and the result convert back.
        let unit = ev.unit;
        let (lo, hi) = (ev.lo / unit, ev.hi / unit);
        let origins = ev.origins();
        milestones_above(&ev.sub, origins, &lo, &mut self.ms);
        let inside = self.ms.partition_point(|&f| f < hi);
        self.ms.truncate(inside);

        let core = &mut self.core;
        let (f_lo, f_hi, reference, _) = locate_range(&self.ms, &lo, Some(&hi), |&f| {
            ev.set_f(f * unit);
            !ev.window_empty() && core.filtered_solve(ev).1.is_optimal()
        });
        // The bracket is bounded above, so the located range is too.
        let f_hi = f_hi.unwrap_or(hi);

        let mut range = build_range_lp(&ev.sub, origins, &f_lo, Some(&f_hi), &reference, false);
        core.stats.cold_lp_solves += 1;
        let mut sol = solve(&range.lp);
        if !sol.is_optimal() {
            // A deadline slope far above the rest (a zero weight floors
            // to `MIN_WEIGHT`, slope 1e12) leaves capacity rows whose `F`
            // coefficient dwarfs their `α` coefficients, and the f64
            // simplex can then misjudge feasibility. Retry once with
            // every row scaled to a unit largest coefficient.
            range.lp.equilibrate_rows();
            core.stats.cold_lp_solves += 1;
            sol = solve(&range.lp);
        }
        if !sol.is_optimal() {
            // Roundoff only: `f_hi` is feasible (a probed milestone, or
            // the serial bound). Plan from the filtered LP there.
            ev.set_f(f_hi * unit);
            let (built, at_hi) = core.filtered_solve(ev);
            let solved = at_hi
                .is_optimal()
                .then_some(FinalSolve::Deadline(built, at_hi));
            return (f_hi * unit, solved);
        }

        let f_star = sol.values[range.f_var.index()] * unit;
        ev.set_f(f_star);
        let (built, at_star) = core.filtered_solve(ev);
        let solved = if at_star.is_optimal() {
            FinalSolve::Deadline(built, at_star)
        } else {
            FinalSolve::Range(range, sol)
        };
        (f_star, Some(solved))
    }
}

impl FSearch for OfflineAdapt {
    fn core(&mut self) -> &mut OlaCore {
        &mut self.core
    }

    /// Every solve of the milestone search is cold.
    fn warm(&self) -> bool {
        false
    }

    /// Attempts to serve `plan` from the cache: permitted only when the
    /// throttle window is open, no unknown job is active, and the reused
    /// plan's next projected completion still lands inside the window.
    /// The last condition is load-bearing: the engine only calls `plan`
    /// at events, so a cached plan that trickles a job along at a tiny
    /// first-interval rate would otherwise stay in force until that
    /// job's (arbitrarily distant) completion — the re-solve budget must
    /// bound *simulated time between solves*, not just be checked when
    /// an event happens to occur.
    fn reuse(&self, now: f64, cols: &JobCols) -> Option<Allocation> {
        let n_machines = cols.n_machines;
        if self.min_resolve_interval <= 0.0 {
            return None;
        }
        let cache = self.cache.as_ref()?;
        if now - cache.solved_at >= self.min_resolve_interval {
            return None;
        }
        if cols
            .ids
            .iter()
            .any(|id| cache.known.binary_search(id).is_err())
        {
            return None; // a new arrival always warrants a fresh solve
        }
        let mut alloc = Allocation::idle(n_machines);
        for i in 0..n_machines {
            for &id in &cols.ids {
                let r = cache.alloc.share(i, id);
                if r > 0.0 {
                    alloc.set(i, id, r);
                }
            }
        }
        // Project the next completion under the reused rates; reuse only
        // if it arrives before the throttle window closes.
        let mut next_completion = f64::INFINITY;
        for k in 0..cols.n() {
            let mut rate = 0.0;
            for i in 0..n_machines {
                let share = alloc.share(i, cols.ids[k]);
                if share > 0.0 {
                    // A cached rate on an illegal pair means the cache is
                    // corrupt; discard it and force a fresh solve.
                    let c = cols.cost(i, k)?;
                    if c <= 1e-12 {
                        rate = f64::INFINITY;
                    } else {
                        rate += share / c;
                    }
                }
            }
            if rate > 0.0 {
                let t = if rate.is_infinite() {
                    now
                } else {
                    now + cols.remaining[k] / rate
                };
                next_completion = next_completion.min(t);
            }
        }
        (next_completion <= cache.solved_at + self.min_resolve_interval).then_some(alloc)
    }

    fn search(&mut self, ev: &mut Replan<'_>) -> Option<FinalSolve> {
        self.theorem2(ev).1
    }

    fn commit(&mut self, now: f64, ids: &[usize], alloc: &Allocation) {
        if self.min_resolve_interval <= 0.0 {
            return;
        }
        // Recycle the previous cache generation's buffers: the throttle
        // cache is rebuilt once per re-solve, so in steady state neither
        // the id list nor the allocation rows allocate.
        let (mut known, mut kept) = match self.cache.take() {
            Some(prev) => (prev.known, prev.alloc),
            None => (Vec::default(), Allocation::idle(0)),
        };
        known.clear();
        known.extend_from_slice(ids);
        known.sort_unstable();
        kept.copy_from(alloc);
        self.cache = Some(PlanCache {
            solved_at: now,
            known,
            alloc: kept,
        });
    }
}

impl OnlineScheduler for OfflineAdapt {
    fn name(&self) -> String {
        // A non-default throttle appears in the name: campaign reports
        // derive their column labels (and duplicate detection) from it.
        if self.min_resolve_interval > 0.0 {
            format!("OLA(t={})", self.min_resolve_interval)
        } else {
            "OLA".into()
        }
    }

    fn reset(&mut self) {
        self.cache = None;
        self.core.reset();
    }

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Arrivals invalidate the cache implicitly: `reuse` compares the
        // active-job id set against `cache.known` before reuse.
    }

    fn on_completion(&mut self, _now: f64, job_id: usize) {
        // Cached rates for a finished job must not leak into reuse
        // projections (they are masked anyway, but dropping the id keeps
        // the cache honest about what it knows).
        if let Some(cache) = &mut self.cache {
            if let Ok(k) = cache.known.binary_search(&job_id) {
                cache.known.remove(k);
            }
        }
    }

    fn on_platform_change(&mut self, _now: f64, up: &[bool]) {
        self.core.on_platform_change(up);
        // A cached plan may grant shares on a machine that just died (or
        // ignore one that just recovered): always rebuild the LP over the
        // current live set.
        self.cache = None;
    }

    fn snapshot_state(&self) -> String {
        // The search keeps nothing across events but the milestone
        // buffer's capacity: the state is the resolve count and the
        // throttle's cached plan.
        let mut s = self.core.snapshot_head();
        if let Some(cache) = &self.cache {
            s.push_str(&format!("solved_at {:016x}\n", cache.solved_at.to_bits()));
            s.push_str("known");
            for id in &cache.known {
                s.push_str(&format!(" {id}"));
            }
            s.push('\n');
            s.push_str(&format!("alloc {}\n", cache.alloc.n_machines()));
            for i in 0..cache.alloc.n_machines() {
                s.push_str("row");
                for (job, share) in cache.alloc.entries(i) {
                    s.push_str(&format!(" {job}:{:016x}", share.to_bits()));
                }
                s.push('\n');
            }
        }
        s
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut lines = state.lines();
        self.core.restore_head(lines.next(), "OLA")?;
        self.cache = None;
        let Some(line) = lines.next() else {
            return Ok(());
        };
        let solved_at = line
            .strip_prefix("solved_at ")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .map(f64::from_bits)
            .ok_or("OLA state: bad solved_at line")?;
        if !solved_at.is_finite() {
            return Err("OLA state: solved_at must be finite".into());
        }
        let line = lines.next().ok_or("OLA state: missing known line")?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("known") {
            return Err("OLA state: bad known line".into());
        }
        let mut known: Vec<usize> = Vec::new();
        for tok in toks {
            known.push(tok.parse().map_err(|_| "OLA state: bad known id")?);
        }
        // `reuse` and `on_completion` binary-search this list.
        if known.windows(2).any(|w| w[0] >= w[1]) {
            return Err("OLA state: known ids must be strictly increasing".into());
        }
        let line = lines.next().ok_or("OLA state: missing alloc line")?;
        let n: usize = line
            .strip_prefix("alloc ")
            .and_then(|v| v.parse().ok())
            .ok_or("OLA state: bad alloc line")?;
        let mut alloc = Allocation::idle(n);
        for i in 0..n {
            let line = lines.next().ok_or("OLA state: missing alloc row")?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("row") {
                return Err("OLA state: bad alloc row".into());
            }
            for tok in toks {
                let (job, bits) = tok.split_once(':').ok_or("OLA state: bad alloc pair")?;
                let job = job.parse().map_err(|_| "OLA state: bad alloc job")?;
                let bits =
                    u64::from_str_radix(bits, 16).map_err(|_| "OLA state: bad alloc share")?;
                let share = f64::from_bits(bits);
                if !(0.0..=1.0).contains(&share) {
                    return Err("OLA state: alloc share must lie in [0, 1]".into());
                }
                alloc.set(i, job, share);
            }
        }
        self.cache = Some(PlanCache {
            solved_at,
            known,
            alloc,
        });
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
    use crate::engine::{simulate, Engine, JobSpec, RunMetrics};
    use crate::schedulers::mct::Mct;
    use dlflow_core::instance::InstanceBuilder;
    use dlflow_core::lp_build::build_deadline_lp;

    #[test]
    fn splits_divisible_job_across_machines() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(4.0)]);
        b.machine(vec![Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        // Divisible optimum: both machines half each → done at 2.
        assert!(
            (res.completions[0] - 2.0).abs() < 1e-4,
            "got {}",
            res.completions[0]
        );
    }

    #[test]
    fn single_job_completes_at_processing_time() {
        let mut b = InstanceBuilder::new();
        b.job(1.0, 2.0);
        b.machine(vec![Some(3.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        assert!((res.completions[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn beats_mct_on_weighted_instance() {
        // Heavy job arrives while a light long job monopolizes the only
        // fast machine under MCT; OLA preempts/splits.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // light, long (10 on M0)
        b.job(1.0, 10.0); // heavy, short (2 on M0), slow elsewhere
        b.machine(vec![Some(10.0), Some(2.0)]);
        b.machine(vec![Some(30.0), Some(20.0)]);
        let inst = b.build().unwrap();
        let mct = simulate(&inst, &mut Mct::new()).unwrap();
        let ola = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        let m_mct = RunMetrics::from_completions(&inst, &mct.completions);
        let m_ola = RunMetrics::from_completions(&inst, &ola.completions);
        assert!(
            m_ola.max_weighted_flow < m_mct.max_weighted_flow,
            "OLA {} should beat MCT {}",
            m_ola.max_weighted_flow,
            m_mct.max_weighted_flow
        );
    }

    #[test]
    fn throttled_ola_resolves_less_and_still_completes() {
        use crate::workload::{generate, WorkloadSpec};
        let inst = generate(&WorkloadSpec {
            n_jobs: 8,
            n_machines: 3,
            mean_interarrival: 1.0,
            seed: 11,
            ..Default::default()
        });

        let mut eager = OfflineAdapt::new();
        let res_eager = simulate(&inst, &mut eager).unwrap();
        assert!(res_eager.completions.iter().all(|c| c.is_finite()));

        let mut lazy = OfflineAdapt::with_throttle(1.0e6); // effectively "never re-solve on completions"
        let res_lazy = simulate(&inst, &mut lazy).unwrap();
        assert!(res_lazy.completions.iter().all(|c| c.is_finite()));

        let lazy_resolves = lazy.resolve_stats().unwrap().n_resolves;
        let eager_resolves = eager.resolve_stats().unwrap().n_resolves;
        assert!(
            lazy_resolves < eager_resolves,
            "throttle must cut re-solves: {lazy_resolves} vs {eager_resolves}"
        );
        // Every arrival still forces a solve, so the floor is one per
        // distinct arrival burst.
        assert!(lazy_resolves >= 1);

        // The throttled policy pays an optimality price but remains a
        // valid, completing policy.
        let m_eager = RunMetrics::from_completions(&inst, &res_eager.completions);
        let m_lazy = RunMetrics::from_completions(&inst, &res_lazy.completions);
        assert!(m_lazy.max_weighted_flow >= m_eager.max_weighted_flow * 0.999);
    }

    #[test]
    fn zero_throttle_is_the_default_eager_policy() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let mut a = OfflineAdapt::new();
        let mut b2 = OfflineAdapt::with_throttle(0.0);
        let ra = simulate(&inst, &mut a).unwrap();
        let rb = simulate(&inst, &mut b2).unwrap();
        assert_eq!(ra.completions, rb.completions);
        assert_eq!(a.resolve_stats(), b2.resolve_stats());
    }

    #[test]
    fn respects_restricted_availability() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0), None]);
        b.machine(vec![None, Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        assert!((res.completions[0] - 2.0).abs() < 1e-4);
        assert!((res.completions[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn zero_weight_job_does_not_break_the_lp_path() {
        // The streaming engine allows weight 0; OLA clamps it to a floor
        // instead of building an invalid sub-instance or dividing by 0.
        let mut eng = Engine::new(2);
        let mut ola = OfflineAdapt::new();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 0.0,
            costs: vec![4.0, 4.0],
        })
        .unwrap();
        eng.push_arrival(JobSpec {
            release: 1.0,
            weight: 2.0,
            costs: vec![2.0, f64::INFINITY],
        })
        .unwrap();
        eng.drain(&mut ola).unwrap();
        assert_eq!(eng.n_completed(), 2);
        assert!(eng.metrics().makespan.is_finite());
    }

    /// A throttle-cache state with the given `known` line and share bits.
    fn cache_state(known: &str, share: f64) -> String {
        format!(
            "n_resolves 2\nsolved_at {:016x}\nknown {known}\nalloc 2\nrow 1:{:016x}\nrow\n",
            1.5f64.to_bits(),
            share.to_bits()
        )
    }

    #[test]
    fn restore_rejects_known_ids_that_are_not_strictly_increasing() {
        let mut ola = OfflineAdapt::with_throttle(5.0);
        ola.restore_state(&cache_state("1 4", 0.5)).unwrap();
        for known in ["4 1", "1 1", "1 4 2"] {
            let err = ola.restore_state(&cache_state(known, 0.5)).unwrap_err();
            assert!(err.contains("strictly increasing"), "known {known}: {err}");
        }
    }

    #[test]
    fn restore_rejects_shares_outside_the_unit_interval() {
        let mut ola = OfflineAdapt::with_throttle(5.0);
        for share in [0.0, 1.0] {
            ola.restore_state(&cache_state("1", share)).unwrap();
        }
        for share in [f64::NAN, f64::INFINITY, 1.5, -0.25] {
            let err = ola.restore_state(&cache_state("1", share)).unwrap_err();
            assert!(err.contains("[0, 1]"), "share {share}: {err}");
        }
    }

    #[test]
    fn restore_rejects_a_non_finite_solve_time() {
        let mut ola = OfflineAdapt::with_throttle(5.0);
        for t in [f64::NAN, f64::NEG_INFINITY] {
            let state = cache_state("1", 0.5).replace(
                &format!("{:016x}", 1.5f64.to_bits()),
                &format!("{:016x}", t.to_bits()),
            );
            let err = ola.restore_state(&state).unwrap_err();
            assert!(err.contains("solved_at"), "solved_at {t}: {err}");
        }
    }

    #[test]
    fn resolve_stats_report_warm_and_cold_solves() {
        // Every LP of the milestone search is solved from scratch, and a
        // re-plan costs a handful of them: at least the range LP and the
        // rate LP, plus the probes of the milestone binary search.
        use crate::workload::{generate, WorkloadSpec};
        let inst = generate(&WorkloadSpec {
            n_jobs: 10,
            n_machines: 3,
            mean_interarrival: 0.8,
            seed: 7,
            ..Default::default()
        });
        let mut ola = OfflineAdapt::new();
        simulate(&inst, &mut ola).unwrap();
        let stats = ola.resolve_stats().unwrap();
        assert!(stats.n_resolves > 0, "{stats:?}");
        assert_eq!(stats.warm_lp_solves, 0, "{stats:?}");
        assert_eq!(stats.warm_resolves, 0, "{stats:?}");
        assert_eq!(stats.cold_resolves, stats.n_resolves, "{stats:?}");
        assert!(stats.cold_lp_solves >= 2 * stats.n_resolves, "{stats:?}");
        assert!(stats.mean_lp_solves_per_resolve() <= 6.0, "{stats:?}");
    }

    /// Re-plan time of the hand-built sub-problems.
    const NOW: f64 = 10.0;

    /// A seeded sub-problem at [`NOW`]: 1–6 jobs released before `NOW` on
    /// 1–4 machines, about a third of the (job, machine) pairs
    /// unavailable and, with two machines or more, one machine dead.
    /// Every job keeps a live machine, as the placeability filter
    /// guarantees before a search runs.
    fn seeded_sub_problem(seed: u64) -> (JobCols, Vec<bool>) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(1..=4usize);
        let n = rng.gen_range(1..=6usize);
        let mut up = vec![true; m];
        if m >= 2 {
            up[rng.gen_range(0..m)] = false;
        }
        let live: Vec<usize> = (0..m).filter(|&i| up[i]).collect();
        let mut cols = JobCols::default();
        cols.n_machines = m;
        for k in 0..n {
            let mut costs: Vec<f64> = (0..m)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        f64::INFINITY
                    } else {
                        rng.gen_range(0.5..8.0)
                    }
                })
                .collect();
            let home = live[rng.gen_range(0..live.len())];
            if !costs[home].is_finite() {
                costs[home] = rng.gen_range(0.5..8.0);
            }
            let remaining = rng.gen_range(0.05..=1.0);
            let waited = if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(0.0..4.0)
            };
            let release = NOW - waited;
            let weight = 10f64.powf(rng.gen_range(-1.5..1.5));
            cols.push(k, remaining, release, weight, &costs);
        }
        (cols, up)
    }

    /// One search on a hand-built sub-problem, with what the checks need.
    struct Searched {
        f_star: f64,
        /// LP solves the search took.
        solves: usize,
        /// Milestones strictly inside the bracket, recounted here.
        k: usize,
        /// Filtered LP probes a binary search over them needs, recounted
        /// with a plain cold solve per probe.
        probes: usize,
        feasible_just_above: bool,
        feasible_just_below: bool,
    }

    fn search_sub_problem(cols: &JobCols, up: &[bool]) -> Searched {
        let mut ola = OfflineAdapt::new();
        ola.core.on_platform_change(up);
        let mut ev = ola
            .core
            .begin(NOW, cols, false)
            .expect("placeable sub-problem");
        let before = ola.core.stats.lp_solves();
        let (f_star, solved) = ola.theorem2(&mut ev);
        let solves = ola.core.stats.lp_solves() - before;
        assert!(solved.is_some(), "search produced no plan");

        let unit = ev.unit;
        let (lo, hi) = (ev.lo / unit, ev.hi / unit);
        let mut ms = Vec::new();
        milestones_above(&ev.sub, ev.origins(), &lo, &mut ms);
        ms.retain(|&f| f < hi);
        let mut probes = 0;
        locate_range(&ms, &lo, Some(&hi), |&f| {
            ev.set_f(f * unit);
            if ev.window_empty() {
                return false;
            }
            probes += 1;
            solve(&build_deadline_lp(&ev.sub, &ev.d, false).lp).is_optimal()
        });
        let mut feasible = |f: f64| {
            ev.set_f(f);
            !ev.window_empty() && ola.core.filtered_solve(&ev).1.is_optimal()
        };
        Searched {
            f_star,
            solves,
            k: ms.len(),
            probes,
            feasible_just_above: feasible(f_star * (1.0 + 1e-9)),
            feasible_just_below: feasible(f_star * (1.0 - 1e-6)),
        }
    }

    /// `⌈log₂ x⌉` for `x ≥ 1`.
    fn ceil_log2(x: usize) -> usize {
        x.next_power_of_two().trailing_zeros() as usize
    }

    #[test]
    fn milestone_search_finds_the_feasibility_threshold() {
        for seed in 0..240 {
            let (cols, up) = seeded_sub_problem(seed);
            let r = search_sub_problem(&cols, &up);
            assert!(
                r.f_star.is_finite() && r.f_star > 0.0,
                "seed {seed}: F* = {}",
                r.f_star
            );
            assert!(
                r.feasible_just_above,
                "seed {seed}: infeasible just above F* = {}",
                r.f_star
            );
            assert!(
                !r.feasible_just_below,
                "seed {seed}: feasible just below F* = {}",
                r.f_star
            );
        }
    }

    #[test]
    fn milestone_search_solve_count_is_logarithmic_in_the_milestones() {
        let mut crossing = 0;
        for seed in 0..240 {
            let (cols, up) = seeded_sub_problem(seed);
            let r = search_sub_problem(&cols, &up);
            // Exactly the binary search's probes, the range LP and the
            // rate LP.
            assert_eq!(r.solves, r.probes + 2, "seed {seed}: k = {}", r.k);
            assert!(
                r.solves <= 2 * ceil_log2(r.k + 1) + 2,
                "seed {seed}: {} LP solves for k = {} milestones",
                r.solves,
                r.k
            );
            crossing += usize::from(r.k >= 3);
        }
        // The binary search must run, not only its one- and two-probe
        // shortcuts.
        assert!(
            crossing >= 20,
            "only {crossing} sub-problems have k ≥ 3 milestones"
        );
    }

    #[test]
    fn milestone_search_edge_cases() {
        const INF: f64 = f64::INFINITY;
        // (case, jobs as (remaining, release, weight, costs on 2 machines),
        // F* in closed form, LP solves). No milestone lies inside any of
        // these brackets, so the search solves the range LP and the rate
        // LP only — except that the zero weight's 1e12 deadline slope
        // makes the range LP take its conditioning retry.
        type Jobs = &'static [(f64, f64, f64, [f64; 2])];
        let cases: [(&str, Jobs, Option<f64>, usize); 4] = [
            // Rates 1/2 + 1/4 finish the job 4/3 after NOW.
            (
                "one job",
                &[(1.0, 8.0, 1.0, [2.0, 4.0])],
                Some(10.0 / 3.0),
                2,
            ),
            (
                "equal weights: deadlines never cross",
                &[
                    (1.0, 7.0, 1.0, [2.0, 3.0]),
                    (0.5, 9.0, 1.0, [1.0, 5.0]),
                    (1.0, 10.0, 1.0, [4.0, INF]),
                ],
                None,
                2,
            ),
            // A splits 3:1 across the machines, B runs on the fast one:
            // both done 1.5 after NOW.
            (
                "same release and weight",
                &[(1.0, 9.0, 2.0, [2.0, 2.0]), (1.0, 9.0, 2.0, [3.0, 1.0])],
                Some(5.0),
                2,
            ),
            // The zero-weight job's deadline runs off to 1e12, so the
            // other job gets both machines: done 3/4 after NOW.
            (
                "a zero-weight job",
                &[(1.0, 6.0, 0.0, [2.0, 2.0]), (1.0, 9.0, 1.0, [1.0, 3.0])],
                Some(1.75),
                3,
            ),
        ];
        for (what, jobs, exact, solves) in cases {
            let mut cols = JobCols::default();
            cols.n_machines = 2;
            for (k, &(remaining, release, weight, costs)) in jobs.iter().enumerate() {
                cols.push(k, remaining, release, weight, &costs);
            }
            let r = search_sub_problem(&cols, &[]);
            assert_eq!(r.k, 0, "{what}: milestones inside the bracket");
            assert_eq!(r.solves, solves, "{what}: LP solves");
            if let Some(f) = exact {
                assert!(
                    (r.f_star - f).abs() < 1e-9 * f,
                    "{what}: F* = {}, want {f}",
                    r.f_star
                );
            }
            assert!(
                r.feasible_just_above,
                "{what}: infeasible just above F* = {}",
                r.f_star
            );
            assert!(
                !r.feasible_just_below,
                "{what}: feasible just below F* = {}",
                r.f_star
            );
        }
    }
}
