//! Theorem 2 (§4.3) and §4.4: exact minimization of the maximum weighted
//! flow, in the divisible model and in the preemptive (non-divisible)
//! model, via the milestone binary search.
//!
//! Outline (both models share it):
//! 1. enumerate the ≤ n²−n [`crate::milestones`] of the objective;
//! 2. binary-search the sorted milestone list with a System-(2)-style
//!    feasibility probe ("∃ schedule with max weighted flow ≤ F?" —
//!    monotone in `F`), isolating the milestone range containing the
//!    optimum;
//! 3. solve one parametric LP (System (3), or (5) with the per-job bound)
//!    on that range, minimizing `F` as an ordinary LP variable — legal
//!    because within the range interval lengths are affine in `F`;
//! 4. rebuild an explicit schedule: interval packing for divisible,
//!    Lawler–Labetoulle phase decomposition for preemptive.

use crate::decompose::decompose_interval;
use crate::instance::Instance;
use crate::lp_build::{build_deadline_lp, build_range_lp};
use crate::milestones::milestones_above;
use crate::schedule::{Schedule, ScheduleKind, Slice};
use dlflow_lp::{solve, solve_warm, WarmBasis};
use dlflow_num::Scalar;

/// Search statistics (reported by the Theorem-2 experiment binary).
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Number of distinct milestones (≤ n²−n).
    pub n_milestones: usize,
    /// Feasibility probes run during the binary search.
    pub n_probes: usize,
    /// LP probes warm-started from the previous probe's optimal basis
    /// (successive probes differ only in the flow-bound RHS, so the basis
    /// usually carries over; see `dlflow_lp::solve_warm`).
    pub n_warm_probes: usize,
    /// LP probes solved from scratch (first probe, or warm-start
    /// fallback). With [`ProbeMethod::MaxFlowUniform`] on a uniform
    /// instance no simplex runs at all, so both LP counters stay 0 even
    /// though `n_probes` counts the max-flow checks.
    pub n_cold_probes: usize,
}

/// Stateful LP feasibility prober: carries the optimal basis of the last
/// feasible probe into the next one and counts warm vs cold solves.
struct LpProber<'a, S: Scalar> {
    inst: &'a Instance<S>,
    preemptive: bool,
    warm: Option<WarmBasis>,
    n_warm: usize,
    n_cold: usize,
}

impl<'a, S: Scalar> LpProber<'a, S> {
    fn new(inst: &'a Instance<S>, preemptive: bool) -> Self {
        LpProber {
            inst,
            preemptive,
            warm: None,
            n_warm: 0,
            n_cold: 0,
        }
    }

    fn probe(&mut self, f: &S) -> bool {
        let deadlines: Vec<S> = (0..self.inst.n_jobs())
            .map(|j| self.inst.deadline(j, f))
            .collect();
        // The probe-form builder keeps every probe structurally identical,
        // so the basis of the previous probe seeds this one.
        let lp = crate::lp_build::build_deadline_probe_lp(self.inst, &deadlines, self.preemptive);
        let out = solve_warm(&lp, self.warm.as_ref());
        if out.warm_used {
            self.n_warm += 1;
        } else {
            self.n_cold += 1;
        }
        if let Some(basis) = out.basis {
            // Only optimal (feasible) probes yield a basis; keep the last
            // one across infeasible probes — it often still matches.
            self.warm = Some(basis);
        }
        out.solution.is_optimal()
    }
}

/// Result of an exact max-weighted-flow minimization.
#[derive(Clone, Debug)]
pub struct FlowOutcome<S> {
    /// The optimal maximum weighted flow `F*`.
    pub optimum: S,
    /// A schedule achieving `F*` in the requested execution model.
    pub schedule: Schedule<S>,
    /// Search statistics.
    pub stats: FlowStats,
}

/// Feasibility probe: does a schedule with max weighted flow ≤ `f` exist?
/// (`preemptive` adds constraint (5b).) §4.3.1: equivalent to deadline
/// scheduling with `d̄_j = r_j + f/w_j`.
pub fn feasible_at<S: Scalar>(inst: &Instance<S>, f: &S, preemptive: bool) -> bool {
    let deadlines: Vec<S> = (0..inst.n_jobs()).map(|j| inst.deadline(j, f)).collect();
    solve(&build_deadline_lp(inst, &deadlines, preemptive).lp).is_optimal()
}

/// Locates the milestone range `[f_lo, f_hi]` that holds the optimum
/// of a search over the objective bracket `(lo, hi)` (`hi = None`: no
/// upper bound), probing feasibility with `probe` (monotone in `F`).
/// `ms` holds the bracket's milestones, sorted ascending, all strictly
/// inside it. Returns `(f_lo, f_hi, reference, probes)`: `f_hi = None`
/// means the unbounded final range, and `reference` is a point interior
/// to the range, where the epochal order is the range's own.
///
/// Theorem 2 searches `(0, ∞)`. An online re-plan searches
/// `(flow already incurred, a serial upper bound)`.
pub fn locate_range<S: Scalar>(
    ms: &[S],
    lo: &S,
    hi: Option<&S>,
    mut probe: impl FnMut(&S) -> bool,
) -> (S, Option<S>, S, usize) {
    let interior = |from: &S| match hi {
        Some(h) => from.midpoint_like(h),
        None => from.add(&S::one()),
    };
    let (Some(first), Some(last)) = (ms.first(), ms.last()) else {
        // No milestones: the epochal order is constant on all of (lo, hi).
        return (lo.clone(), hi.cloned(), interior(lo), 0);
    };
    let mut probes = 1usize;
    if probe(first) {
        // Optimum in (lo, ms[0]].
        return (
            lo.clone(),
            Some(first.clone()),
            lo.midpoint_like(first),
            probes,
        );
    }
    probes += 1;
    if !probe(last) {
        // Optimum beyond every milestone.
        return (last.clone(), hi.cloned(), interior(last), probes);
    }
    // Invariant: infeasible at ms[below], feasible at ms[above].
    let mut below = 0usize;
    let mut above = ms.len() - 1;
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        probes += 1;
        if probe(&ms[mid]) {
            above = mid;
        } else {
            below = mid;
        }
    }
    let reference = ms[below].midpoint_like(&ms[above]);
    (
        ms[below].clone(),
        Some(ms[above].clone()),
        reference,
        probes,
    )
}

/// Small helper: `(a + b) / 2` through the `Scalar` trait.
trait MidpointLike: Scalar {
    fn midpoint_like(&self, other: &Self) -> Self {
        self.add(other).div(&Self::from_i64(2))
    }
}
impl<S: Scalar> MidpointLike for S {}

/// Shared core: locate the range, solve the parametric LP, hand back the
/// optimum, the per-interval α values and the concrete interval bounds
/// evaluated at the optimum.
struct RangeSolution<S> {
    optimum: S,
    /// `(interval, machine, job, fraction)` with positive fraction.
    fractions: Vec<(usize, usize, usize, S)>,
    /// Concrete `(inf, sup)` bounds at the optimum.
    bounds: Vec<(S, S)>,
    stats: FlowStats,
}

/// Which feasibility probe the milestone search uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProbeMethod {
    /// System (2) as an LP — always applicable (unrelated machines).
    #[default]
    Lp,
    /// Max-flow transportation probe — only for instances that factorize
    /// as uniform machines with restricted availabilities (divisible
    /// model only); falls back to [`ProbeMethod::Lp`] otherwise.
    MaxFlowUniform,
}

fn solve_min_flow<S: Scalar>(inst: &Instance<S>, preemptive: bool) -> RangeSolution<S> {
    solve_min_flow_with(inst, preemptive, ProbeMethod::Lp)
}

fn solve_min_flow_with<S: Scalar>(
    inst: &Instance<S>,
    preemptive: bool,
    probe_method: ProbeMethod,
) -> RangeSolution<S> {
    // Theorem 2 measures every deadline from the job's own release and
    // searches all of (0, ∞).
    let releases: Vec<S> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    let mut ms = Vec::new();
    milestones_above(inst, &releases, &S::zero(), &mut ms);
    let factors = match probe_method {
        ProbeMethod::MaxFlowUniform if !preemptive => crate::uniform::uniform_factors(inst),
        _ => None,
    };
    let (f_lo, f_hi, reference, probes, warm_probes, cold_probes) = match &factors {
        Some(fac) => {
            // Closed-form max-flow probes: no simplex runs, so neither LP
            // counter moves.
            let (lo, hi, rf, p) = locate_range(&ms, &S::zero(), None, |f| {
                crate::uniform::feasible_at_uniform(inst, f, fac)
            });
            (lo, hi, rf, p, 0, 0)
        }
        None => {
            let mut prober = LpProber::new(inst, preemptive);
            let (lo, hi, rf, p) = locate_range(&ms, &S::zero(), None, |f| prober.probe(f));
            debug_assert_eq!(prober.n_warm + prober.n_cold, p);
            (lo, hi, rf, p, prober.n_warm, prober.n_cold)
        }
    };
    let built = build_range_lp(
        inst,
        &releases,
        &f_lo,
        f_hi.as_ref(),
        &reference,
        preemptive,
    );
    let sol = solve(&built.lp);
    assert!(
        sol.is_optimal(),
        "the range LP must be feasible on the located milestone range (got {:?}) — \
         range [{f_lo}, {:?}]",
        sol.status,
        f_hi
    );
    let optimum = sol.value(built.f_var).clone();

    let bounds: Vec<(S, S)> = (0..built.intervals.n_intervals())
        .map(|t| {
            (
                built.intervals.inf(t).eval(&optimum),
                built.intervals.sup(t).eval(&optimum),
            )
        })
        .collect();
    let fractions = built
        .alpha
        .iter()
        .filter_map(|(t, i, j, v)| {
            let val = sol.value(*v);
            val.is_positive_tol().then(|| (*t, *i, *j, val.clone()))
        })
        .collect();
    RangeSolution {
        optimum,
        fractions,
        bounds,
        stats: FlowStats {
            n_milestones: ms.len(),
            n_probes: probes,
            n_warm_probes: warm_probes,
            n_cold_probes: cold_probes,
        },
    }
}

/// Theorem 2: exact optimal max weighted flow in the **divisible** model,
/// with an achieving schedule.
pub fn min_max_weighted_flow_divisible<S: Scalar>(inst: &Instance<S>) -> FlowOutcome<S> {
    let rs = solve_min_flow(inst, false);
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Divisible);
    let mut cursor: Vec<Vec<S>> = rs
        .bounds
        .iter()
        .map(|(inf, _)| vec![inf.clone(); inst.n_machines()])
        .collect();
    for (t, i, j, frac) in &rs.fractions {
        let c = inst
            .cost(*i, *j)
            .finite()
            .expect("fraction implies finite cost");
        let dur = frac.mul(c);
        let start = cursor[*t][*i].clone();
        let end = start.add(&dur);
        sched.push(
            *i,
            Slice {
                job: *j,
                start,
                end: end.clone(),
            },
        );
        cursor[*t][*i] = end;
    }
    sched.normalize();
    FlowOutcome {
        optimum: rs.optimum,
        schedule: sched,
        stats: rs.stats,
    }
}

/// §4.4: exact optimal max weighted flow with **preemption but no
/// divisibility**, with an explicit schedule rebuilt by the
/// Lawler–Labetoulle decomposition.
pub fn min_max_weighted_flow_preemptive<S: Scalar>(inst: &Instance<S>) -> FlowOutcome<S> {
    let rs = solve_min_flow(inst, true);
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Preemptive);
    for (t, (inf, sup)) in rs.bounds.iter().enumerate() {
        let len = sup.sub(inf);
        if !len.is_positive_tol() {
            continue;
        }
        let mut work = vec![vec![S::zero(); inst.n_jobs()]; inst.n_machines()];
        for (tt, i, j, frac) in &rs.fractions {
            if *tt == t {
                let c = inst.cost(*i, *j).finite().unwrap();
                work[*i][*j] = work[*i][*j].add(&frac.mul(c));
            }
        }
        let phases = decompose_interval(&work, &len);
        let mut clock = inf.clone();
        for phase in phases {
            let end = clock.add(&phase.duration);
            for (i, j) in phase.assignment {
                sched.push(
                    i,
                    Slice {
                        job: j,
                        start: clock.clone(),
                        end: end.clone(),
                    },
                );
            }
            clock = end;
        }
    }
    sched.normalize();
    FlowOutcome {
        optimum: rs.optimum,
        schedule: sched,
        stats: rs.stats,
    }
}

/// Convenience: exact optimal **max stretch** (divisible), i.e. max
/// weighted flow after re-weighting jobs by the reciprocal of their
/// fastest processing time.
pub fn min_max_stretch_divisible<S: Scalar>(inst: &Instance<S>) -> FlowOutcome<S> {
    min_max_weighted_flow_divisible(&inst.clone().with_stretch_weights())
}

/// Theorem 2 with a selectable feasibility probe: on uniform-with-
/// restricted-availabilities instances, [`ProbeMethod::MaxFlowUniform`]
/// replaces every LP probe of the binary search with one max-flow
/// computation (see [`crate::uniform`]); the final range LP is unchanged,
/// so the result is still the exact optimum.
pub fn min_max_weighted_flow_divisible_with<S: Scalar>(
    inst: &Instance<S>,
    probe_method: ProbeMethod,
) -> FlowOutcome<S> {
    let rs = solve_min_flow_with(inst, false, probe_method);
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Divisible);
    let mut cursor: Vec<Vec<S>> = rs
        .bounds
        .iter()
        .map(|(inf, _)| vec![inf.clone(); inst.n_machines()])
        .collect();
    for (t, i, j, frac) in &rs.fractions {
        let c = inst
            .cost(*i, *j)
            .finite()
            .expect("fraction implies finite cost");
        let dur = frac.mul(c);
        let start = cursor[*t][*i].clone();
        let end = start.add(&dur);
        sched.push(
            *i,
            Slice {
                job: *j,
                start,
                end: end.clone(),
            },
        );
        cursor[*t][*i] = end;
    }
    sched.normalize();
    FlowOutcome {
        optimum: rs.optimum,
        schedule: sched,
        stats: rs.stats,
    }
}

/// Outcome of the ε-bisection strawman ([`min_max_weighted_flow_bisection`]).
#[derive(Clone, Debug)]
pub struct BisectionOutcome<S> {
    /// A feasible objective value within relative `eps` of the optimum.
    pub approx_optimum: S,
    /// Number of bisection iterations = feasibility LPs solved.
    pub iterations: usize,
    /// Final bracket `(infeasible, feasible)`.
    pub bracket: (S, S),
}

/// The approach §4.3.1 warns about: plain bisection on the objective
/// value. "A binary search on this value is not guaranteed to terminate,
/// as it can not attain any arbitrary value of a rational interval. By
/// setting a limit on the precision [...] the quality of the
/// approximation can be guaranteed." Implemented here exactly as that
/// strawman — stop when the bracket's relative width drops below
/// `rel_eps` — to serve as the ablation baseline against the exact
/// milestone method (see the `ablation_probes` experiment binary).
pub fn min_max_weighted_flow_bisection<S: Scalar>(
    inst: &Instance<S>,
    rel_eps: &S,
    preemptive: bool,
) -> BisectionOutcome<S> {
    assert!(rel_eps.is_positive_tol(), "rel_eps must be positive");
    let mut hi = inst.naive_flow_upper_bound();
    if !hi.is_positive_tol() {
        // Degenerate: everything completes instantly.
        return BisectionOutcome {
            approx_optimum: S::zero(),
            iterations: 0,
            bracket: (S::zero(), S::zero()),
        };
    }
    // The naive bound is feasible by construction; 0 may or may not be.
    let mut lo = S::zero();
    let mut iterations = 0usize;
    let two = S::from_i64(2);
    loop {
        let width = hi.sub(&lo);
        if width.le_tol(&rel_eps.mul(&hi)) {
            break;
        }
        let mid = lo.add(&hi).div(&two);
        iterations += 1;
        if feasible_at(inst, &mid, preemptive) {
            hi = mid;
        } else {
            lo = mid;
        }
        if iterations > 4096 {
            break; // safety net for pathological eps with exact arithmetic
        }
    }
    BisectionOutcome {
        approx_optimum: hi.clone(),
        iterations,
        bracket: (lo, hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::validate::validate;
    use dlflow_num::Rat;

    fn ri(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    #[test]
    fn single_job_optimum_is_processing_time() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(ri(3), ri(2));
        b.machine(vec![Some(ri(5))]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        // F* = w · c = 2 · 5 = 10.
        assert_eq!(out.optimum, ri(10));
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.max_weighted_flow(&inst), ri(10));
    }

    #[test]
    fn split_job_halves_flow() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(4))]);
        b.machine(vec![Some(ri(4))]);
        let inst = b.build().unwrap();
        let div = min_max_weighted_flow_divisible(&inst);
        assert_eq!(div.optimum, ri(2)); // half on each machine
        validate(&inst, &div.schedule).unwrap();
        let pre = min_max_weighted_flow_preemptive(&inst);
        assert_eq!(pre.optimum, ri(4)); // cannot run on both at once
        validate(&inst, &pre.schedule).unwrap();
    }

    #[test]
    fn two_jobs_shared_machine_exact_value() {
        // One machine; J1 (r=0, w=1, c=2), J2 (r=0, w=1, c=2).
        // Optimal max flow: both finish by 4 ⇒ F* = 4 (whoever is second).
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(2)), Some(ri(2))]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        assert_eq!(out.optimum, ri(4));
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.max_weighted_flow(&inst), ri(4));
    }

    #[test]
    fn weights_shift_the_optimum() {
        // Same as above but J2 has weight 3: the optimum balances
        // w1(C1) = C1 and 3(C2) with C1, C2 ∈ schedules on one machine of
        // total work 4. Best: finish J2 first at t2, J1 at 4.
        // F* = min over orders: max(4·1, t2·3) with t2 ≥ 2 → order J2 first:
        // max(4, 6)=6; order J1 first: max(2... J1 done at 2 (F=2), J2 at 4
        // (F=12). Divisible can interleave: completion times C1, C2 with
        // C1 ≥ ... the LP finds the true optimum; known value:
        // schedule J2 fully during [0,2): C2=2, wf=6; J1 during [2,4): C1=4,
        // wf=4 → F*=6? Can we beat 6? C2·3 ≥ 3·(work of J2 alone = 2) = 6.
        // So F* = 6.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), ri(3));
        b.machine(vec![Some(ri(2)), Some(ri(2))]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        assert_eq!(out.optimum, ri(6));
        validate(&inst, &out.schedule).unwrap();
    }

    #[test]
    fn staggered_releases_cross_milestones() {
        // Forces a non-trivial milestone search: different releases/weights.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.job(ri(2), Rat::one());
        b.machine(vec![Some(ri(3)), Some(ri(2)), Some(ri(2))]);
        b.machine(vec![Some(ri(6)), Some(ri(4)), None]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        validate(&inst, &out.schedule).unwrap();
        // The schedule's realized objective equals the claimed optimum.
        assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum);
        // And the optimum is a true lower bound: probing below fails.
        let below = out.optimum.sub(&Rat::from_ratio(1, 1000));
        assert!(!feasible_at(&inst, &below, false));
        assert!(feasible_at(&inst, &out.optimum, false));
        assert!(out.stats.n_milestones <= crate::milestones::milestone_bound(3));
    }

    #[test]
    fn warm_probes_reduce_cold_solves() {
        // Enough distinct releases/weights that the binary search runs
        // several probes; all probes after the first must warm-start
        // (probe LPs share one shape thanks to build_deadline_probe_lp).
        let mut b = InstanceBuilder::<Rat>::new();
        let data = [(0i64, 1i64), (1, 2), (3, 1), (5, 3), (8, 2)];
        for (rel, w) in data {
            b.job(ri(rel), ri(w));
        }
        for i in 0..2 {
            b.machine(
                (0..data.len())
                    .map(|j| Some(ri(2 + ((i + j) % 3) as i64)))
                    .collect(),
            );
        }
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        validate(&inst, &out.schedule).unwrap();
        let st = &out.stats;
        assert_eq!(st.n_probes, st.n_warm_probes + st.n_cold_probes);
        assert!(st.n_probes >= 3, "expected a nontrivial search, got {st:?}");
        assert!(
            st.n_warm_probes >= st.n_probes - 2,
            "probes after the first feasible one must warm-start: {st:?}"
        );
        assert!(st.n_cold_probes < st.n_probes, "{st:?}");
    }

    #[test]
    fn locate_range_respects_a_bounded_bracket() {
        let ms = [2.0, 4.0, 6.0];
        let feasible_from = |t: f64| move |f: &f64| *f >= t;
        // The optimum between two milestones.
        assert_eq!(
            locate_range(&ms, &1.0, Some(&8.0), feasible_from(5.0)),
            (4.0, Some(6.0), 5.0, 3)
        );
        // Below the first milestone, and above the last: the bracket's
        // own ends close the range.
        assert_eq!(
            locate_range(&ms, &1.0, Some(&8.0), feasible_from(1.5)),
            (1.0, Some(2.0), 1.5, 1)
        );
        assert_eq!(
            locate_range(&ms, &1.0, Some(&8.0), feasible_from(7.0)),
            (6.0, Some(8.0), 7.0, 2)
        );
        // No milestone: the whole bracket, no probe.
        assert_eq!(
            locate_range(&[], &1.0, Some(&8.0), feasible_from(7.0)),
            (1.0, Some(8.0), 4.5, 0)
        );
        assert_eq!(
            locate_range(&[], &0.0, None, feasible_from(7.0)),
            (0.0, None, 1.0, 0)
        );
    }

    #[test]
    fn preemptive_at_least_divisible() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), Rat::one());
        b.machine(vec![Some(ri(4)), Some(ri(3))]);
        b.machine(vec![Some(ri(2)), Some(ri(6))]);
        let inst = b.build().unwrap();
        let div = min_max_weighted_flow_divisible(&inst);
        let pre = min_max_weighted_flow_preemptive(&inst);
        assert!(div.optimum <= pre.optimum);
        validate(&inst, &div.schedule).unwrap();
        validate(&inst, &pre.schedule).unwrap();
        assert_eq!(pre.schedule.max_weighted_flow(&inst), pre.optimum);
    }

    #[test]
    fn stretch_convenience() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one()); // weight replaced by 1/c
        b.machine(vec![Some(ri(5))]);
        let inst = b.build().unwrap();
        let out = min_max_stretch_divisible(&inst);
        // Alone in the system: stretch 1.
        assert_eq!(out.optimum, Rat::one());
    }

    #[test]
    fn uniform_probe_method_matches_lp_probes() {
        // A uniform instance (W·s factorization) with staggered releases.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.job(ri(3), Rat::one());
        b.machine(vec![Some(ri(4)), Some(ri(2)), Some(ri(6))]);
        b.machine(vec![Some(ri(8)), None, Some(ri(12))]);
        let inst = b.build().unwrap();
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        assert_eq!(lp.optimum, mf.optimum);
        validate(&inst, &mf.schedule).unwrap();
        assert_eq!(mf.schedule.max_weighted_flow(&inst), mf.optimum);
    }

    #[test]
    fn maxflow_probe_falls_back_on_unrelated() {
        // Genuinely unrelated costs: MaxFlowUniform must silently fall
        // back to LP probes and still return the exact optimum.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(2)), Some(ri(9))]);
        b.machine(vec![Some(ri(7)), Some(ri(3))]);
        let inst = b.build().unwrap();
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        assert_eq!(lp.optimum, mf.optimum);
    }

    #[test]
    fn bisection_brackets_the_exact_optimum() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.machine(vec![Some(ri(3)), Some(ri(2))]);
        b.machine(vec![Some(ri(6)), Some(ri(4))]);
        let inst = b.build().unwrap();
        let exact = min_max_weighted_flow_divisible(&inst);
        let approx = min_max_weighted_flow_bisection(&inst, &Rat::from_ratio(1, 1000), false);
        // The bisection answer is feasible and within eps of the optimum...
        assert!(approx.approx_optimum >= exact.optimum);
        let rel = approx
            .approx_optimum
            .sub_ref(&exact.optimum)
            .div_ref(&exact.optimum);
        assert!(rel <= Rat::from_ratio(1, 500), "rel error {rel}");
        // ...but needs far more probes than the milestone search.
        assert!(approx.iterations > exact.stats.n_probes);
    }

    #[test]
    fn f64_mode_close_to_exact() {
        let mut b = InstanceBuilder::<f64>::new();
        b.job(0.0, 1.0);
        b.job(1.0, 2.0);
        b.machine(vec![Some(3.0), Some(2.0)]);
        b.machine(vec![Some(6.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let approx = min_max_weighted_flow_divisible(&inst);
        let exact = min_max_weighted_flow_divisible(&inst.map_scalar(|v| Rat::from_f64(*v)));
        assert!((approx.optimum - exact.optimum.to_f64()).abs() < 1e-6);
    }
}
