//! Constraint generators for the paper's linear systems.
//!
//! | System | Paper | Purpose |
//! |--------|-------|---------|
//! | (1) | §4.1 | divisible makespan minimization |
//! | (2) | §4.2 | deadline-window feasibility (fixed deadlines) |
//! | (3) | §4.3.2 | min max weighted flow on a milestone range (divisible) |
//! | (5) | §4.4 | same, with the per-job-per-interval bound (preemptive) |
//!
//! Equations (a)–(e) that force `α⁽ᵗ⁾ᵢⱼ = 0` (release / deadline /
//! availability) are realised by **not creating the variable at all**,
//! which keeps the LPs as small as the instance allows.

use crate::instance::Instance;
use crate::intervals::{AffineF, ConcreteIntervals, SymbolicIntervals};
use dlflow_lp::{LinExpr, LpProblem, Rel, Sense, VarId};
use dlflow_num::Scalar;

/// A created `α⁽ᵗ⁾ᵢⱼ` variable: `(interval, machine, job, lp-var)`.
pub type AlphaVar = (usize, usize, usize, VarId);

/// System (1): the makespan LP.
pub struct MakespanLp<S> {
    /// The assembled linear program (minimize `Δ_n`).
    pub lp: LpProblem<S>,
    /// All `α` variables. Interval index `t == intervals.n_intervals()`
    /// denotes the final unbounded interval `[r_max, r_max + Δ_n)`.
    pub alpha: Vec<AlphaVar>,
    /// The `Δ_n` variable (length of the final interval).
    pub delta: VarId,
    /// Finite intervals between consecutive distinct release dates.
    pub intervals: ConcreteIntervals<S>,
}

/// Builds System (1) for the instance.
pub fn build_makespan_lp<S: Scalar>(inst: &Instance<S>) -> MakespanLp<S> {
    let intervals = ConcreteIntervals::from_points(inst.distinct_releases());
    let n_fin = intervals.n_intervals();
    let mut lp: LpProblem<S> = LpProblem::new(Sense::Minimize);
    let delta = lp.add_var("delta");
    lp.objective_term(delta, S::one());

    let mut alpha: Vec<AlphaVar> = Vec::new();
    // t in 0..n_fin → finite; t == n_fin → final interval.
    for t in 0..=n_fin {
        for i in 0..inst.n_machines() {
            for j in 0..inst.n_jobs() {
                if !inst.cost(i, j).is_finite() {
                    continue; // (availability)
                }
                // (1a): the job must be released at or before the interval start.
                let start_ok = if t < n_fin {
                    inst.job(j).release.le_tol(intervals.inf(t))
                } else {
                    true // final interval starts at r_max ≥ every release
                };
                if !start_ok {
                    continue;
                }
                let v = lp.add_var(format!("a[{t}][{i}][{j}]"));
                alpha.push((t, i, j, v));
            }
        }
    }

    // (1b)/(1c): machine capacity per interval.
    for t in 0..=n_fin {
        for i in 0..inst.n_machines() {
            let mut expr = LinExpr::new();
            for (tt, ii, j, v) in &alpha {
                if *tt == t && *ii == i {
                    expr.push(*v, inst.cost(i, *j).finite().unwrap().clone()); // dlflint:allow(hot-path-panic, "alpha variables exist only for finite (i, j) cost pairs")
                }
            }
            if t < n_fin {
                if !expr.is_empty() {
                    lp.add_constraint_labelled(
                        format!("cap[t{t}][m{i}]"),
                        expr,
                        Rel::Le,
                        intervals.len(t),
                    );
                }
            } else {
                // Σ α·c − Δ ≤ 0
                expr.push(delta, S::one().neg());
                lp.add_constraint_labelled(format!("cap[final][m{i}]"), expr, Rel::Le, S::zero());
            }
        }
    }

    // (1d): completion.
    for j in 0..inst.n_jobs() {
        let mut expr = LinExpr::new();
        for (_, _, jj, v) in &alpha {
            if *jj == j {
                expr.push(*v, S::one());
            }
        }
        lp.add_constraint_labelled(format!("done[j{j}]"), expr, Rel::Eq, S::one());
    }

    MakespanLp {
        lp,
        alpha,
        delta,
        intervals,
    }
}

/// System (2): deadline feasibility with concrete per-job deadlines.
pub struct DeadlineLp<S> {
    /// The assembled feasibility program (zero objective).
    pub lp: LpProblem<S>,
    /// All `α` variables.
    pub alpha: Vec<AlphaVar>,
    /// Intervals between consecutive epochal times (releases ∪ deadlines).
    pub intervals: ConcreteIntervals<S>,
}

/// Builds System (2). `deadlines[j]` is `d̄_j`.
///
/// When `per_job_interval_bound` is set, constraint (5b) is added on top —
/// this is the concrete-`F` version of System (5) used as the feasibility
/// probe for the *preemptive* (non-divisible) variant of the problem.
///
/// This builder sits on OLA's per-event hot path (one call per
/// milestone probe plus the final rate solve), so variables and
/// constraints are anonymous — names and labels are display-only and the
/// `format!` calls used to dominate the build at production sub-problem
/// sizes — and row expressions are bucketed in the variable-creation pass
/// instead of rescanning the `α` list per row. Both changes are
/// numerically invisible: the emitted LP has the same terms in the same
/// order, so every simplex pivot (and thus every verdict the campaign
/// goldens pin) is unchanged.
pub fn build_deadline_lp<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    per_job_interval_bound: bool,
) -> DeadlineLp<S> {
    assert_eq!(deadlines.len(), inst.n_jobs());
    let mut points: Vec<S> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    points.extend(deadlines.iter().cloned());
    let intervals = ConcreteIntervals::from_points(points);
    let n_int = intervals.n_intervals();
    let (m, n) = (inst.n_machines(), inst.n_jobs());

    let mut lp: LpProblem<S> = LpProblem::new(Sense::Minimize);
    let mut alpha: Vec<AlphaVar> = Vec::new();
    let mut cap_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n_int * m];
    let mut jobcap_expr: Vec<LinExpr<S>> = if per_job_interval_bound {
        vec![LinExpr::new(); n_int * n]
    } else {
        Vec::new()
    };
    let mut done_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n];
    for t in 0..n_int {
        for i in 0..m {
            for j in 0..n {
                if !inst.cost(i, j).is_finite() {
                    continue;
                }
                // (2a): released before the interval; (2b): due after it.
                if !inst.job(j).release.le_tol(intervals.inf(t)) {
                    continue;
                }
                if !deadlines[j].ge_tol(intervals.sup(t)) {
                    continue;
                }
                let v = lp.add_var("");
                alpha.push((t, i, j, v));
                let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "guarded by the is_finite check at the top of this loop body")
                cap_expr[t * m + i].push(v, c.clone());
                if per_job_interval_bound {
                    jobcap_expr[t * n + j].push(v, c.clone());
                }
                done_expr[j].push(v, S::one());
            }
        }
    }

    // (2c) machine capacity.
    let mut cap_expr = cap_expr.into_iter();
    for t in 0..n_int {
        for _ in 0..m {
            let expr = cap_expr.next().unwrap(); // dlflint:allow(hot-path-panic, "iterator was built with exactly n_int * m expressions")
            if !expr.is_empty() {
                lp.add_constraint(expr, Rel::Le, intervals.len(t));
            }
        }
    }

    // (5b) optional: a job cannot occupy more wall-clock than the interval.
    if per_job_interval_bound {
        let mut jobcap_expr = jobcap_expr.into_iter();
        for t in 0..n_int {
            for _ in 0..n {
                let expr = jobcap_expr.next().unwrap(); // dlflint:allow(hot-path-panic, "iterator was built with exactly n_int * n expressions")
                if !expr.is_empty() {
                    lp.add_constraint(expr, Rel::Le, intervals.len(t));
                }
            }
        }
    }

    // (2d) completion. An empty expression (no interval can host the job)
    // yields `0 = 1`, i.e. infeasibility — exactly right.
    for expr in done_expr {
        lp.add_constraint(expr, Rel::Eq, S::one());
    }

    DeadlineLp {
        lp,
        alpha,
        intervals,
    }
}

/// System (2) in **probe form**: a deadline-feasibility LP whose *shape*
/// — variable count, variable order and constraint-relation pattern — is
/// independent of the deadline vector.
///
/// The filtered builder ([`build_deadline_lp`]) keeps LPs minimal by not
/// creating variables that equations (a)–(e) force to zero, but that makes
/// LPs at different objective values structurally different, so the
/// Theorem-2 binary search cannot carry a simplex basis from one probe to
/// the next. This builder instead fixes the frame:
///
/// * intervals are the `2n − 1` gaps between the sorted (NOT deduplicated)
///   epochal times — coincident times yield zero-length intervals whose
///   capacity rows force their `α` to 0;
/// * every `(t, i, j)` with finite cost gets a variable in a fixed order;
///   inadmissible combinations simply appear in **no** constraint (an
///   empty column can only sit at 0 in a basic solution, so feasibility
///   is unchanged);
/// * every capacity/completion row is emitted even when its expression is
///   empty.
///
/// Feasibility status is identical to [`build_deadline_lp`]'s; the payoff
/// is that any two probes of the same instance are
/// [`dlflow_lp::WarmBasis`]-compatible, enabling warm-started probes.
pub fn build_deadline_probe_lp<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    per_job_interval_bound: bool,
) -> LpProblem<S> {
    assert_eq!(deadlines.len(), inst.n_jobs());
    let mut pts: Vec<S> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    pts.extend(deadlines.iter().cloned());
    pts.sort_by(|a, b| a.cmp_total(b));
    let n_int = pts.len() - 1;

    let (m, n) = (inst.n_machines(), inst.n_jobs());
    let mut lp: LpProblem<S> = LpProblem::new(Sense::Minimize);
    // This builder runs once per probe of the binary search, so constraint
    // expressions are bucketed during variable creation (one pass) instead
    // of rescanning the α list per row.
    let mut cap_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n_int * m];
    let mut jobcap_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n_int * n];
    let mut done_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n];
    for t in 0..n_int {
        let (inf, sup) = (&pts[t], &pts[t + 1]);
        let degenerate = !sup.sub(inf).is_positive_tol();
        for i in 0..m {
            for j in 0..n {
                if !inst.cost(i, j).is_finite() {
                    continue; // availability is deadline-independent
                }
                let v = lp.add_var("");
                let admissible =
                    !degenerate && inst.job(j).release.le_tol(inf) && deadlines[j].ge_tol(sup);
                if admissible {
                    let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "guarded by the is_finite check at the top of this loop body")
                    cap_expr[t * m + i].push(v, c.clone());
                    jobcap_expr[t * n + j].push(v, c.clone());
                    done_expr[j].push(v, S::one());
                }
            }
        }
    }

    // (2c) machine capacity — one row per (t, i), even when empty.
    let mut cap_expr = cap_expr.into_iter();
    for t in 0..n_int {
        let len = pts[t + 1].sub(&pts[t]);
        for _ in 0..m {
            let expr = cap_expr.next().unwrap(); // dlflint:allow(hot-path-panic, "iterator was built with exactly n_int * m expressions")
            lp.add_constraint(expr, Rel::Le, len.clone());
        }
    }

    // (5b) per-job wall-clock bound — one row per (t, j) when requested.
    if per_job_interval_bound {
        let mut jobcap_expr = jobcap_expr.into_iter();
        for t in 0..n_int {
            let len = pts[t + 1].sub(&pts[t]);
            for _ in 0..n {
                let expr = jobcap_expr.next().unwrap(); // dlflint:allow(hot-path-panic, "iterator was built with exactly n_int * n expressions")
                lp.add_constraint(expr, Rel::Le, len.clone());
            }
        }
    }

    // (2d) completion — an empty expression yields `0 = 1`: infeasible.
    for expr in done_expr {
        lp.add_constraint(expr, Rel::Eq, S::one());
    }

    lp
}

/// Maps the variable indices of one probe-form LP onto another, so a
/// [`dlflow_lp::WarmBasis`] captured on `build_deadline_probe_lp(old, …)`
/// can be carried (via [`dlflow_lp::WarmBasis::remap`]) onto
/// `build_deadline_probe_lp(new, …)` after the job set churned.
///
/// `job_map[j_old]` gives the new column of old job `j_old` (`None` =
/// departed). Machines must correspond 1:1 by index; a pair whose cost
/// flipped between finite and infinite (platform change) simply drops
/// out. The `t`-th interval frame of the old LP is identified with the
/// `t`-th of the new one — with a different job set those frames cover
/// different wall-clock windows, but a warm hint is only a pivot-order
/// suggestion: the dual-simplex repair (or cold fallback) in
/// `solve_warm` owns correctness, so an imperfect identification costs
/// at most pivots, never accuracy.
pub fn probe_var_remap<S: Scalar>(
    old: &Instance<S>,
    new: &Instance<S>,
    job_map: &[Option<usize>],
) -> Vec<Option<usize>> {
    assert_eq!(job_map.len(), old.n_jobs());
    assert_eq!(old.n_machines(), new.n_machines());
    let m = old.n_machines();
    let (n_old, n_new) = (old.n_jobs(), new.n_jobs());

    // Rank of each finite (i, j) pair in the new LP's i-major order.
    let mut new_rank = vec![usize::MAX; m * n_new];
    let mut f_new = 0usize;
    for i in 0..m {
        for j in 0..n_new {
            if new.cost(i, j).is_finite() {
                new_rank[i * n_new + j] = f_new;
                f_new += 1;
            }
        }
    }

    // Old finite pairs, mapped through the job map where they survive.
    let mut pair_map: Vec<Option<usize>> = Vec::new();
    for i in 0..m {
        for j_old in 0..n_old {
            if !old.cost(i, j_old).is_finite() {
                continue;
            }
            pair_map.push(job_map[j_old].and_then(|j_new| {
                let r = new_rank[i * n_new + j_new];
                (r != usize::MAX).then_some(r)
            }));
        }
    }
    let f_old = pair_map.len();

    // Probe-form interval count is shape-determined: 2n − 1.
    let t_old = 2 * n_old - 1;
    let t_new = 2 * n_new - 1;
    let mut out = Vec::with_capacity(t_old * f_old);
    for t in 0..t_old {
        for fo in pair_map.iter().take(f_old) {
            if t < t_new {
                out.push(fo.map(|fn_| t * f_new + fn_));
            } else {
                out.push(None);
            }
        }
    }
    out
}

/// Systems (3)/(5): minimize `F` over a milestone range.
pub struct RangeLp<S> {
    /// The assembled program (minimize `F`).
    pub lp: LpProblem<S>,
    /// All `α` variables.
    pub alpha: Vec<AlphaVar>,
    /// The objective-value variable `F`.
    pub f_var: VarId,
    /// Symbolic intervals whose bounds are affine in `F`.
    pub intervals: SymbolicIntervals<S>,
}

/// Builds System (3) (divisible) or System (5) (`preemptive = true`) on
/// the objective range `[f_lo, f_hi]` (`f_hi = None` → unbounded above).
///
/// Job `j`'s deadline is `origins[j] + F/w_j`: Theorem 2 passes the
/// releases; an online re-plan passes the original releases of jobs
/// whose remaining work is all released at `now`.
///
/// `reference` must be a point interior to the milestone range so that
/// the relative order of releases and deadlines is the one valid across
/// the whole range.
///
/// Like [`build_deadline_lp`], this builder runs at every OLA re-plan,
/// so variables and constraints are anonymous and row expressions are
/// bucketed in the variable-creation pass; the emitted LP has the same
/// terms in the same order as a per-row rescan would give.
pub fn build_range_lp<S: Scalar>(
    inst: &Instance<S>,
    origins: &[S],
    f_lo: &S,
    f_hi: Option<&S>,
    reference: &S,
    preemptive: bool,
) -> RangeLp<S> {
    assert_eq!(origins.len(), inst.n_jobs());
    let (m, n) = (inst.n_machines(), inst.n_jobs());
    // Breakpoints: releases (constants) and deadlines origin_j + F/w_j.
    let mut points: Vec<AffineF<S>> = Vec::with_capacity(2 * n);
    for (job, origin) in inst.jobs().iter().zip(origins) {
        points.push(AffineF::constant(job.release.clone()));
        points.push(AffineF {
            a: origin.clone(),
            b: job.weight.recip(),
        });
    }
    let intervals = SymbolicIntervals::from_points(points, reference.clone());
    let n_int = intervals.n_intervals();
    let deadline_ref: Vec<S> = inst
        .jobs()
        .iter()
        .zip(origins)
        .map(|(job, origin)| origin.add(&reference.div(&job.weight)))
        .collect();

    let mut lp: LpProblem<S> = LpProblem::new(Sense::Minimize);
    let f_var = lp.add_var("");
    lp.objective_term(f_var, S::one());

    // (3a): F within the milestone range.
    if f_lo.is_positive_tol() {
        lp.bound_ge(f_var, f_lo.clone());
    }
    if let Some(hi) = f_hi {
        lp.bound_le(f_var, hi.clone());
    }

    // Variable creation: (3b) release / (3c) deadline / availability.
    // Order is constant on the range, so comparisons at the reference
    // point decide them for the whole range.
    let mut alpha: Vec<AlphaVar> = Vec::new();
    let mut cap_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n_int * m];
    let mut jobcap_expr: Vec<LinExpr<S>> = if preemptive {
        vec![LinExpr::new(); n_int * n]
    } else {
        Vec::new()
    };
    let mut done_expr: Vec<LinExpr<S>> = vec![LinExpr::new(); n];
    for t in 0..n_int {
        let inf_ref = intervals.inf(t).eval(reference);
        let sup_ref = intervals.sup(t).eval(reference);
        for i in 0..m {
            for j in 0..n {
                let Some(c) = inst.cost(i, j).finite() else {
                    continue; // availability
                };
                if !inst.job(j).release.le_tol(&inf_ref) {
                    continue; // (3b)
                }
                if !deadline_ref[j].ge_tol(&sup_ref) {
                    continue; // (3c)
                }
                let v = lp.add_var("");
                alpha.push((t, i, j, v));
                cap_expr[t * m + i].push(v, c.clone());
                if preemptive {
                    jobcap_expr[t * n + j].push(v, c.clone());
                }
                done_expr[j].push(v, S::one());
            }
        }
    }

    // (3d): machine capacity — Σ α·c − len_b·F ≤ len_a; then (5b): the
    // per-job wall-clock bound per interval, in the same form.
    let per_interval = [(cap_expr, m), (jobcap_expr, n)];
    for (rows, width) in per_interval {
        for (k, mut expr) in rows.into_iter().enumerate() {
            if !expr.is_empty() {
                let len = intervals.len(k / width);
                expr.push(f_var, len.b.neg());
                lp.add_constraint(expr, Rel::Le, len.a);
            }
        }
    }

    // (3e): completion.
    for expr in done_expr {
        lp.add_constraint(expr, Rel::Eq, S::one());
    }

    RangeLp {
        lp,
        alpha,
        f_var,
        intervals,
    }
}

/// Turns an LP solution's `α` values into an explicit schedule by packing,
/// within every interval and machine, the non-zero fractions back to back
/// from the interval start (the paper: "during any time interval It we can
/// schedule in any order (and without idle times) the non-null fractions").
///
/// `bounds[t] = (inf, sup)` are the concrete interval bounds. Only valid
/// for the **divisible** model — preemptive schedules need the
/// Lawler–Labetoulle decomposition instead (see [`crate::decompose`]).
pub fn pack_alpha_schedule<S: Scalar>(
    inst: &Instance<S>,
    bounds: &[(S, S)],
    alpha: &[AlphaVar],
    values: &[S],
) -> crate::schedule::Schedule<S> {
    use crate::schedule::{Schedule, ScheduleKind, Slice};
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Divisible);
    // Cursor per (interval, machine).
    let mut cursor: Vec<Vec<S>> = bounds
        .iter()
        .map(|(inf, _)| vec![inf.clone(); inst.n_machines()])
        .collect();
    for (t, i, j, v) in alpha {
        let frac = &values[v.index()];
        if !frac.is_positive_tol() {
            continue;
        }
        let dur = frac.mul(
            inst.cost(*i, *j)
                .finite()
                .expect("alpha var implies finite cost"),
        );
        let start = cursor[*t][*i].clone();
        let end = start.add(&dur);
        debug_assert!(
            end.le_tol(&bounds[*t].1),
            "interval capacity exceeded while packing: end={end} sup={}",
            bounds[*t].1
        );
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
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dlflow_lp::{solve, LpStatus};
    use dlflow_num::Rat;

    fn simple() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(2.0, 1.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        b.build().unwrap()
    }

    #[test]
    fn makespan_lp_shape() {
        let inst = simple();
        let m = build_makespan_lp(&inst);
        // Intervals: [0,2) finite + final. J1 everywhere, J2 only in final.
        assert_eq!(m.intervals.n_intervals(), 1);
        // α vars: (t0, m0, j0), (final, m0, j0), (final, m0, j1) = 3.
        assert_eq!(m.alpha.len(), 3);
        let sol = solve(&m.lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        // One machine, 8 units of work, J2 released at 2; both fully
        // processable: lower bound max(total work, r2 + c2) = 8 ≥ 2+4.
        // Optimal Cmax = 8 → Δ = 8 − 2 = 6.
        assert!((sol.objective.unwrap() - 6.0).abs() < 1e-7);
    }

    #[test]
    fn deadline_lp_feasible_and_not() {
        let inst = simple();
        // Deadlines generous: feasible.
        let d = vec![10.0, 10.0];
        let lp = build_deadline_lp(&inst, &d, false);
        assert_eq!(solve(&lp.lp).status, LpStatus::Optimal);
        // Impossible: both jobs due by 4 but 8 units of single-machine work.
        let d = vec![4.0, 4.0];
        let lp = build_deadline_lp(&inst, &d, false);
        assert_eq!(solve(&lp.lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn deadline_lp_infeasible_when_window_empty() {
        let mut b = InstanceBuilder::new();
        b.job(5.0, 1.0);
        b.machine(vec![Some(1.0)]);
        let inst = b.build().unwrap();
        // Deadline before release: no interval can host the job.
        let lp = build_deadline_lp(&inst, &[3.0], false);
        assert_eq!(solve(&lp.lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn probe_form_matches_filtered_builder() {
        // The uniform-shape probe LP must agree with the filtered System-(2)
        // builder on feasibility, for assorted deadline vectors and both
        // the divisible and preemptive (5b) variants.
        let inst = simple();
        for d in [
            vec![10.0, 10.0],
            vec![4.0, 4.0],
            vec![8.0, 8.0],
            vec![3.0, 9.0],
            vec![9.0, 3.0],
        ] {
            for pre in [false, true] {
                let filtered = solve(&build_deadline_lp(&inst, &d, pre).lp).status;
                let probe = solve(&build_deadline_probe_lp(&inst, &d, pre)).status;
                assert_eq!(filtered, probe, "deadlines {d:?} preemptive={pre}");
            }
        }
    }

    #[test]
    fn probe_form_shape_is_deadline_independent() {
        let inst = simple();
        let a = build_deadline_probe_lp(&inst, &[10.0, 10.0], false);
        let b = build_deadline_probe_lp(&inst, &[3.0, 7.5], false);
        assert_eq!(a.n_vars(), b.n_vars());
        assert_eq!(a.n_constraints(), b.n_constraints());
        for (ca, cb) in a.constraints().iter().zip(b.constraints()) {
            assert_eq!(ca.rel, cb.rel);
        }
    }

    #[test]
    fn probe_var_remap_carries_basis_across_job_churn() {
        // Solve a 2-job probe, then drop job 0 and append a newcomer: the
        // remapped basis must warm-start the new shape and the warm
        // verdicts must agree with cold solves.
        use dlflow_lp::solve_warm;
        let old = simple();
        let lp_old = build_deadline_probe_lp(&old, &[10.0, 10.0], false);
        let first = solve_warm(&lp_old, None);
        assert_eq!(first.solution.status, LpStatus::Optimal);
        let basis = first.basis.expect("optimal probe must yield a basis");

        // Old job 1 survives as new job 0; new job 1 is an arrival.
        let mut b = InstanceBuilder::new();
        b.job(2.0, 1.0);
        b.job(3.0, 2.0);
        b.machine(vec![Some(4.0), Some(6.0)]);
        let new = b.build().unwrap();
        let map = probe_var_remap(&old, &new, &[None, Some(0)]);
        assert_eq!(map.len(), lp_old.n_vars());

        for d in [vec![20.0, 20.0], vec![6.0, 30.0]] {
            let lp_new = build_deadline_probe_lp(&new, &d, false);
            let hint = basis.remap(&lp_new, &map);
            let out = solve_warm(&lp_new, Some(&hint));
            assert_eq!(
                out.solution.status,
                solve(&lp_new).status,
                "warm and cold verdicts must agree for deadlines {d:?}"
            );
        }
    }

    #[test]
    fn probe_var_remap_is_identity_on_unchanged_shape() {
        let inst = simple();
        let lp = build_deadline_probe_lp(&inst, &[10.0, 10.0], false);
        let map = probe_var_remap(&inst, &inst, &[Some(0), Some(1)]);
        assert_eq!(map.len(), lp.n_vars());
        for (v, mapped) in map.iter().enumerate() {
            assert_eq!(*mapped, Some(v));
        }
    }

    #[test]
    fn preemptive_probe_is_stricter() {
        // Two machines, one job of cost 2 on each, deadline 1 after release:
        // divisible can split (half on each, done at 1); preemptive cannot
        // (the job would need 2 wall-clock units in a 1-unit window).
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0)]);
        b.machine(vec![Some(2.0)]);
        let inst = b.build().unwrap();
        let div = build_deadline_lp(&inst, &[1.0], false);
        assert_eq!(solve(&div.lp).status, LpStatus::Optimal);
        let pre = build_deadline_lp(&inst, &[1.0], true);
        assert_eq!(solve(&pre.lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn range_lp_measures_deadlines_from_origins() {
        // Remaining work released at 5 on one machine, deadlines 0 + F
        // and 3 + F/2 (they cross at F = 6). Serving job 1 first gives
        // max(7, 2·(6 − 3)) = 7; job 0 first gives max(6, 2·(7 − 3)) = 8.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::from_i64(5), Rat::one());
        b.job(Rat::from_i64(5), Rat::from_i64(2));
        b.machine(vec![Some(Rat::one()), Some(Rat::one())]);
        let inst = b.build().unwrap();
        let origins = [Rat::zero(), Rat::from_i64(3)];
        let six = Rat::from_i64(6);
        let r = build_range_lp(&inst, &origins, &six, None, &Rat::from_i64(7), false);
        let sol = solve(&r.lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), Rat::from_i64(7));
    }

    #[test]
    fn range_lp_minimizes_f_exactly() {
        // One machine, one job (r=0, w=1, c=4): optimum F* = 4.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::from_i64(4))]);
        let inst = b.build().unwrap();
        // No milestones (single job): range (0, ∞), reference 1.
        let r = build_range_lp(
            &inst,
            &[Rat::zero()],
            &Rat::zero(),
            None,
            &Rat::one(),
            false,
        );
        let sol = solve(&r.lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), Rat::from_i64(4));
    }
}
