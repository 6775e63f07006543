//! Milestones of the max-weighted-flow objective (§4.3.2, "Particular
//! objectives"; Labetoulle–Lawler–Lenstra–Rinnooy Kan call them *critical
//! trial values*).
//!
//! The deadline of job `j` is the affine, strictly increasing function
//! `d̄_j(F) = r_j + F/w_j`. The relative order of the epochal times
//! `{r_1..r_n, d̄_1(F)..d̄_n(F)}` changes only at values of `F` where a
//! deadline meets a release date or another deadline:
//!
//! * `d̄_j(F) = r_k`  ⇒  `F = w_j (r_k − r_j)`  (at most n(n−1)/2 positive),
//! * `d̄_j(F) = d̄_k(F)` ⇒ `F = (r_k − r_j) / (1/w_j − 1/w_k)` (same bound),
//!
//! for a total of at most `n² − n` milestones.

use crate::instance::Instance;
use dlflow_num::Scalar;

/// All strictly positive milestones, sorted ascending and deduplicated.
pub fn milestones<S: Scalar>(inst: &Instance<S>) -> Vec<S> {
    let releases: Vec<S> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    let mut out = Vec::new();
    milestones_above(inst, &releases, &S::zero(), &mut out);
    out
}

/// The milestones strictly above `f_lo` when job `j`'s deadline is
/// `origins[j] + F/w_j`, sorted ascending and deduplicated into `out`
/// (cleared first, so a caller can recycle it).
///
/// Theorem 2 measures deadlines from the releases themselves
/// ([`milestones`] passes them, with `f_lo = 0`). An online re-plan at
/// time `now` instead releases every remaining job at `now` while its
/// deadline still runs from the job's original release; the crossings
/// of a deadline with `now` all lie at or below the flow already
/// incurred, which is what `f_lo` cuts away.
pub fn milestones_above<S: Scalar>(inst: &Instance<S>, origins: &[S], f_lo: &S, out: &mut Vec<S>) {
    let n = inst.n_jobs();
    debug_assert_eq!(origins.len(), n);
    out.clear();
    let above = |f: &S| f.cmp_total(f_lo).is_gt();

    // Deadline j meets release k.
    for (j, oj) in origins.iter().enumerate() {
        let wj = &inst.job(j).weight;
        for k in 0..n {
            let diff = inst.job(k).release.sub(oj);
            if diff.is_positive_tol() {
                let f = wj.mul(&diff);
                if above(&f) {
                    out.push(f);
                }
            }
        }
    }

    // Deadline j meets deadline k (two affine functions intersect at most once).
    for j in 0..n {
        for k in (j + 1)..n {
            let sj = inst.job(j).weight.recip(); // slope of d̄_j
            let sk = inst.job(k).weight.recip();
            let denom = sj.sub(&sk);
            if denom.is_negligible() {
                continue; // parallel deadlines never cross (or are identical)
            }
            let f = origins[k].sub(&origins[j]).div(&denom);
            if f.is_positive_tol() && above(&f) {
                out.push(f);
            }
        }
    }

    // Unstable sort on the total order + equality dedup: unlike the
    // previous `sort_by` + subtraction-based `dedup_by`, this allocates
    // nothing and compares without forming `a − b` rationals per pair.
    // Equality dedup is exact: identical to the old behaviour over `Rat`
    // (tolerance 0); over `f64` a crossing computed by two formulas may
    // now survive as two ulp-apart milestones, which costs at most one
    // extra (monotone) probe and never affects correctness.
    out.sort_unstable_by(|a, b| a.cmp_total(b));
    out.dedup();
}

/// The theoretical upper bound `n² − n` on the number of milestones.
pub fn milestone_bound(n_jobs: usize) -> usize {
    n_jobs * n_jobs - n_jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dlflow_num::Rat;

    fn r(n: i64, d: i64) -> Rat {
        Rat::from_ratio(n, d)
    }

    #[test]
    fn single_job_has_no_milestones() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::one())]);
        let inst = b.build().unwrap();
        assert!(milestones(&inst).is_empty());
    }

    #[test]
    fn identical_jobs_have_no_milestones() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::one()), Some(Rat::one())]);
        let inst = b.build().unwrap();
        // Same release, same weight: deadlines parallel and identical; no
        // deadline ever crosses the (equal) release.
        assert!(milestones(&inst).is_empty());
    }

    #[test]
    fn two_jobs_release_crossing() {
        // r1 = 0, w1 = 1; r2 = 3, w2 = 1. d̄_1 crosses r_2 at F = 3.
        // Parallel deadlines (equal weights) never cross each other.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::from_i64(3), Rat::one());
        b.machine(vec![Some(Rat::one()), Some(Rat::one())]);
        let inst = b.build().unwrap();
        assert_eq!(milestones(&inst), vec![Rat::from_i64(3)]);
    }

    #[test]
    fn deadline_deadline_crossing() {
        // r1 = 0, w1 = 1 (slope 1); r2 = 2, w2 = 2 (slope 1/2).
        // d̄_1 = F, d̄_2 = 2 + F/2 cross at F = 4.
        // d̄_1 crosses r_2 = 2 at F = 2 (w1·(r2−r1) = 2).
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::from_i64(2), Rat::from_i64(2));
        b.machine(vec![Some(Rat::one()), Some(Rat::one())]);
        let inst = b.build().unwrap();
        assert_eq!(milestones(&inst), vec![Rat::from_i64(2), Rat::from_i64(4)]);
    }

    #[test]
    fn milestones_above_measure_deadlines_from_origins() {
        // Both jobs released at 5, deadlines 0 + F and 3 + F/2: they
        // meet the release at F = 5 and F = 4, and each other at F = 6.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::from_i64(5), Rat::one());
        b.job(Rat::from_i64(5), Rat::from_i64(2));
        b.machine(vec![Some(Rat::one()), Some(Rat::one())]);
        let inst = b.build().unwrap();
        let origins = [Rat::zero(), Rat::from_i64(3)];
        let mut ms = vec![Rat::one()]; // cleared first
        milestones_above(&inst, &origins, &Rat::zero(), &mut ms);
        assert_eq!(ms, [4, 5, 6].map(Rat::from_i64));
        // Above the flow already incurred, max(1·5, 2·2), only the
        // deadline crossing is left.
        milestones_above(&inst, &origins, &Rat::from_i64(5), &mut ms);
        assert_eq!(ms, [Rat::from_i64(6)]);
    }

    #[test]
    fn count_within_bound_random() {
        let mut b = InstanceBuilder::<Rat>::new();
        let data = [(0i64, 1i64), (1, 2), (3, 1), (7, 3), (9, 5)];
        let n = data.len();
        for (rel, w) in data {
            b.job(Rat::from_i64(rel), Rat::from_i64(w));
        }
        b.machine((0..n).map(|_| Some(Rat::one())).collect());
        let inst = b.build().unwrap();
        let ms = milestones(&inst);
        assert!(ms.len() <= milestone_bound(n));
        // Sorted strictly increasing.
        for w in ms.windows(2) {
            assert!(w[0] < w[1]);
        }
        // All positive.
        assert!(ms.iter().all(|m| m.is_positive()));
    }

    #[test]
    fn milestone_values_are_true_crossings() {
        // Verify each reported milestone indeed makes two epochal times meet.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(r(1, 2), Rat::one());
        b.job(Rat::from_i64(2), r(1, 3));
        b.job(Rat::from_i64(5), Rat::from_i64(4));
        b.machine(vec![Some(Rat::one()), Some(Rat::one()), Some(Rat::one())]);
        let inst = b.build().unwrap();
        for f in milestones(&inst) {
            let mut events: Vec<Rat> = Vec::new();
            for j in 0..inst.n_jobs() {
                events.push(inst.job(j).release.clone());
                events.push(inst.deadline(j, &f));
            }
            let total = events.len();
            events.sort();
            events.dedup();
            assert!(events.len() < total, "milestone {f} creates no coincidence");
        }
    }
}
