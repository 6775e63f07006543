//! Sparse-column revised simplex — the default solver.
//!
//! The paper's LPs (Systems (1), (2), (3), (5)) are extremely sparse:
//! every `α⁽ᵗ⁾ᵢⱼ` variable appears in at most three constraints. The seed
//! solver kept a dense `rows × cols` tableau and touched every cell on
//! every pivot; this module stores the tableau **column-wise** as sorted
//! `(row, value)` pairs and skips structural zeros in pivoting, pricing
//! and the ratio test.
//!
//! * **Pricing**: Dantzig (most negative reduced cost) by default — fast
//!   in practice but can cycle on degenerate bases. After
//!   `DEGENERACY_STREAK` consecutive pivots without objective progress
//!   the solver switches to **Bland's rule** until progress resumes,
//!   which restores the termination guarantee (exactness over `Rat` makes
//!   "no progress" detectable without tolerances).
//! * **Warm starts**: [`solve_warm`] accepts the optimal basis of a
//!   structurally identical LP (same variables, same constraint
//!   relations). The basis is re-realized by Gaussian pivoting — skipping
//!   phase 1 outright — and primal feasibility is reinstated by a bounded
//!   **dual simplex** repair (valid whenever the warm basis is dual
//!   feasible, which always holds for pure feasibility probes with a zero
//!   objective). On any mismatch or failure it falls back to a cold solve.
//! * **Shadow seeding** (exact scalars, no hint): *f64 picks the basis,
//!   the exact scalar finishes it.* A cold exact solve pays for every
//!   pivot in big rationals, so [`solve_warm`] first solves an `f64`
//!   shadow (every coefficient through [`Scalar::to_f64`]) and, when the
//!   shadow ends optimal, hands its basis to the warm path above. Only
//!   the *set of basic columns* crosses over: the exact tableau is
//!   rebuilt from the original coefficients, and the verdict comes from
//!   the exact dual/primal repair (Bland fallback included), so the
//!   result is the exact optimum whatever roundoff did to the shadow. A
//!   shadow that is not optimal, a basis that cannot be realized, or one
//!   that is neither primal nor dual feasible falls back to the exact
//!   cold solve. `f64` solves skip the shadow (their tolerance is nonzero).
//!
//! The seed's dense two-phase solver survives as `solve_dense`
//! ([`crate::simplex::solve`]) and is the reference oracle in the
//! property tests.

use crate::problem::{LinExpr, LpProblem, Rel, Sense};
use crate::solution::LpSolution;
use dlflow_num::Scalar;

/// Hard cap on simplex pivots, as a defence against implementation bugs.
const MAX_PIVOTS_FACTOR: usize = 2000;

/// Consecutive degenerate (no-progress) pivots tolerated under Dantzig
/// pricing before switching to Bland's anti-cycling rule.
const DEGENERACY_STREAK: usize = 1;

/// A reusable snapshot of an optimal basis, for warm-starting the solve
/// of a *structurally identical* problem (same variable count, same
/// constraint relations in the same order) whose coefficients or
/// right-hand sides changed.
#[derive(Clone, Debug)]
pub struct WarmBasis {
    n_vars: usize,
    rels: Vec<Rel>,
    /// Basic column per row, in the structural+slack column space.
    basis: Vec<usize>,
}

impl WarmBasis {
    /// `true` when this basis can seed a solve of `p`.
    pub fn compatible_with<S: Scalar>(&self, p: &LpProblem<S>) -> bool {
        self.n_vars == p.n_vars()
            && self.rels.len() == p.n_constraints()
            && p.constraints()
                .iter()
                .zip(&self.rels)
                .all(|(c, r)| c.rel == *r)
    }

    /// Carries this basis across a *structural* change of the problem —
    /// columns added, dropped, or renumbered — producing a hint shaped
    /// for `target`. `var_map[old]` is the new index of old structural
    /// column `old` (`None` = column dropped). Slack assignments and
    /// dropped columns are discarded; [`solve_warm`] re-completes the
    /// missing rows with slacks and runs the usual bounded dual-simplex
    /// repair, falling back to a cold solve whenever the carried set
    /// cannot be re-realized. Added columns simply start non-basic.
    ///
    /// # Panics
    /// When `var_map` does not cover every old structural column.
    pub fn remap<S: Scalar>(&self, target: &LpProblem<S>, var_map: &[Option<usize>]) -> WarmBasis {
        assert_eq!(
            var_map.len(),
            self.n_vars,
            "var_map must cover every old structural column"
        );
        let n_vars = target.n_vars();
        let mut basis: Vec<usize> = self
            .basis
            .iter()
            .filter(|&&b| b < self.n_vars)
            .filter_map(|&b| var_map[b])
            .filter(|&b| b < n_vars)
            .collect();
        basis.sort_unstable();
        basis.dedup();
        WarmBasis {
            n_vars,
            rels: target.constraints().iter().map(|c| c.rel).collect(),
            basis,
        }
    }
}

/// Result of [`solve_warm`]: the solution, a basis snapshot for the next
/// warm start (present iff the solve ended optimal), and whether the
/// provided hint was actually used.
#[derive(Clone, Debug)]
pub struct WarmSolve<S> {
    /// The LP solution.
    pub solution: LpSolution<S>,
    /// Basis snapshot to seed the next structurally identical solve.
    pub basis: Option<WarmBasis>,
    /// `true` iff the hint was compatible and the warm path succeeded.
    pub warm_used: bool,
}

/// Solves the problem with the sparse revised simplex (cold start).
pub fn solve<S: Scalar>(problem: &LpProblem<S>) -> LpSolution<S> {
    solve_warm(problem, None).solution
}

/// Solves the problem, optionally warm-starting from a previous basis.
///
/// With no hint over an exact scalar ([`Scalar::tolerance`] is zero) the
/// solve is *shadow-seeded*: an `f64` copy of `p` is solved first and
/// its optimal basis is handed to the exact warm path, which re-realizes
/// and repairs it in `S`. Floats only choose which columns start basic;
/// every value and verdict is recomputed exactly, and any failure falls
/// through to the exact cold solve. `warm_used` stays `false` — no hint
/// was used.
pub fn solve_warm<S: Scalar>(p: &LpProblem<S>, hint: Option<&WarmBasis>) -> WarmSolve<S> {
    let seeded = match hint {
        Some(h) if h.compatible_with(p) => try_warm(p, h),
        None if S::tolerance() == S::zero() => try_shadow(p),
        _ => None,
    };
    if let Some(out) = seeded {
        return out;
    }
    let (solution, basis) = Tab::build_cold(p).solve_cold(p).unwrap_or_else(|| {
        // dlflint:allow(hot-path-panic, "pivot-cap backstop: Bland's rule cannot cycle and phase 1 is bounded below by 0, so this is unreachable outside a solver bug")
        panic!(
            "sparse simplex exceeded pivot cap or found phase 1 unbounded — this indicates a bug"
        )
    });
    WarmSolve {
        solution,
        basis,
        warm_used: false,
    }
}

/// The `f64` shadow of `p`: same variables, relations and sparsity, every
/// coefficient passed through [`Scalar::to_f64`]. `None` when a
/// coefficient does not fit a finite `f64`.
fn shadow<S: Scalar>(p: &LpProblem<S>) -> Option<LpProblem<f64>> {
    let num = |c: &S| Some(c.to_f64()).filter(|x| x.is_finite());
    let expr = |e: &LinExpr<S>| -> Option<LinExpr<f64>> {
        e.terms.iter().map(|(v, c)| Some((*v, num(c)?))).collect()
    };
    let mut f = LpProblem::new(p.sense());
    for _ in 0..p.n_vars() {
        f.add_var(String::new());
    }
    f.set_objective(expr(p.objective())?);
    for c in p.constraints() {
        f.add_constraint(expr(&c.expr)?, c.rel, num(&c.rhs)?);
    }
    Some(f)
}

/// Shadow-seeded exact solve (see [`solve_warm`]): `None` when the `f64`
/// shadow is not optimal, or its basis cannot be realized and repaired
/// in `S` — the caller then solves cold.
fn try_shadow<S: Scalar>(p: &LpProblem<S>) -> Option<WarmSolve<S>> {
    let f = shadow(p)?;
    let (sol, basis) = Tab::build_cold(&f).solve_cold(&f)?;
    if !sol.is_optimal() {
        return None;
    }
    let out = try_warm(p, &basis?)?;
    Some(WarmSolve {
        warm_used: false,
        ..out
    })
}

/// Verifies that an optimal-claiming solution actually satisfies `p`:
/// every variable non-negative and every constraint met, all within the
/// scalar tolerance.
///
/// A warm start re-realizes a hinted basis by Gaussian pivoting, and an
/// ill-conditioned realization can corrupt the tableau badly enough that
/// the terminal verdict is wrong (e.g. claiming a feasible point on an
/// infeasible problem). This check is the caller's cheap — `O(nnz)` —
/// primal certificate: a solution that passes is a genuine feasibility
/// witness regardless of the pivot path that produced it, so "optimal
/// and certified" can be trusted even from a repaired basis, while
/// anything else should be recomputed cold. Returns `false` for
/// non-optimal solutions.
pub fn certifies<S: Scalar>(p: &LpProblem<S>, sol: &LpSolution<S>) -> bool {
    if !sol.is_optimal() || sol.values.len() != p.n_vars() {
        return false;
    }
    if sol.values.iter().any(|v| v.is_negative_tol()) {
        return false;
    }
    p.constraints().iter().all(|c| {
        let mut lhs = S::zero();
        for (v, coeff) in &c.expr.terms {
            lhs = lhs.add(&coeff.mul(&sol.values[v.index()]));
        }
        match c.rel {
            Rel::Le => lhs.le_tol(&c.rhs),
            Rel::Ge => lhs.ge_tol(&c.rhs),
            Rel::Eq => lhs.sub(&c.rhs).is_negligible(),
        }
    })
}

/// Sparse column-major tableau.
struct Tab<S> {
    /// Per column: sorted `(row, value)` pairs, structural zeros omitted.
    cols: Vec<Vec<(u32, S)>>,
    /// Right-hand side (basic variable values).
    b: Vec<S>,
    /// Basic column of each row (`usize::MAX` while unassigned).
    basis: Vec<usize>,
    /// Number of structural (original) variables.
    n_struct: usize,
    /// Total columns (structural + slack [+ artificial]).
    n_total: usize,
    /// Column index where artificial variables start (== n_total when none).
    art_start: usize,
    /// Recycled merge buffer (see [`Tab::pivot`]).
    scratch: Vec<(u32, S)>,
}

impl<S: Scalar> Tab<S> {
    /// Shared column assembly: structural columns from the constraint
    /// expressions (duplicates summed, zeros dropped) and slack/surplus
    /// columns. `flip[i]` negates row `i` on the fly.
    fn structural_cols(p: &LpProblem<S>, flip: &[bool]) -> Vec<Vec<(u32, S)>> {
        let n = p.n_vars();
        let mut cols: Vec<Vec<(u32, S)>> = vec![Vec::new(); n];
        for (i, c) in p.constraints().iter().enumerate() {
            for (v, coeff) in &c.expr.terms {
                let val = if flip[i] { coeff.neg() } else { coeff.clone() };
                cols[v.index()].push((i as u32, val));
            }
        }
        for col in cols.iter_mut() {
            col.sort_by_key(|(r, _)| *r);
            // Sum duplicate rows, drop exact/negligible zeros.
            let mut out: Vec<(u32, S)> = Vec::with_capacity(col.len());
            for (r, v) in col.drain(..) {
                match out.last_mut() {
                    Some((lr, lv)) if *lr == r => *lv = lv.add(&v),
                    _ => out.push((r, v)),
                }
            }
            out.retain(|(_, v)| !v.is_negligible());
            *col = out;
        }
        cols
    }

    /// Standard form with artificials and `b ≥ 0` (cold start, phase 1).
    fn build_cold(p: &LpProblem<S>) -> Tab<S> {
        let m = p.n_constraints();
        let n = p.n_vars();
        let flip: Vec<bool> = p
            .constraints()
            .iter()
            .map(|c| c.rhs.is_negative_tol())
            .collect();
        let mut cols = Self::structural_cols(p, &flip);

        let mut b = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut needs_art = Vec::with_capacity(m);
        // Slack/surplus columns, in constraint order.
        for (i, c) in p.constraints().iter().enumerate() {
            b.push(if flip[i] { c.rhs.neg() } else { c.rhs.clone() });
            let rel = match (c.rel, flip[i]) {
                (Rel::Le, true) => Rel::Ge,
                (Rel::Ge, true) => Rel::Le,
                (r, _) => r,
            };
            match rel {
                Rel::Le => {
                    basis[i] = cols.len();
                    cols.push(vec![(i as u32, S::one())]);
                    needs_art.push(false);
                }
                Rel::Ge => {
                    cols.push(vec![(i as u32, S::one().neg())]);
                    needs_art.push(true);
                }
                Rel::Eq => needs_art.push(true),
            }
        }
        let art_start = cols.len();
        for (i, &need) in needs_art.iter().enumerate() {
            if need {
                basis[i] = cols.len();
                cols.push(vec![(i as u32, S::one())]);
            }
        }
        let n_total = cols.len();
        debug_assert!(basis.iter().all(|&bv| bv != usize::MAX));
        Tab {
            cols,
            b,
            basis,
            n_struct: n,
            n_total,
            art_start,
            scratch: Vec::new(),
        }
    }

    /// Standard form without artificials and without sign normalization
    /// (warm start; negative `b` entries are repaired by dual simplex).
    fn build_warm(p: &LpProblem<S>) -> Tab<S> {
        let m = p.n_constraints();
        let n = p.n_vars();
        let flip = vec![false; m];
        let mut cols = Self::structural_cols(p, &flip);
        let mut b = Vec::with_capacity(m);
        for (i, c) in p.constraints().iter().enumerate() {
            b.push(c.rhs.clone());
            match c.rel {
                Rel::Le => cols.push(vec![(i as u32, S::one())]),
                Rel::Ge => cols.push(vec![(i as u32, S::one().neg())]),
                Rel::Eq => {}
            }
        }
        let n_total = cols.len();
        Tab {
            cols,
            b,
            basis: vec![usize::MAX; m],
            n_struct: n,
            n_total,
            art_start: n_total,
            scratch: Vec::new(),
        }
    }

    /// Value at `(row, col)`, `None` when structurally zero.
    #[inline]
    fn at(&self, row: usize, col: usize) -> Option<&S> {
        let c = &self.cols[col];
        c.binary_search_by_key(&(row as u32), |(r, _)| *r)
            .ok()
            .map(|k| &c[k].1)
    }

    /// The pivot row as sparse `(col, value)` pairs.
    fn extract_row(&self, row: usize) -> Vec<(usize, S)> {
        let mut out = Vec::new();
        for j in 0..self.n_total {
            if let Some(v) = self.at(row, j) {
                out.push((j, v.clone()));
            }
        }
        out
    }

    /// Pivots on `(row, col)`: `col` enters the basis, the basic variable
    /// of `row` leaves. `rc` is the maintained reduced-cost row and
    /// negated objective, updated sparsely when present. `raw_prow` lets a
    /// caller that already extracted the pivot row (dual ratio test) hand
    /// it over instead of paying the scan again.
    fn pivot(
        &mut self,
        row: usize,
        col: usize,
        rc: Option<(&mut [S], &mut S)>,
        raw_prow: Option<Vec<(usize, S)>>,
    ) {
        let pcol = self.cols[col].clone();
        // dlflint:allow(hot-path-panic, "ratio test only selects structurally nonzero pivots; a miss is a solver bug worth halting on")
        let piv = self.at(row, col).expect("pivot on structural zero").clone();
        debug_assert!(!piv.is_negligible());
        // Pivot row with the elimination factor `a_rj / piv` cached, so
        // the column update and the reduced-cost update share one division.
        let prow: Vec<(usize, S)> = raw_prow
            .unwrap_or_else(|| self.extract_row(row))
            .into_iter()
            .map(|(j, arj)| (j, arj.div(&piv)))
            .collect();

        let b_row_new = self.b[row].div(&piv);
        // RHS update, touching only the pivot column's nonzero rows.
        for (i, e) in &pcol {
            let i = *i as usize;
            if i == row {
                continue;
            }
            let v = self.b[i].sub(&b_row_new.mul(e));
            self.b[i] = if v.is_negligible() { S::zero() } else { v };
        }
        self.b[row] = b_row_new.clone();

        // Column updates, touching only columns with a nonzero pivot-row
        // entry (and in them only the pivot column's nonzero rows). The
        // merge moves entries out of the old column and recycles its
        // buffer as the next column's scratch — no steady-state allocation.
        let mut scratch = std::mem::take(&mut self.scratch);
        for (j, f) in &prow {
            if *j == col {
                continue;
            }
            let mut old = std::mem::replace(&mut self.cols[*j], scratch);
            let merged = &mut self.cols[*j];
            merged.clear();
            merged.reserve(old.len() + pcol.len());
            {
                let mut a = old.drain(..).peekable();
                let mut c = pcol.iter().peekable();
                loop {
                    match (a.peek(), c.peek()) {
                        (Some((ra, _)), Some((rc2, _))) if ra == rc2 => {
                            let (r, va) = a.next().unwrap(); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                            let (_, ve) = c.next().unwrap(); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                            if r as usize == row {
                                merged.push((r, f.clone()));
                            } else {
                                let v = va.sub(&f.mul(ve));
                                if !v.is_negligible() {
                                    merged.push((r, v));
                                }
                            }
                        }
                        (Some((ra, _)), Some((rc2, _))) if ra < rc2 => {
                            merged.push(a.next().unwrap()); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                        }
                        (Some(_), Some(_)) | (None, Some(_)) => {
                            let (r, ve) = c.next().unwrap(); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                            if *r as usize == row {
                                merged.push((*r, f.clone()));
                            } else {
                                let v = f.mul(ve).neg();
                                if !v.is_negligible() {
                                    merged.push((*r, v));
                                }
                            }
                        }
                        (Some(_), None) => {
                            merged.push(a.next().unwrap()); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                        }
                        (None, None) => break,
                    }
                }
            }
            scratch = old;
        }
        self.scratch = scratch;
        // The entering column becomes a unit vector.
        self.cols[col] = vec![(row as u32, S::one())];

        if let Some((r, z)) = rc {
            let re = r[col].clone();
            if !re.is_negligible() {
                for (j, f) in &prow {
                    if *j == col {
                        continue;
                    }
                    let v = r[*j].sub(&re.mul(f));
                    r[*j] = if v.is_negligible() { S::zero() } else { v };
                }
                *z = z.sub(&re.mul(&self.b[row]));
                r[col] = S::zero();
            }
        }
        self.basis[row] = col;
    }

    /// Reduced costs `r_j = c_j − c_B · B⁻¹A_j` and the negated objective
    /// value, computed sparsely per column.
    fn reduced_costs(&self, cost: &[S]) -> (Vec<S>, S) {
        let cb: Vec<S> = self.basis.iter().map(|&bv| cost[bv].clone()).collect();
        let mut r = cost.to_vec();
        for j in 0..self.n_total {
            let mut acc = S::zero();
            for (i, v) in &self.cols[j] {
                let c = &cb[*i as usize];
                if !c.is_negligible() {
                    acc = acc.add(&c.mul(v));
                }
            }
            if !acc.is_negligible() {
                r[j] = r[j].sub(&acc);
            }
        }
        let mut z = S::zero();
        for (i, c) in cb.iter().enumerate() {
            if !c.is_negligible() {
                z = z.sub(&c.mul(&self.b[i]));
            }
        }
        (r, z)
    }

    /// Primal simplex until optimal (`Some(true)`) or unbounded
    /// (`Some(false)`); `None` when the pivot cap is hit. Dantzig pricing
    /// with a Bland fallback after a degeneracy streak.
    fn run_primal(&mut self, r: &mut [S], z: &mut S) -> Option<bool> {
        let m = self.b.len();
        let max_pivots = MAX_PIVOTS_FACTOR * (m + self.n_total + 1);
        let mut streak = 0usize;
        for _ in 0..max_pivots {
            let bland = streak >= DEGENERACY_STREAK;
            let enter = if bland {
                (0..self.n_total).find(|&j| r[j].is_negative_tol())
            } else {
                let mut best: Option<usize> = None;
                for j in 0..self.n_total {
                    if r[j].is_negative_tol()
                        && best.is_none_or(|bj| r[j].cmp_total(&r[bj]) == std::cmp::Ordering::Less)
                    {
                        best = Some(j);
                    }
                }
                best
            };
            let Some(enter) = enter else {
                return Some(true); // optimal
            };
            // Ratio test over the entering column's nonzeros only;
            // smallest-basis-index tie-break (required in Bland mode).
            let mut best: Option<(S, usize)> = None;
            for (i, v) in &self.cols[enter] {
                let i = *i as usize;
                if v.is_positive_tol() {
                    let ratio = self.b[i].div(v);
                    let better = match &best {
                        None => true,
                        Some((cur, l)) => {
                            ratio.lt_tol(cur)
                                || (!ratio.gt_tol(cur) && self.basis[i] < self.basis[*l])
                        }
                    };
                    if better {
                        best = Some((ratio, i));
                    }
                }
            }
            let Some((_, leave)) = best else {
                return Some(false); // unbounded
            };
            // enter was selected with r[enter] strictly negative, so the
            // pivot is degenerate iff the leaving basic variable sits at 0.
            let degenerate = !self.b[leave].is_positive_tol();
            self.pivot(leave, enter, Some((r, z)), None);
            streak = if degenerate { streak + 1 } else { 0 };
        }
        None
    }

    /// Dual simplex repair: assumes `r ≥ 0` (dual feasible) and drives
    /// `b ≥ 0`. Returns `Some(true)` when primal feasibility was reached,
    /// `Some(false)` on a primal-infeasibility certificate, `None` when
    /// the pivot budget ran out (caller should fall back to a cold solve).
    fn run_dual(&mut self, r: &mut [S], z: &mut S) -> Option<bool> {
        let m = self.b.len();
        let max_pivots = MAX_PIVOTS_FACTOR * (m + self.n_total + 1);
        for _ in 0..max_pivots {
            // Leaving row: most negative b, tie-break smallest basis index.
            let mut leave: Option<usize> = None;
            for i in 0..m {
                if !self.b[i].is_negative_tol() {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some(l) => match self.b[i].cmp_total(&self.b[l]) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => self.basis[i] < self.basis[l],
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    leave = Some(i);
                }
            }
            let Some(leave) = leave else {
                return Some(true); // primal feasible
            };
            // Entering column: dual ratio test over the leaving row's
            // negative entries; smallest-index tie-break.
            let prow = self.extract_row(leave);
            let mut best: Option<(S, usize)> = None;
            for (j, arj) in &prow {
                if *j == self.basis[leave] || !arj.is_negative_tol() {
                    continue;
                }
                let ratio = r[*j].div(&arj.neg());
                let better = match &best {
                    None => true,
                    Some((cur, e)) => ratio.lt_tol(cur) || (!ratio.gt_tol(cur) && *j < *e),
                };
                if better {
                    best = Some((ratio, *j));
                }
            }
            let Some((_, enter)) = best else {
                return Some(false); // row ≥ 0 with b < 0: infeasible
            };
            self.pivot(leave, enter, Some((r, z)), Some(prow));
        }
        None
    }

    /// Removes row `row` (swap-remove semantics across `b`, `basis` and
    /// every column's row indices).
    fn remove_row(&mut self, row: usize) {
        let last = self.b.len() - 1;
        for col in self.cols.iter_mut() {
            col.retain(|(r, _)| *r as usize != row);
            if row != last {
                for (r, _) in col.iter_mut() {
                    if *r as usize == last {
                        *r = row as u32;
                    }
                }
                col.sort_by_key(|(r, _)| *r);
            }
        }
        self.b.swap_remove(row);
        self.basis.swap_remove(row);
    }

    /// After phase 1: pivot zero-level artificials out of the basis, drop
    /// rows that prove redundant, and delete artificial columns.
    fn purge_artificials(&mut self) {
        let mut row = 0;
        while row < self.b.len() {
            if self.basis[row] >= self.art_start {
                let col = (0..self.art_start)
                    .find(|&j| self.at(row, j).is_some_and(|v| !v.is_negligible()));
                match col {
                    Some(col) => {
                        // Degenerate pivot (b[row] == 0): keeps b ≥ 0.
                        self.pivot(row, col, None, None);
                        row += 1;
                    }
                    None => self.remove_row(row),
                }
            } else {
                row += 1;
            }
        }
        self.cols.truncate(self.art_start);
        self.n_total = self.art_start;
    }

    /// Phase-2 cost vector in the minimization convention.
    fn phase2_cost(&self, p: &LpProblem<S>) -> (Vec<S>, bool) {
        let mut cost = vec![S::zero(); self.n_total];
        let negate = p.sense() == Sense::Maximize;
        for (v, c) in &p.objective().terms {
            let cur = cost[v.index()].clone();
            cost[v.index()] = if negate { cur.sub(c) } else { cur.add(c) };
        }
        (cost, negate)
    }

    /// Extracts the solution after an optimal phase 2.
    fn extract(&self, p: &LpProblem<S>, z: S, negate: bool) -> LpSolution<S> {
        let mut values = vec![S::zero(); p.n_vars()];
        for (i, &bv) in self.basis.iter().enumerate() {
            if bv < self.n_struct {
                values[bv] = self.b[i].clone();
            }
        }
        let min_val = z.neg();
        let objective = if negate { min_val.neg() } else { min_val };
        LpSolution::optimal(objective, values)
    }

    fn snapshot_basis(&self, p: &LpProblem<S>) -> WarmBasis {
        WarmBasis {
            n_vars: p.n_vars(),
            rels: p.constraints().iter().map(|c| c.rel).collect(),
            basis: self.basis.clone(),
        }
    }

    /// Two-phase cold solve. `None` when a phase hits the pivot cap or
    /// phase 1 reports unbounded — impossible in exact arithmetic, but
    /// roundoff can do it to an `f64` shadow.
    fn solve_cold(mut self, p: &LpProblem<S>) -> Option<(LpSolution<S>, Option<WarmBasis>)> {
        if self.art_start < self.n_total {
            let mut cost = vec![S::zero(); self.n_total];
            for c in cost.iter_mut().skip(self.art_start) {
                *c = S::one();
            }
            let (mut r, mut z) = self.reduced_costs(&cost);
            if !self.run_primal(&mut r, &mut z)? {
                return None;
            }
            if z.neg().is_positive_tol() {
                return Some((LpSolution::infeasible(p.n_vars()), None));
            }
            self.purge_artificials();
        }
        let (cost, negate) = self.phase2_cost(p);
        let (mut r, mut z) = self.reduced_costs(&cost);
        if !self.run_primal(&mut r, &mut z)? {
            return Some((LpSolution::unbounded(p.n_vars()), None));
        }
        let basis = self.snapshot_basis(p);
        Some((self.extract(p, z, negate), Some(basis)))
    }
}

/// A completed warm-path run: the terminal tableau alongside the
/// solution, so callers that keep solving the same matrix can retain the
/// realized factorization ([`ProbeCache`]) instead of re-pivoting it
/// from scratch on the next call.
struct WarmRun<S> {
    tab: Tab<S>,
    solution: LpSolution<S>,
    /// For an infeasible verdict: how decisively the terminal tableau
    /// refutes feasibility (the absolute value of the most negative
    /// basic value). `None` otherwise.
    margin: Option<S>,
}

/// Attempts the warm-start path; `None` means "fall back to cold".
fn try_warm<S: Scalar>(p: &LpProblem<S>, hint: &WarmBasis) -> Option<WarmSolve<S>> {
    let run = run_warm(p, hint)?;
    let basis = run.solution.is_optimal().then(|| run.tab.snapshot_basis(p));
    Some(WarmSolve {
        solution: run.solution,
        basis,
        warm_used: true,
    })
}

/// The warm-start engine behind [`try_warm`] and [`ProbeCache`]:
/// re-realizes the hinted basis and repairs it to a verdict, returning
/// the terminal tableau. `None` means the basis could not be realized or
/// the pivot budget ran out — fall back to a cold solve.
fn run_warm<S: Scalar>(p: &LpProblem<S>, hint: &WarmBasis) -> Option<WarmRun<S>> {
    let mut tab = Tab::build_warm(p);
    let m = tab.b.len();

    // Re-realize the hinted basis by Gaussian pivoting: for each hinted
    // column pick the not-yet-assigned row with the largest pivot.
    let mut assigned = vec![false; m];
    for &c in &hint.basis {
        if c >= tab.n_total || tab.basis.contains(&c) {
            continue;
        }
        let mut pick: Option<(usize, S)> = None;
        for (i, v) in &tab.cols[c] {
            let i = *i as usize;
            if assigned[i] || v.is_negligible() {
                continue;
            }
            let mag = v.abs();
            if pick.as_ref().is_none_or(|(_, pm)| mag.gt_tol(pm)) {
                pick = Some((i, mag));
            }
        }
        if let Some((row, _)) = pick {
            tab.pivot(row, c, None, None);
            assigned[row] = true;
        }
    }
    // Cover leftover rows (hint shorter than m, or singular realization)
    // with any usable non-basic column, preferring the row's own slack.
    for row in 0..m {
        if assigned[row] {
            continue;
        }
        let cand = (tab.n_struct..tab.n_total)
            .chain(0..tab.n_struct)
            .find(|&j| {
                !tab.basis.contains(&j) && tab.at(row, j).is_some_and(|v| !v.is_negligible())
            });
        let Some(col) = cand else {
            return None; // cannot complete a basis — cold solve
        };
        tab.pivot(row, col, None, None);
        assigned[row] = true;
    }

    let (cost, negate) = tab.phase2_cost(p);
    let (mut r, mut z) = tab.reduced_costs(&cost);
    let dual_feasible = r.iter().all(|v| !v.is_negative_tol());
    let primal_feasible = tab.b.iter().all(|v| !v.is_negative_tol());
    if dual_feasible {
        match tab.run_dual(&mut r, &mut z) {
            Some(true) => {}
            Some(false) => {
                let margin = infeasibility_margin(&tab);
                return Some(WarmRun {
                    tab,
                    solution: LpSolution::infeasible(p.n_vars()),
                    margin: Some(margin),
                });
            }
            None => return None, // budget exhausted — cold solve
        }
    } else if !primal_feasible {
        return None; // neither primal nor dual feasible — cold solve
    }
    if !tab.run_primal(&mut r, &mut z)? {
        return Some(WarmRun {
            tab,
            solution: LpSolution::unbounded(p.n_vars()),
            margin: None,
        });
    }
    let solution = tab.extract(p, z, negate);
    Some(WarmRun {
        tab,
        solution,
        margin: None,
    })
}

/// How decisively a dual-terminal tableau refutes feasibility: the
/// absolute value of its most negative basic value. A verdict backed by
/// a large margin cannot be an artefact of accumulated pivot roundoff;
/// one backed by a sliver should be recomputed from scratch.
fn infeasibility_margin<S: Scalar>(tab: &Tab<S>) -> S {
    let mut worst = S::zero();
    for v in &tab.b {
        if v.is_negative_tol() {
            let mag = v.abs();
            if mag.gt_tol(&worst) {
                worst = mag;
            }
        }
    }
    worst
}

/// Persistent solving context for a *run of zero-objective feasibility
/// probes on one constraint matrix* — the shape a search over the
/// objective produces (`OlaLite`'s walk): within a bracket segment,
/// consecutive probe LPs (`build_deadline_probe_lp`-style) share every
/// coefficient and differ only in their right-hand sides (the interval
/// lengths tracking the probed objective).
///
/// A plain [`solve_warm`] re-realizes the hinted basis by Gaussian
/// pivoting on every call — `O(m)` pivots that dominate the solve at
/// production sub-problem sizes. This cache instead *retains the
/// realized tableau* between calls. When the next probe's matrix is
/// bit-identical (checked in `O(nnz)`), the update is a pure RHS patch:
///
/// ```text
/// B⁻¹b_new = B⁻¹b_old + Σᵢ Δᵢ · B⁻¹eᵢ
/// ```
///
/// where every `B⁻¹eᵢ` is already present in the tableau as row `i`'s
/// slack column. Dual feasibility is untouched by an RHS change (and is
/// trivial anyway for a zero-objective probe), so a bounded dual-simplex
/// repair — typically zero or a handful of pivots — reaches the new
/// verdict. On any mismatch (matrix changed, an equality row's RHS
/// moved, pivot budget exhausted) the cache falls back to the
/// re-realization path, seeded from its own latest basis or the caller's
/// hint, and `None` from [`ProbeCache::solve`] means "no warm route at
/// all — solve cold".
///
/// The cache is a pivot-order accelerator, not an oracle: callers that
/// need verdicts they can *trust* should certify optimal outcomes with
/// [`certifies`] and gate infeasible ones on
/// [`ProbeSolve::infeasible_margin`].
pub struct ProbeCache<S> {
    /// Realized tableau of the last retained solve (rows correspond 1:1
    /// to `matrix`'s constraints — the warm builder never drops rows).
    tab: Option<Tab<S>>,
    /// The problem the tableau was realized on. Its RHS is *stale*:
    /// `rhs` below tracks the values the tableau currently reflects.
    matrix: Option<LpProblem<S>>,
    /// RHS the tableau currently reflects, in row order.
    rhs: Vec<S>,
    /// Per row: its slack column and sign (`true` = slack `+eᵢ`,
    /// `false` = surplus `−eᵢ`); `None` for equality rows.
    slack: Vec<Option<(usize, bool)>>,
}

impl<S> std::fmt::Debug for ProbeCache<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeCache")
            .field("retained", &self.tab.is_some())
            .field("rows", &self.rhs.len())
            .finish()
    }
}

impl<S> Default for ProbeCache<S> {
    fn default() -> Self {
        ProbeCache {
            tab: None,
            matrix: None,
            rhs: Vec::new(),
            slack: Vec::new(),
        }
    }
}

/// Result of a [`ProbeCache::solve`] call that was served warm.
#[derive(Clone, Debug)]
pub struct ProbeSolve<S> {
    /// The LP solution.
    pub solution: LpSolution<S>,
    /// `true` when served by the retained-factorization RHS-patch fast
    /// path; `false` when the basis had to be re-realized.
    pub persistent: bool,
    /// For an infeasible verdict: the absolute value of the most
    /// negative basic value at termination — how decisively the tableau
    /// refutes feasibility. Callers should treat a verdict with a tiny
    /// margin as noise and recompute it from scratch.
    pub infeasible_margin: Option<S>,
}

impl<S: Scalar> ProbeCache<S> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all retained state.
    pub fn clear(&mut self) {
        self.tab = None;
        self.matrix = None;
        self.rhs.clear();
        self.slack.clear();
    }

    /// Snapshot of the retained basis, for carrying across a structural
    /// change (via [`WarmBasis::remap`]) or into a fresh cache.
    pub fn basis(&self) -> Option<WarmBasis> {
        match (&self.tab, &self.matrix) {
            (Some(tab), Some(p)) => Some(tab.snapshot_basis(p)),
            _ => None,
        }
    }

    /// Solves `p` warm: by RHS patch when the retained matrix is
    /// bit-identical, otherwise by re-realizing the freshest available
    /// basis (the cache's own, else `hint`). Returns `None` when no warm
    /// route exists — the caller should solve cold (and may seed the
    /// cache again later via `hint`).
    pub fn solve(&mut self, p: &LpProblem<S>, hint: Option<&WarmBasis>) -> Option<ProbeSolve<S>> {
        if let Some(out) = self.try_persistent(p) {
            return Some(out);
        }
        let own = self.basis().filter(|b| b.compatible_with(p));
        let run = own
            .as_ref()
            .or_else(|| hint.filter(|h| h.compatible_with(p)))
            .and_then(|h| run_warm(p, h));
        let Some(run) = run else {
            // Neither path worked; drop the stale tableau so the next
            // call goes straight to the caller's hint.
            self.clear();
            return None;
        };
        let out = ProbeSolve {
            solution: run.solution.clone(),
            persistent: false,
            infeasible_margin: run.margin,
        };
        if run.solution.is_optimal() || run.solution.status == crate::solution::LpStatus::Infeasible
        {
            self.retain(run.tab, p);
        } else {
            self.clear();
        }
        Some(out)
    }

    /// The RHS-patch fast path; `None` when the retained matrix does not
    /// apply (caller falls through to re-realization).
    fn try_persistent(&mut self, p: &LpProblem<S>) -> Option<ProbeSolve<S>> {
        if !self
            .matrix
            .as_ref()
            .is_some_and(|retained| same_matrix(retained, p))
        {
            return None;
        }
        // Validate before touching the tableau: an equality row whose
        // RHS moved has no slack column to patch through.
        for (i, c) in p.constraints().iter().enumerate() {
            if self.slack[i].is_none() && c.rhs.cmp_total(&self.rhs[i]) != std::cmp::Ordering::Equal
            {
                return None;
            }
        }
        let tab = self.tab.as_mut()?;
        for (i, c) in p.constraints().iter().enumerate() {
            if c.rhs.cmp_total(&self.rhs[i]) == std::cmp::Ordering::Equal {
                continue;
            }
            let (col, positive) = self.slack[i].expect("validated above"); // dlflint:allow(hot-path-panic, "rows with a changed RHS were checked to carry a slack column in the loop above")
            let delta = c.rhs.sub(&self.rhs[i]);
            let delta = if positive { delta } else { delta.neg() };
            for (r, v) in &tab.cols[col] {
                let r = *r as usize;
                tab.b[r] = tab.b[r].add(&delta.mul(v));
            }
            self.rhs[i] = c.rhs.clone();
        }
        // Zero objective ⇒ reduced costs are identically zero ⇒ the
        // basis stays dual feasible through any RHS change; the dual
        // simplex (smallest-index tie-breaks = Bland, so it terminates)
        // drives the patched b back to feasibility or refutes it.
        let mut r = vec![S::zero(); tab.n_total];
        let mut z = S::zero();
        match tab.run_dual(&mut r, &mut z) {
            Some(true) => Some(ProbeSolve {
                solution: tab.extract(p, S::zero(), false),
                persistent: true,
                infeasible_margin: None,
            }),
            Some(false) => Some(ProbeSolve {
                solution: LpSolution::infeasible(p.n_vars()),
                persistent: true,
                infeasible_margin: Some(infeasibility_margin(tab)),
            }),
            None => {
                // Pivot budget exhausted: the tableau may be mid-repair;
                // drop it and let the caller's path rebuild.
                self.clear();
                None
            }
        }
    }

    /// Retains a terminal tableau for `p` (matrix clone, RHS snapshot,
    /// row → slack-column map).
    fn retain(&mut self, tab: Tab<S>, p: &LpProblem<S>) {
        self.rhs.clear();
        self.rhs
            .extend(p.constraints().iter().map(|c| c.rhs.clone()));
        self.slack.clear();
        let mut next = p.n_vars();
        for c in p.constraints() {
            self.slack.push(match c.rel {
                Rel::Le => {
                    let s = Some((next, true));
                    next += 1;
                    s
                }
                Rel::Ge => {
                    let s = Some((next, false));
                    next += 1;
                    s
                }
                Rel::Eq => None,
            });
        }
        self.matrix = Some(p.clone());
        self.tab = Some(tab);
    }
}

/// `true` when the two problems share every coefficient — variable
/// count, sense, constraint relations and expressions — and both have a
/// zero objective, i.e. they may differ *only* in constraint RHS values.
fn same_matrix<S: Scalar>(a: &LpProblem<S>, b: &LpProblem<S>) -> bool {
    use std::cmp::Ordering;
    a.n_vars() == b.n_vars()
        && a.sense() == b.sense()
        && a.objective().terms.is_empty()
        && b.objective().terms.is_empty()
        && a.n_constraints() == b.n_constraints()
        && a.constraints().iter().zip(b.constraints()).all(|(ca, cb)| {
            ca.rel == cb.rel
                && ca.expr.terms.len() == cb.expr.terms.len()
                && ca
                    .expr
                    .terms
                    .iter()
                    .zip(&cb.expr.terms)
                    .all(|((va, xa), (vb, xb))| va == vb && xa.cmp_total(xb) == Ordering::Equal)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinExpr;
    use crate::solution::LpStatus;
    use dlflow_num::Rat;

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2, 6).
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 3.0), (y, 5.0)]));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, 4.0);
        lp.add_constraint(LinExpr::term(y, 2.0), Rel::Le, 12.0);
        lp.add_constraint(LinExpr::from_iter([(x, 3.0), (y, 2.0)]), Rel::Le, 18.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 36.0).abs() < 1e-9);
        assert!((sol.values[0] - 2.0).abs() < 1e-9);
        assert!((sol.values[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_and_unbounded() {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, 1.0);
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 2.0);
        assert_eq!(solve(&lp).status, LpStatus::Infeasible);

        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 1.0);
        assert_eq!(solve(&lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn exact_rational_solution() {
        // max x + y s.t. 3x + y ≤ 1, x + 3y ≤ 1 → x = y = 1/4, opt 1/2.
        let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, Rat::one()), (y, Rat::one())]));
        lp.add_constraint(
            LinExpr::from_iter([(x, Rat::from_i64(3)), (y, Rat::one())]),
            Rel::Le,
            Rat::one(),
        );
        lp.add_constraint(
            LinExpr::from_iter([(x, Rat::one()), (y, Rat::from_i64(3))]),
            Rel::Le,
            Rat::one(),
        );
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), Rat::from_ratio(1, 2));
        assert_eq!(sol.values[0], Rat::from_ratio(1, 4));
        assert_eq!(sol.values[1], Rat::from_ratio(1, 4));
    }

    #[test]
    fn beale_cycling_instance_terminates() {
        // Beale's cycling example: Dantzig pricing alone cycles; the
        // degeneracy-streak fallback to Bland must terminate it.
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x4 = lp.add_var("x4");
        let x5 = lp.add_var("x5");
        let x6 = lp.add_var("x6");
        let x7 = lp.add_var("x7");
        lp.set_objective(LinExpr::from_iter([
            (x4, -0.75),
            (x5, 150.0),
            (x6, -0.02),
            (x7, 6.0),
        ]));
        lp.add_constraint(
            LinExpr::from_iter([(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)]),
            Rel::Le,
            0.0,
        );
        lp.add_constraint(
            LinExpr::from_iter([(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)]),
            Rel::Le,
            0.0,
        );
        lp.add_constraint(LinExpr::term(x6, 1.0), Rel::Le, 1.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - (-0.05)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_equality_with_redundant_row() {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 1.0), (y, 1.0)]));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
        lp.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 2.0)]), Rel::Eq, 4.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_rhs_change_reuses_basis() {
        // Feasibility-style LP (zero objective); tighten the RHS and
        // re-solve warm: the dual repair must succeed.
        fn probe(rhs: f64) -> LpProblem<f64> {
            let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
            let x = lp.add_var("x");
            let y = lp.add_var("y");
            lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
            lp.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 1.0)]), Rel::Le, rhs);
            lp.add_constraint(LinExpr::term(y, 1.0), Rel::Le, rhs);
            lp
        }
        let first = solve_warm(&probe(4.0), None);
        assert_eq!(first.solution.status, LpStatus::Optimal);
        assert!(!first.warm_used);
        let basis = first.basis.expect("optimal solve must yield a basis");
        let second = solve_warm(&probe(2.0), Some(&basis));
        assert!(
            second.warm_used,
            "structurally identical LP must warm-start"
        );
        assert_eq!(second.solution.status, LpStatus::Optimal);
        // And an infeasible tightening is detected on the warm path too.
        let third = solve_warm(&probe(1.5), Some(&basis));
        assert!(third.warm_used);
        assert_eq!(third.solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_incompatible_hint_falls_back() {
        let mut a: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = a.add_var("x");
        a.add_constraint(LinExpr::term(x, 1.0), Rel::Eq, 5.0);
        let wa = solve_warm(&a, None);
        let mut b: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = b.add_var("x");
        let y = b.add_var("y");
        b.set_objective(LinExpr::term(y, 1.0));
        b.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Ge, 3.0);
        let wb = solve_warm(&b, wa.basis.as_ref());
        assert!(!wb.warm_used);
        assert_eq!(wb.solution.status, LpStatus::Optimal);
    }

    #[test]
    fn remap_carries_basis_across_column_add_and_drop() {
        // A feasibility-style LP over a variable set that churns the way
        // OLA's active set does: solve over {x, y}, then remap the basis
        // onto {y, z} (x dropped, z appended, y renumbered 1 → 0).
        fn share_lp(vars: usize, budget: f64) -> LpProblem<f64> {
            let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
            let ids: Vec<_> = (0..vars).map(|k| lp.add_var(format!("v{k}"))).collect();
            lp.add_constraint(
                LinExpr::from_iter(ids.iter().map(|&v| (v, 1.0))),
                Rel::Eq,
                1.0,
            );
            lp.add_constraint(
                LinExpr::from_iter(ids.iter().enumerate().map(|(k, &v)| (v, 1.0 + k as f64))),
                Rel::Le,
                budget,
            );
            lp
        }
        let first = solve_warm(&share_lp(2, 4.0), None);
        assert_eq!(first.solution.status, LpStatus::Optimal);
        let basis = first.basis.expect("optimal solve must yield a basis");

        let next = share_lp(2, 3.0);
        let hint = basis.remap(&next, &[None, Some(0)]);
        let out = solve_warm(&next, Some(&hint));
        assert!(out.warm_used, "remapped basis must stay usable");
        assert_eq!(out.solution.status, LpStatus::Optimal);

        // Growing the problem (column append) keeps the carried columns.
        let grown = share_lp(3, 3.0);
        let hint = basis.remap(&grown, &[Some(0), Some(1)]);
        let out = solve_warm(&grown, Some(&hint));
        assert!(out.warm_used);
        assert_eq!(out.solution.status, LpStatus::Optimal);
    }

    #[test]
    fn remap_to_degenerate_target_still_solves() {
        // Dropping every carried column leaves an all-slack hint; the
        // warm path must still complete it (or fall back) and agree with
        // the cold verdict.
        let mut a: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = a.add_var("x");
        a.add_constraint(LinExpr::term(x, 1.0), Rel::Eq, 5.0);
        let wa = solve_warm(&a, None);
        let basis = wa.basis.expect("optimal solve must yield a basis");

        let mut b: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let y = b.add_var("y");
        b.add_constraint(LinExpr::term(y, 1.0), Rel::Eq, 2.0);
        let hint = basis.remap(&b, &[None]);
        let out = solve_warm(&b, Some(&hint));
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert!((out.solution.values[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn warm_exact_rational_probe_chain() {
        // A Rat chain mimicking the Theorem-2 binary search: same shape,
        // shrinking deadline-like RHS.
        fn probe(rhs: i64) -> LpProblem<Rat> {
            let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Minimize);
            let a = lp.add_var("a");
            let b = lp.add_var("b");
            lp.add_constraint(
                LinExpr::from_iter([(a, Rat::one()), (b, Rat::one())]),
                Rel::Eq,
                Rat::one(),
            );
            lp.add_constraint(
                LinExpr::from_iter([(a, Rat::from_i64(4)), (b, Rat::from_i64(2))]),
                Rel::Le,
                Rat::from_i64(rhs),
            );
            lp
        }
        let mut basis = None;
        for rhs in [8, 5, 3, 2] {
            let out = solve_warm(&probe(rhs), basis.as_ref());
            assert_eq!(out.solution.status, LpStatus::Optimal, "rhs={rhs}");
            assert_eq!(out.warm_used, basis.is_some());
            basis = out.basis;
        }
        let out = solve_warm(&probe(1), basis.as_ref());
        assert!(out.warm_used);
        assert_eq!(out.solution.status, LpStatus::Infeasible);
    }

    /// Zero-objective probe with tunable inequality RHS, the
    /// [`ProbeCache`] target shape: `x + y = 2`, `2x + y ≤ r`, `y ≤ r`.
    fn cache_probe(rhs: f64) -> LpProblem<f64> {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
        lp.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 1.0)]), Rel::Le, rhs);
        lp.add_constraint(LinExpr::term(y, 1.0), Rel::Le, rhs);
        lp
    }

    #[test]
    fn probe_cache_rhs_patch_matches_cold_verdicts() {
        let mut cache: ProbeCache<f64> = ProbeCache::new();
        assert!(
            cache.solve(&cache_probe(4.0), None).is_none(),
            "empty cache with no hint has no warm route"
        );
        // Seed it through a cold solve's basis, then sweep the RHS both
        // ways: every verdict must match the cold solver's, and every
        // call after the seeding one must take the persistent path.
        let seed = solve_warm(&cache_probe(4.0), None);
        let basis = seed.basis.expect("seed basis");
        let mut seeded = false;
        for rhs in [4.0, 3.0, 2.5, 2.0, 1.9, 1.5, 3.5, 8.0, 1.0, 2.1] {
            let p = cache_probe(rhs);
            let out = cache
                .solve(&p, Some(&basis))
                .expect("seeded cache must serve warm");
            assert_eq!(
                out.solution.status,
                solve(&p).status,
                "cache and cold verdicts must agree at rhs={rhs}"
            );
            if out.solution.is_optimal() {
                assert!(certifies(&p, &out.solution), "optimal must certify");
            }
            if seeded {
                assert!(out.persistent, "same matrix must take the RHS patch path");
            }
            seeded = true;
        }
    }

    #[test]
    fn probe_cache_margin_is_decisive_for_gross_infeasibility() {
        let mut cache: ProbeCache<f64> = ProbeCache::new();
        let seed = solve_warm(&cache_probe(4.0), None);
        cache.solve(&cache_probe(4.0), seed.basis.as_ref()).unwrap();
        // x + y = 2 with 2x + y ≤ 0.5 is violated by ≥ 1.5 units.
        let out = cache.solve(&cache_probe(0.5), None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Infeasible);
        let margin = out.infeasible_margin.expect("infeasible carries a margin");
        assert!(margin > 0.5, "gross violation must be decisive: {margin}");
    }

    #[test]
    fn probe_cache_matrix_change_rerealizes_own_basis() {
        let mut cache: ProbeCache<f64> = ProbeCache::new();
        let seed = solve_warm(&cache_probe(4.0), None);
        cache.solve(&cache_probe(4.0), seed.basis.as_ref()).unwrap();
        // Same shape, different coefficient: the RHS patch must NOT
        // engage, but the cache's own basis re-realizes.
        let mut p: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
        p.add_constraint(LinExpr::from_iter([(x, 3.0), (y, 1.0)]), Rel::Le, 4.0);
        p.add_constraint(LinExpr::term(y, 1.0), Rel::Le, 4.0);
        let out = cache.solve(&p, None).expect("own basis re-realizes");
        assert!(!out.persistent);
        assert_eq!(out.solution.status, solve(&p).status);
        // And the re-realized tableau is retained: an RHS-only change on
        // the *new* matrix is persistent again.
        let mut q: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = q.add_var("x");
        let y = q.add_var("y");
        q.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
        q.add_constraint(LinExpr::from_iter([(x, 3.0), (y, 1.0)]), Rel::Le, 5.0);
        q.add_constraint(LinExpr::term(y, 1.0), Rel::Le, 5.0);
        let out = cache.solve(&q, None).unwrap();
        assert!(out.persistent);
        assert_eq!(out.solution.status, solve(&q).status);
    }

    #[test]
    fn probe_cache_eq_rhs_change_falls_back_to_realization() {
        let mut cache: ProbeCache<f64> = ProbeCache::new();
        let seed = solve_warm(&cache_probe(4.0), None);
        cache.solve(&cache_probe(4.0), seed.basis.as_ref()).unwrap();
        // Moving the equality row's RHS has no slack column to patch
        // through: must fall back to re-realization, still correct.
        let mut p: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 1.0);
        p.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 1.0)]), Rel::Le, 4.0);
        p.add_constraint(LinExpr::term(y, 1.0), Rel::Le, 4.0);
        let out = cache.solve(&p, None).unwrap();
        assert!(!out.persistent);
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert!(certifies(&p, &out.solution));
    }

    #[test]
    fn probe_cache_exact_rational_patch_is_bit_identical() {
        // Over Rat the RHS patch is exact algebra: the persistent path's
        // solution must equal the cold solution outright, not just agree
        // on the verdict.
        fn probe(rhs: i64) -> LpProblem<Rat> {
            let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Minimize);
            let a = lp.add_var("a");
            let b = lp.add_var("b");
            lp.add_constraint(
                LinExpr::from_iter([(a, Rat::one()), (b, Rat::one())]),
                Rel::Eq,
                Rat::one(),
            );
            lp.add_constraint(
                LinExpr::from_iter([(a, Rat::from_i64(4)), (b, Rat::from_i64(2))]),
                Rel::Le,
                Rat::from_i64(rhs),
            );
            lp
        }
        let mut cache: ProbeCache<Rat> = ProbeCache::new();
        let seed = solve_warm(&probe(8), None);
        cache.solve(&probe(8), seed.basis.as_ref()).unwrap();
        for rhs in [5, 3, 2, 4, 1] {
            let p = probe(rhs);
            let out = cache.solve(&p, None).unwrap();
            let cold = solve(&p);
            assert_eq!(out.solution.status, cold.status, "rhs={rhs}");
            if cold.status == LpStatus::Optimal {
                assert!(certifies(&p, &out.solution), "rhs={rhs}");
            }
        }
    }
}
