//! The re-plan core shared by the OLA family
//! ([`OfflineAdapt`](super::OfflineAdapt) and [`OlaLite`](super::OlaLite)).
//!
//! Both policies re-solve the offline divisible LP over the active set
//! at every event (§5) and differ only in how they search the objective
//! `F`. Everything around that search lives here, once:
//!
//! * the per-policy state: the platform `up` mask, the [`JobCols`]
//!   scratch copy of the active set, recycled sub-instance and deadline
//!   buffers, the cross-event [`WarmChain`], the persistent
//!   [`ProbeCache`] and the [`ResolveStats`] counters ([`OlaCore`]);
//! * the prologue of a re-plan: refresh the scratch columns, filter to
//!   the jobs placeable on a live machine, build the remaining-work
//!   sub-instance, carry the previous event's basis in, bracket `F`
//!   ([`Replan`]);
//! * the warm verdict rule ([`OlaCore::warm_probe`]): a warm feasible
//!   verdict needs a primal certificate, a warm infeasible one the
//!   persistent RHS-patch path plus a decisive margin;
//! * the epilogue: resolve counting, first-interval rate extraction,
//!   carrying the basis out and recycling buffers.
//!
//! A policy implements [`FSearch`] (its search, plus optional plan reuse
//! and commit hooks) and forwards `plan` to [`plan`]; dispatch is
//! static. Cold fallbacks stay with each policy: `OfflineAdapt`'s is
//! pinned by the campaign goldens, `OlaLite`'s by its own output pins.

use crate::engine::{ActiveSet, Allocation, ResolveStats};
use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_core::lp_build::{build_deadline_lp, probe_var_remap, DeadlineLp};
use dlflow_lp::{certifies, solve, LpProblem, LpSolution, LpStatus, ProbeCache, WarmBasis};
use std::mem;

/// Weight floor used when a zero-weight job reaches the deadline maths
/// (the streaming path does not forbid zero weights; treat them as
/// "almost irrelevant" rather than dividing by zero).
const MIN_WEIGHT: f64 = 1e-12;

/// Minimum decisive infeasibility margin, relative to the bracket's
/// upper bound, for a persistent-path infeasible verdict to be served
/// warm. The margin is the most negative basic value of the
/// dual-terminal tableau — how far, in work units, the probe overshoots
/// some capacity row. The RHS-patch path accumulates only one rounding
/// error per patched row per probe, so a margin orders of magnitude
/// above f64 noise at the problem's scale cannot be a pivot-path
/// artefact; anything smaller is recomputed cold.
const INFEASIBLE_MARGIN_GUARD: f64 = 1e-6;

/// Column-major scratch copy of the active set: `plan` refreshes these
/// flat buffers from the borrowed [`ActiveSet`] instead of materializing
/// per-job structs (and per-job cost boxes) at every event.
#[derive(Debug, Default)]
pub(crate) struct JobCols {
    pub(crate) n_machines: usize,
    pub(crate) ids: Vec<usize>,
    pub(crate) remaining: Vec<f64>,
    release: Vec<f64>,
    weight: Vec<f64>,
    /// Job-major raw cost rows (`f64::INFINITY` = unavailable).
    costs: Vec<f64>,
}

impl JobCols {
    pub(crate) fn n(&self) -> usize {
        self.ids.len()
    }

    fn fill(&mut self, active: &ActiveSet<'_>) {
        self.n_machines = active.n_machines();
        self.ids.clear();
        self.remaining.clear();
        self.release.clear();
        self.weight.clear();
        self.costs.clear();
        for a in active.iter() {
            self.ids.push(a.id);
            self.remaining.push(a.remaining);
            self.release.push(a.release);
            self.weight.push(a.weight);
            self.costs.extend_from_slice(a.costs());
        }
    }

    /// Processing cost of job `k` on machine `i`, `None` when absent.
    pub(crate) fn cost(&self, i: usize, k: usize) -> Option<f64> {
        let c = self.costs[k * self.n_machines + i];
        c.is_finite().then_some(c)
    }

    /// Drops every job column for which `keep` is false, preserving order.
    fn retain_by<F: Fn(&Self, usize) -> bool>(&mut self, keep: F) {
        let m = self.n_machines;
        let mut w = 0;
        for k in 0..self.n() {
            if keep(self, k) {
                if w != k {
                    self.ids[w] = self.ids[k];
                    self.remaining[w] = self.remaining[k];
                    self.release[w] = self.release[k];
                    self.weight[w] = self.weight[k];
                    self.costs.copy_within(k * m..(k + 1) * m, w * m);
                }
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.remaining.truncate(w);
        self.release.truncate(w);
        self.weight.truncate(w);
        self.costs.truncate(w * m);
    }

    /// Column of the job with engine id `id`, if present.
    fn position_of(&self, id: usize) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }
}

/// Retired sub-instance buffers (jobs, cost matrix) handed back for
/// recycling into the next event's sub-instance build.
type SubBuffers = (Vec<Job<f64>>, Vec<Vec<Cost<f64>>>);

/// Cross-event warm-basis carry: remembers the sub-instance shape and
/// probe basis an event ended with, and remaps that basis onto the next
/// event's (job-churned) LP shape.
#[derive(Debug, Default)]
struct WarmChain {
    /// Last optimal probe basis, if any.
    basis: Option<WarmBasis>,
    /// Sub-instance the carried basis was captured on.
    prev_sub: Option<Instance<f64>>,
    /// Engine job ids of `prev_sub`'s columns, in column order.
    prev_ids: Vec<usize>,
    /// Recycled old-job → new-column map.
    map_buf: Vec<Option<usize>>,
}

impl WarmChain {
    /// Produces the `(basis, var_map)` pair to [`WarmBasis::remap`] onto
    /// the event's first probe LP, consuming the carried basis. Returns
    /// `None` (fresh start) when nothing was carried or the platform
    /// shape changed.
    fn carry_in(
        &mut self,
        sub: &Instance<f64>,
        cols: &JobCols,
    ) -> Option<(WarmBasis, Vec<Option<usize>>)> {
        let stale = self.basis.take();
        let mut job_map = mem::take(&mut self.map_buf);
        let mut pending = None;
        if let (Some(prev), Some(basis)) = (self.prev_sub.as_ref(), stale) {
            if prev.n_machines() == cols.n_machines && self.prev_ids.len() == prev.n_jobs() {
                job_map.clear();
                for &pid in &self.prev_ids {
                    job_map.push(cols.position_of(pid));
                }
                let var_map = probe_var_remap(prev, sub, &job_map);
                pending = Some((basis, var_map));
            }
        }
        job_map.clear();
        self.map_buf = job_map;
        pending
    }

    /// Retires an event: stores its last probe basis and sub-instance
    /// shape for the next event, and hands back the previous shape's
    /// buffers for recycling.
    fn carry_out(
        &mut self,
        basis: Option<WarmBasis>,
        sub: Instance<f64>,
        cols: &JobCols,
    ) -> Option<SubBuffers> {
        self.basis = basis;
        self.prev_ids.clear();
        self.prev_ids.extend_from_slice(&cols.ids);
        self.prev_sub.replace(sub).map(Instance::into_parts)
    }

    /// Drops all carried state (reset, restore, platform change).
    fn clear(&mut self) {
        self.basis = None;
        self.prev_sub = None;
        self.prev_ids.clear();
    }
}

/// Builds the *remaining-work* sub-instance at `now` into recycled
/// buffers: one job per column with cost `remaining · c[i][j]` and
/// release `now`. Dead machines (per the `up` mask; empty = all live)
/// contribute all-`Infinite` rows, so the LP plans over live machines
/// only. `None` only if some column has no live finite machine — callers
/// pre-filter, so that is their bug, not an event.
fn build_sub(
    now: f64,
    cols: &JobCols,
    up: &[bool],
    recycle: &mut SubBuffers,
) -> Option<Instance<f64>> {
    let (mut jobs, mut cost) = mem::take(recycle);
    jobs.clear();
    for k in 0..cols.n() {
        jobs.push(Job {
            release: now,
            weight: cols.weight[k].max(MIN_WEIGHT),
            name: String::default(), // names are cosmetic; skip the per-job format
        });
    }
    cost.resize_with(cols.n_machines, Default::default);
    cost.truncate(cols.n_machines);
    for (i, row) in cost.iter_mut().enumerate() {
        row.clear();
        let live = up.is_empty() || up[i];
        for k in 0..cols.n() {
            row.push(match cols.cost(i, k) {
                Some(c) if live => Cost::Finite(cols.remaining[k] * c),
                _ => Cost::Infinite,
            });
        }
    }
    Instance::new(jobs, cost).ok()
}

/// Brackets the optimal objective: `lo` is the flow already incurred
/// (any feasible `F` is at least the largest `w·(now − r)`), `hi`
/// serializes all remaining work on each job's fastest machine, padded
/// so it stays feasible under float rounding.
fn bracket(now: f64, cols: &JobCols, sub: &Instance<f64>) -> (f64, f64) {
    let lo = cols
        .weight
        .iter()
        .zip(&cols.release)
        .map(|(&w, &r)| w * (now - r))
        .fold(0.0f64, f64::max);
    let total_serial: f64 = (0..cols.n()).map(|k| sub.fastest_cost(k)).sum();
    let hi = cols
        .weight
        .iter()
        .zip(&cols.release)
        .map(|(&w, &r)| w.max(MIN_WEIGHT) * (now + total_serial - r))
        .fold(lo, f64::max)
        .max(lo + 1.0)
        * (1.0 + 1e-9)
        + 1e-6;
    (lo, hi)
}

/// First-interval rates from a solved deadline LP: α⁽⁰⁾ᵢⱼ · c'ᵢⱼ is the
/// time machine i spends on job j within the interval; divided by the
/// interval length it is the machine share. Returns the allocation and
/// whether the solution produced any usable first interval.
fn first_interval_rates(
    built: &DeadlineLp<f64>,
    sol: &LpSolution<f64>,
    sub: &Instance<f64>,
    cols: &JobCols,
) -> (Allocation, bool) {
    let mut alloc = Allocation::idle(cols.n_machines);
    if built.intervals.n_intervals() == 0 {
        return (alloc, false);
    }
    let len0 = built.intervals.len(0);
    if len0 <= 0.0 {
        return (alloc, false);
    }
    for (t, i, k, v) in &built.alpha {
        if *t != 0 {
            continue;
        }
        let frac = sol.values[v.index()];
        if frac <= 1e-12 {
            continue;
        }
        // The LP never grants share on an illegal pair; skip rather
        // than panic if a solver artefact ever does.
        let Some(&c_sub) = sub.cost(*i, *k).finite() else {
            continue;
        };
        let share = (frac * c_sub / len0).min(1.0);
        alloc.add(*i, cols.ids[*k], share);
    }
    // Normalize any machine marginally over 1 from float noise.
    for i in 0..cols.n_machines {
        let total = alloc.machine_total(i);
        if total > 1.0 {
            alloc.scale_machine(i, 1.0 / total);
        }
    }
    (alloc, true)
}

/// One event's re-plan in progress: the placeable active columns, their
/// remaining-work sub-instance, the bracket on `F`, the deadline buffer
/// and the event's warm-probe bookkeeping.
pub(crate) struct Replan<'a> {
    pub(crate) now: f64,
    pub(crate) cols: &'a JobCols,
    pub(crate) sub: Instance<f64>,
    /// Flow already incurred: no feasible `F` lies below it.
    pub(crate) lo: f64,
    /// Serial upper bound on `F`, feasible by construction.
    pub(crate) hi: f64,
    /// Deadlines of the objective last passed to [`Replan::set_f`].
    pub(crate) d: Vec<f64>,
    /// The previous event's basis and its variable map, consumed by the
    /// event's first warm probe.
    pending: Option<(WarmBasis, Vec<Option<usize>>)>,
    /// Basis the probe cache re-seeds from for the rest of the event.
    pub(crate) hint: Option<WarmBasis>,
    /// Whether the cache ran on *this* event's LP shape: only then is
    /// its retained basis safe to pair with this event's sub-instance in
    /// the cross-event carry (an older event's basis has a different
    /// variable count and would poison the next remap).
    cache_on_event_shape: bool,
    /// Warm solves counted before the event, to classify it warm/cold.
    warm_before: usize,
    /// Whether the event runs the warm chain and probe cache at all.
    warm: bool,
}

impl Replan<'_> {
    /// Sets the deadlines induced by objective `f`, measured from the
    /// **original** releases (so jobs that have waited longer get
    /// tighter windows), clamped below `now` (a deadline in the past
    /// means `f` is infeasible, expressed as an empty window).
    pub(crate) fn set_f(&mut self, f: f64) {
        let now = self.now;
        self.d.clear();
        self.d.extend(
            self.cols
                .release
                .iter()
                .zip(&self.cols.weight)
                .map(|(&r, &w)| (r + f / w.max(MIN_WEIGHT)).max(now - 1.0)), // < now ⇒ infeasible window
        );
    }

    /// Whether some deadline window is empty: `F` is infeasible with no
    /// LP needed to refute it.
    pub(crate) fn window_empty(&self) -> bool {
        self.d.iter().any(|&dj| dj <= self.now)
    }
}

/// State shared by the OLA family; each policy embeds one.
#[derive(Debug, Default)]
pub(crate) struct OlaCore {
    /// Platform availability mask (empty = all machines in service).
    up: Vec<bool>,
    /// Scratch copy of the active set, refreshed per event.
    scratch: JobCols,
    /// Recycled job/cost-matrix buffers for the LP sub-instance (the
    /// previous-but-one sub-instance's allocations, rotated back in).
    sub_recycle: SubBuffers,
    /// Recycled deadline vector (one slot per selected job).
    d_buf: Vec<f64>,
    /// Cross-event warm-basis carry.
    chain: WarmChain,
    /// Persistent probe factorization (retained tableau + RHS-patch
    /// re-solves) for shape-stable probes.
    probe: ProbeCache<f64>,
    /// Re-solve telemetry since the last `reset`.
    pub(crate) stats: ResolveStats,
}

impl OlaCore {
    /// Clears everything, telemetry included (`OnlineScheduler::reset`).
    pub(crate) fn reset(&mut self) {
        self.stats = ResolveStats::default();
        self.up.clear();
        self.drop_warm_state();
    }

    /// Records the new platform mask. The carried basis was captured on
    /// the old platform's cost pattern; `probe_var_remap` drops pairs
    /// that flipped between finite and infinite, so carrying it across
    /// would still be sound — but the cheap, obviously-correct move is
    /// to rebuild. Platform events are rare next to arrivals and
    /// completions.
    pub(crate) fn on_platform_change(&mut self, up: &[bool]) {
        self.up.clear();
        self.up.extend_from_slice(up);
        self.drop_warm_state();
    }

    /// Drops the warm basis and the probe cache's retained tableau. Both
    /// are pure pivot-order hints: every verdict they serve is certified
    /// or margin-gated, so dropping them (on restore, say) changes only
    /// the warm/cold split of the following events, never a plan.
    fn drop_warm_state(&mut self) {
        self.chain.clear();
        self.probe.clear();
    }

    /// First line of a policy's snapshot state: the resolve count.
    pub(crate) fn snapshot_head(&self) -> String {
        format!("n_resolves {}\n", self.stats.n_resolves)
    }

    /// Restores the resolve count from the state's first line (the rest
    /// of the telemetry restarts at zero) and drops the warm state.
    /// `who` prefixes error messages.
    pub(crate) fn restore_head(&mut self, head: Option<&str>, who: &str) -> Result<(), String> {
        let head = head.ok_or_else(|| format!("{who} state: missing n_resolves line"))?;
        self.stats.n_resolves = head
            .strip_prefix("n_resolves ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{who} state: bad n_resolves line"))?;
        self.drop_warm_state();
        Ok(())
    }

    /// Whether machine `i` is in service under the current mask.
    fn live(&self, i: usize) -> bool {
        self.up.is_empty() || self.up[i]
    }

    /// Whether job column `k` can run on some live machine.
    fn placeable(&self, cols: &JobCols, k: usize) -> bool {
        (0..cols.n_machines).any(|i| self.live(i) && cols.cost(i, k).is_some())
    }

    /// One warm feasibility probe of `lp` (the shape-stable probe form
    /// of `ev`'s current deadlines), served by the persistent
    /// [`ProbeCache`]. A verdict is trusted on exactly two routes: a
    /// primal-certified feasible point (true regardless of the pivot
    /// path), or an infeasibility from the persistent RHS-patch path
    /// that refutes feasibility by a decisive margin relative to `hi`.
    /// Anything else — in particular any infeasibility claimed by a
    /// freshly re-realized basis — returns `None`, and the caller
    /// recomputes the verdict with its cold fallback.
    pub(crate) fn warm_probe(
        &mut self,
        ev: &mut Replan<'_>,
        lp: &LpProblem<f64>,
        hi: f64,
    ) -> Option<bool> {
        if let Some((basis, var_map)) = ev.pending.take() {
            ev.hint = Some(basis.remap(lp, &var_map));
        }
        let served = self.probe.solve(lp, ev.hint.as_ref());
        ev.cache_on_event_shape |= served.is_some();
        let verdict = served.and_then(|out| {
            if out.solution.is_optimal() {
                if certifies(lp, &out.solution) {
                    Some(true)
                } else {
                    // An uncertifiable "optimum" means the tableau
                    // cannot be trusted for anything.
                    self.probe.clear();
                    None
                }
            } else if out.persistent
                && out.solution.status == LpStatus::Infeasible
                && out
                    .infeasible_margin
                    .is_some_and(|m| m > INFEASIBLE_MARGIN_GUARD * (1.0 + hi))
            {
                Some(false)
            } else {
                None
            }
        });
        if verdict.is_some() {
            self.stats.warm_lp_solves += 1;
        }
        verdict
    }

    /// The legacy computation at `ev`'s current deadlines: the filtered
    /// deadline LP solved from scratch. Counted as one cold solve.
    pub(crate) fn filtered_solve(&mut self, ev: &Replan<'_>) -> (DeadlineLp<f64>, LpSolution<f64>) {
        self.stats.cold_lp_solves += 1;
        let built = build_deadline_lp(&ev.sub, &ev.d, false);
        let sol = solve(&built.lp);
        (built, sol)
    }

    /// The prologue of a re-plan: builds the remaining-work sub-instance
    /// of the (pre-filtered) columns, carries the previous event's basis
    /// onto its shape — surviving job columns map by engine id, departed
    /// ones fall out in `remap`, arrivals start non-basic — and brackets
    /// `F`. `None` only if the sub-instance cannot be built, which the
    /// placeability filter rules out.
    fn begin<'a>(&mut self, now: f64, cols: &'a JobCols, warm: bool) -> Option<Replan<'a>> {
        let sub = build_sub(now, cols, &self.up, &mut self.sub_recycle)?;
        let pending = if warm {
            self.chain.carry_in(&sub, cols)
        } else {
            None
        };
        let (lo, hi) = bracket(now, cols, &sub);
        Some(Replan {
            now,
            cols,
            sub,
            lo,
            hi,
            d: mem::take(&mut self.d_buf),
            pending,
            hint: None,
            cache_on_event_shape: false,
            warm_before: self.stats.warm_lp_solves,
            warm,
        })
    }

    /// The epilogue: counts the re-plan, extracts first-interval rates
    /// from the search's final solve (`None` = idle plan), retires the
    /// event's sub-instance into the carry slot with the probe cache's
    /// last basis, and rotates the previous one's buffers back into the
    /// recycle pool. Returns the rates and whether they were produced.
    fn finish(
        &mut self,
        ev: Replan<'_>,
        solved: Option<(DeadlineLp<f64>, LpSolution<f64>)>,
    ) -> (Allocation, bool) {
        self.stats.n_resolves += 1;
        if self.stats.warm_lp_solves > ev.warm_before {
            self.stats.warm_resolves += 1;
        } else {
            self.stats.cold_resolves += 1;
        }
        self.d_buf = ev.d;
        let out = match &solved {
            Some((built, sol)) => first_interval_rates(built, sol, &ev.sub, ev.cols),
            None => (Allocation::idle(ev.cols.n_machines), false),
        };
        if ev.warm {
            let carried = if ev.cache_on_event_shape {
                self.probe.basis()
            } else {
                None
            };
            if let Some(bufs) = self.chain.carry_out(carried, ev.sub, ev.cols) {
                self.sub_recycle = bufs;
            }
        } else {
            self.sub_recycle = ev.sub.into_parts();
        }
        out
    }
}

/// What an OLA policy contributes to the shared re-plan: its search for
/// `F`, plus optional plan-reuse and commit hooks.
pub(crate) trait FSearch {
    /// The policy's embedded core.
    fn core(&mut self) -> &mut OlaCore;

    /// Whether re-plans run the warm chain and probe cache.
    fn warm(&self) -> bool {
        true
    }

    /// A plan to serve without re-solving, if the policy has one for
    /// these columns (checked before and, when the placeability filter
    /// drops columns, after filtering).
    fn reuse(&self, _now: f64, _cols: &JobCols) -> Option<Allocation> {
        None
    }

    /// Searches `F` on `ev` and returns the final solve to extract rates
    /// from (`None` = plan idle).
    fn search(&mut self, ev: &mut Replan<'_>) -> Option<(DeadlineLp<f64>, LpSolution<f64>)>;

    /// Called with freshly produced rates over the columns `ids`.
    fn commit(&mut self, _now: f64, _ids: &[usize], _alloc: &Allocation) {}
}

/// `OnlineScheduler::plan` for an OLA policy: refreshes the scratch
/// columns from the borrowed active set (the LP path needs them beyond
/// this call frame's borrows), re-plans, and copies the rates out.
pub(crate) fn plan<P: FSearch>(
    policy: &mut P,
    now: f64,
    active: &ActiveSet<'_>,
    alloc: &mut Allocation,
) {
    if active.is_empty() {
        return;
    }
    let mut cols = mem::take(&mut policy.core().scratch);
    cols.fill(active);
    let result = replan(policy, now, &mut cols);
    policy.core().scratch = cols;
    for i in 0..alloc.n_machines() {
        for (job, share) in result.entries(i) {
            alloc.set(i, *job, *share);
        }
    }
}

/// The re-plan proper, over the scratch columns (which it may filter
/// down to the placeable subset on the degraded no-live-machine path).
fn replan<P: FSearch>(policy: &mut P, now: f64, cols: &mut JobCols) -> Allocation {
    let n_machines = cols.n_machines;
    if cols.n() == 0 {
        return Allocation::idle(n_machines);
    }
    if let Some(alloc) = policy.reuse(now, cols) {
        return alloc;
    }
    let core = policy.core();
    if (0..cols.n()).any(|k| !core.placeable(cols, k)) {
        // Some active job runs on no *live* machine: plan the placeable
        // subset instead of stranding everyone (each survivor has a live
        // finite-cost machine, so the sub-instance below cannot fail).
        cols.retain_by(|c, k| core.placeable(c, k));
        if cols.n() == 0 {
            return Allocation::idle(n_machines);
        }
        // The reuse may cover the placeable subset even when an
        // unplaceable newcomer made the full set a miss.
        if let Some(alloc) = policy.reuse(now, cols) {
            return alloc;
        }
    }
    let warm = policy.warm();
    let Some(mut ev) = policy.core().begin(now, cols, warm) else {
        // Unreachable: every column was pre-filtered to be placeable and
        // carries non-negative data. Idle beats panicking.
        return Allocation::idle(n_machines);
    };
    let solved = policy.search(&mut ev);
    let (alloc, produced) = policy.core().finish(ev, solved);
    if produced {
        policy.commit(now, &cols.ids, &alloc);
    }
    alloc
}
