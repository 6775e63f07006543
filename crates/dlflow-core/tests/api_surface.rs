//! Integration coverage for the exact-solver support surface: the pieces
//! callers compose when building their own feasibility probes or packing
//! LP solutions into schedules, exercised here from outside the crate.

use dlflow_core::flownet::FlowNetwork;
use dlflow_core::instance::{Instance, InstanceBuilder};
use dlflow_core::intervals::{AffineF, ConcreteIntervals, SymbolicIntervals};
use dlflow_core::lp_build::{
    build_deadline_probe_lp, build_range_lp, pack_alpha_schedule, RangeLp,
};
use dlflow_core::matching::has_perfect_matching;
use dlflow_core::schedule::{Schedule, ScheduleKind, Slice};
use dlflow_core::uniform::{feasible_at_uniform, uniform_factors};
use dlflow_lp::{solve, LpStatus};
use dlflow_num::Rat;

fn ri(v: i64) -> Rat {
    Rat::from_i64(v)
}

/// 2 jobs released at 0 and 1, one uniform machine twice as fast as the
/// other (cost rows are proportional — the GriPPS structure of §3).
fn uniform_instance() -> Instance<Rat> {
    let mut b = InstanceBuilder::new();
    b.job(ri(0), ri(1));
    b.job(ri(1), ri(1));
    b.machine(vec![Some(ri(2)), Some(ri(2))]);
    b.machine(vec![Some(ri(4)), Some(ri(4))]);
    b.build().unwrap()
}

#[test]
fn flow_network_tracks_per_edge_flow() {
    // source 0 → 1 → sink 2, bottleneck 3 on the second edge.
    let mut net: FlowNetwork<Rat> = FlowNetwork::new(3);
    let wide = net.add_edge(0, 1, ri(5));
    let narrow = net.add_edge(1, 2, ri(3));
    assert_eq!(net.n_nodes(), 3);
    assert_eq!(net.max_flow(0, 2), ri(3));
    assert_eq!(net.flow_on(wide), &ri(3));
    assert_eq!(net.flow_on(narrow), &ri(3));
}

#[test]
fn naive_flow_upper_bound_dominates_the_optimum() {
    let inst = uniform_instance();
    let ub = inst.naive_flow_upper_bound();
    // Serial processing on the fastest machine: J1 done at 2, J2 waits
    // until 2 and finishes at 4 → flow 3; both have weight 1.
    assert_eq!(ub, ri(3));
    // The bound must be feasible for the probe machinery it seeds.
    let factors = uniform_factors(&inst).expect("proportional rows are uniform");
    assert!(feasible_at_uniform(&inst, &ub, &factors));
    assert!(!feasible_at_uniform(&inst, &ri(0), &factors));
}

#[test]
fn interval_breakpoint_helpers() {
    let conc = ConcreteIntervals::from_points(vec![ri(0), ri(2), ri(5)]);
    assert_eq!(conc.n_intervals(), 2);
    assert_eq!(conc.last_point(), &ri(5));

    let f = AffineF { a: ri(1), b: ri(2) };
    assert!(f.same_function(&f.clone()));
    assert!(!f.same_function(&AffineF::constant(ri(1))));
}

#[test]
fn symbolic_intervals_merge_coincident_breakpoints() {
    // Two identical affine breakpoints and one constant: 2 distinct
    // points → 1 finite interval at the reference.
    let dl = AffineF { a: ri(0), b: ri(1) };
    let sym = SymbolicIntervals::from_points(vec![AffineF::constant(ri(0)), dl.clone(), dl], ri(3));
    assert_eq!(sym.n_intervals(), 1);
}

#[test]
fn probe_lp_and_range_lp_agree_on_feasibility() {
    let inst = uniform_instance();
    let deadlines: Vec<Rat> = (0..2).map(|j| inst.deadline(j, &ri(3))).collect();
    let probe = build_deadline_probe_lp(&inst, &deadlines, false);
    assert_eq!(solve(&probe).status, LpStatus::Optimal);

    let releases: Vec<Rat> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    let RangeLp {
        lp,
        alpha,
        f_var,
        intervals,
    } = build_range_lp(&inst, &releases, &ri(1), Some(&ri(4)), &ri(3), false);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(!alpha.is_empty());
    assert!(sol.values[f_var.index()] <= ri(4));
    assert!(intervals.n_intervals() > 0);
}

#[test]
fn pack_alpha_schedule_of_an_empty_assignment_is_empty() {
    let inst = uniform_instance();
    let sched = pack_alpha_schedule(&inst, &[], &[], &[]);
    assert_eq!(sched.n_slices(), 0);
}

#[test]
fn perfect_matching_detects_halls_condition() {
    assert!(has_perfect_matching(2, 2, &[vec![0, 1], vec![0]]));
    // Both left vertices compete for the single right vertex 0.
    assert!(!has_perfect_matching(2, 2, &[vec![0], vec![0]]));
}

#[test]
fn schedule_fraction_and_flow_accounting() {
    let inst = uniform_instance();
    let mut sched: Schedule<Rat> = Schedule::empty(2, ScheduleKind::Divisible);
    // J1 whole on M1 (cost 2) over [0,2); J2 whole on M2 (cost 4) over [1,5).
    sched.push(
        0,
        Slice {
            job: 0,
            start: ri(0),
            end: ri(2),
        },
    );
    sched.push(
        1,
        Slice {
            job: 1,
            start: ri(1),
            end: ri(5),
        },
    );
    let frac = sched.processed_fractions(&inst);
    assert_eq!(frac, vec![ri(1), ri(1)]);
    // Flows: J1 = 2 − 0, J2 = 5 − 1 → total 6.
    assert_eq!(sched.total_flow(&inst), ri(6));
}
