//! Online scheduling policies.
//!
//! All nine speak the event-notification
//! [`OnlineScheduler`](crate::engine::OnlineScheduler) API: the engine
//! tells them about arrivals and completions (`on_arrival` /
//! `on_completion`), they keep incremental per-job state, and `plan`
//! sees only the active set — never a closed instance — so every policy
//! runs unchanged on open-arrival traces of any length.
//!
//! * [`mct::Mct`] — Minimum Completion Time, the classical heuristic the
//!   paper's conclusion names as the baseline its online adaptation beats
//!   (assignments pruned incrementally on completion).
//! * [`greedy::Srpt`], [`greedy::Swrpt`], [`greedy::WeightedAge`],
//!   [`greedy::FifoFastest`], [`greedy::RoundRobin`] — further classical
//!   list heuristics (preemptive, non-divisible).
//! * [`edf::Edf`] — Earliest Deadline First on guessed deadlines
//!   (`d̂_j = r_j + k·p̄_j/w_j`), the deadline-driven member of the
//!   comparison set (guesses cached at arrival).
//! * [`offline_adapt::OfflineAdapt`] — the paper's proposal: re-solve the
//!   offline divisible max-weighted-flow problem at every event, finding
//!   its optimal objective by Theorem 2's milestone search, and follow
//!   its first-interval rates (divisibility gives preemption for free).
//!   Its [`min_resolve_interval`](offline_adapt::OfflineAdapt::min_resolve_interval)
//!   throttles the re-solve cadence for cheap approximate variants.
//! * [`ola_lite::OlaLite`] — the warm-path member of the OLA family:
//!   instead of an exact search it geometrically walks the previous
//!   event's objective into place (factor `α`), spending O(1) warm LP
//!   probes per event in steady state at the cost of an α-factor
//!   objective overshoot.
//!
//! The two OLA policies differ only in how they search the objective
//! `F`. Both embed the crate-private `ola_core` re-plan core, which holds
//! everything else exactly once: the platform mask, the scratch copy of
//! the active set, recycled LP buffers, the cross-event warm-basis carry
//! and the persistent probe cache (used by `OlaLite` only), the warm
//! verdict rule, the
//! [`ResolveStats`](crate::engine::ResolveStats) counters, and the
//! re-plan prologue (placeable-subset filter, remaining-work
//! sub-instance, bracket on `F`) and epilogue (rate extraction, basis
//! carry, buffer recycling). Each policy supplies its search through a
//! statically dispatched trait.

pub mod edf;
pub mod greedy;
pub mod mct;
pub mod offline_adapt;
mod ola_core;
pub mod ola_lite;

pub use edf::Edf;
pub use greedy::{FifoFastest, RoundRobin, Srpt, Swrpt, WeightedAge};
pub use mct::Mct;
pub use offline_adapt::OfflineAdapt;
pub use ola_lite::OlaLite;
