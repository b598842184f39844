//! Runtime invariant audit for the max-min fluid solver.
//!
//! [`MaxMinAudit`] re-derives, from first principles, the properties the
//! paper's sharing model promises (§4.2) and checks a solver output
//! against them after every rate recomputation:
//!
//! * **feasibility** — per-resource load never exceeds capacity (within a
//!   relative epsilon), and no rate is negative or above its cap;
//! * **max-min** — every finite flow is either at its cap or crosses a
//!   saturated resource, and flows bottlenecked *only* at one saturated
//!   resource share it equally by weight;
//! * **conservation** — the reported residual of each resource equals
//!   capacity minus load.
//!
//! Violations are typed ([`AuditViolation`]) so tests can assert on the
//! precise failure mode; [`maxmin::validate`](crate::maxmin::validate)
//! renders the first one as a string for debug assertions.

use crate::maxmin::{Allocation, FlowSpec, EPS};
use crate::time::SimTime;
use std::fmt;

/// A single violated invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditViolation {
    /// A constrained flow was assigned an infinite rate.
    InfiniteConstrained {
        /// Flow index in the checked allocation.
        flow: usize,
    },
    /// A flow was assigned a negative rate.
    NegativeRate {
        /// Flow index.
        flow: usize,
        /// The offending rate (bits/s).
        rate: f64,
    },
    /// A flow's rate exceeds its declared cap.
    CapExceeded {
        /// Flow index.
        flow: usize,
        /// Assigned rate (bits/s).
        rate: f64,
        /// Declared cap (bits/s).
        cap: f64,
    },
    /// A resource carries more load than its capacity.
    Overload {
        /// Resource index.
        resource: usize,
        /// Aggregate load (bits/s).
        load: f64,
        /// Capacity (bits/s).
        capacity: f64,
    },
    /// A finite flow is neither at its cap nor crossing any saturated
    /// resource — bandwidth was left on the table.
    NotBottlenecked {
        /// Flow index.
        flow: usize,
        /// Assigned rate (bits/s).
        rate: f64,
    },
    /// Two flows bottlenecked only at this resource have unequal
    /// weight-normalised shares — the allocation is not max-min fair.
    UnequalShares {
        /// Resource index.
        resource: usize,
        /// Smallest normalised share among the flows bottlenecked here.
        min: f64,
        /// Largest normalised share among the flows bottlenecked here.
        max: f64,
    },
    /// The allocation's reported residual disagrees with capacity − load.
    ResidualMismatch {
        /// Resource index.
        resource: usize,
        /// Residual the solver reported (bits/s).
        reported: f64,
        /// Residual implied by the rates (bits/s).
        expected: f64,
    },
    /// The discrete-event clock moved backwards.
    ClockRegression {
        /// Time before the regression.
        from: SimTime,
        /// The earlier time the clock attempted to move to.
        to: SimTime,
    },
    /// The incremental solver's rate for a flow disagrees bit-for-bit with
    /// a shadow full solve of the same problem — the scoping invariant
    /// (see docs/PERFORMANCE.md) was broken.
    SolverDivergence {
        /// Engine flow id.
        flow: u64,
        /// Rate the incremental solver kept or computed (bits/s).
        incremental: f64,
        /// Rate the shadow full solve produced (bits/s).
        full: f64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::InfiniteConstrained { flow } => {
                write!(f, "flow {flow} infinite but constrained")
            }
            AuditViolation::NegativeRate { flow, rate } => {
                write!(f, "flow {flow} negative rate {rate}")
            }
            AuditViolation::CapExceeded { flow, rate, cap } => {
                write!(f, "flow {flow} rate {rate} exceeds cap {cap}")
            }
            AuditViolation::Overload { resource, load, capacity } => {
                write!(f, "resource {resource} overloaded: {load} > {capacity}")
            }
            AuditViolation::NotBottlenecked { flow, rate } => {
                write!(f, "flow {flow} neither capped nor bottlenecked (rate {rate})")
            }
            AuditViolation::UnequalShares { resource, min, max } => {
                write!(f, "resource {resource}: unequal normalised shares {min} vs {max}")
            }
            AuditViolation::ResidualMismatch { resource, reported, expected } => {
                write!(
                    f,
                    "resource {resource}: residual {reported} reported, {expected} expected"
                )
            }
            AuditViolation::ClockRegression { from, to } => {
                write!(f, "simulation clock moved backwards: {from} -> {to}")
            }
            AuditViolation::SolverDivergence { flow, incremental, full } => {
                write!(
                    f,
                    "flow {flow}: incremental rate {incremental} diverges from full solve {full}"
                )
            }
        }
    }
}

/// Invariant checker for max-min allocations.
///
/// The relative tolerances default to the ones the solver itself
/// guarantees; widen them when auditing allocations that passed through
/// lossy round-trips (serialisation, unit conversion).
#[derive(Clone, Copy, Debug)]
pub struct MaxMinAudit {
    /// Relative slack for feasibility / saturation checks.
    pub rel_tol: f64,
    /// Absolute slack added on top (covers zero-capacity resources).
    pub abs_tol: f64,
}

impl Default for MaxMinAudit {
    fn default() -> Self {
        MaxMinAudit { rel_tol: 1e-6, abs_tol: EPS }
    }
}

impl MaxMinAudit {
    /// Check every invariant; returns all violations found (empty when the
    /// allocation is a valid weighted max-min fair solution).
    pub fn check(
        &self,
        capacities: &[f64],
        flows: &[FlowSpec],
        alloc: &Allocation,
    ) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        let n_res = capacities.len();
        let mut load = vec![0.0_f64; n_res];

        for (i, f) in flows.iter().enumerate() {
            let r = alloc.rates[i];
            if r.is_infinite() {
                if !f.resources.is_empty() || f.cap.is_some() {
                    out.push(AuditViolation::InfiniteConstrained { flow: i });
                }
                continue;
            }
            if r < -self.abs_tol {
                out.push(AuditViolation::NegativeRate { flow: i, rate: r });
            }
            if let Some(cap) = f.cap {
                if r > cap * (1.0 + self.abs_tol) + self.abs_tol {
                    out.push(AuditViolation::CapExceeded { flow: i, rate: r, cap });
                }
            }
            for &res in &f.resources {
                load[res] += r;
            }
        }

        // Feasibility.
        for res in 0..n_res {
            if load[res] > capacities[res] * (1.0 + self.rel_tol) + self.abs_tol {
                out.push(AuditViolation::Overload {
                    resource: res,
                    load: load[res],
                    capacity: capacities[res],
                });
            }
        }

        // Bottleneck saturation: every finite flow is capped or crosses a
        // saturated resource.
        for (i, f) in flows.iter().enumerate() {
            let r = alloc.rates[i];
            if r.is_infinite() {
                continue;
            }
            let at_cap = f.cap.is_some_and(|c| r >= c - c.abs().max(1.0) * self.rel_tol);
            let bottlenecked = f
                .resources
                .iter()
                .any(|&res| load[res] >= capacities[res] * (1.0 - self.rel_tol) - self.abs_tol);
            if !at_cap && !bottlenecked {
                out.push(AuditViolation::NotBottlenecked { flow: i, rate: r });
            }
        }

        // Max-min: on every saturated resource, uncapped flows bottlenecked
        // *only* here must share equally by weight.
        for res in 0..n_res {
            if load[res] < capacities[res] * (1.0 - self.rel_tol) {
                continue;
            }
            let mut here: Vec<f64> = Vec::new(); // normalised rates
            for (i, f) in flows.iter().enumerate() {
                if !f.resources.contains(&res) {
                    continue;
                }
                let r = alloc.rates[i];
                let at_cap = f.cap.is_some_and(|c| r >= c - c.abs().max(1.0) * self.rel_tol);
                let elsewhere = f.resources.iter().any(|&o| {
                    o != res
                        && load[o] >= capacities[o] * (1.0 - self.rel_tol) - self.abs_tol
                });
                if !at_cap && !elsewhere {
                    here.push(r / f.weight);
                }
            }
            if here.len() >= 2 {
                let max = here.iter().copied().fold(f64::MIN, f64::max);
                let min = here.iter().copied().fold(f64::MAX, f64::min);
                if max - min > max.abs().max(1.0) * self.rel_tol {
                    out.push(AuditViolation::UnequalShares { resource: res, min, max });
                }
            }
        }

        // Conservation: reported residual == capacity − load. The solver
        // clamps small negative dust to zero, so the expected value is
        // clamped the same way.
        for res in 0..n_res {
            if load[res].is_infinite() {
                continue;
            }
            let expected = (capacities[res] - load[res]).max(0.0);
            let reported = alloc.residual[res];
            let tol = capacities[res].abs().max(1.0) * self.rel_tol + self.abs_tol;
            if (reported - expected).abs() > tol {
                out.push(AuditViolation::ResidualMismatch { resource: res, reported, expected });
            }
        }

        out
    }

    /// Check that the event clock never moves backwards.
    pub fn check_clock(&self, from: SimTime, to: SimTime) -> Option<AuditViolation> {
        if to < from {
            Some(AuditViolation::ClockRegression { from, to })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::solve;
    use crate::units::mbps;

    fn audit() -> MaxMinAudit {
        MaxMinAudit::default()
    }

    #[test]
    fn correct_allocation_passes() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::greedy(vec![0]); 4];
        let a = solve(&caps, &flows);
        assert!(audit().check(&caps, &flows, &a).is_empty());
    }

    #[test]
    fn infeasible_allocation_reports_overload() {
        let caps = [mbps(10.0)];
        let flows = vec![FlowSpec::greedy(vec![0]); 2];
        let a = Allocation { rates: vec![mbps(8.0), mbps(8.0)], residual: vec![0.0] };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter().any(|v| matches!(v, AuditViolation::Overload { resource: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn underused_allocation_reports_not_bottlenecked() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::greedy(vec![0])];
        let a = Allocation { rates: vec![mbps(10.0)], residual: vec![mbps(90.0)] };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter()
                .any(|v| matches!(v, AuditViolation::NotBottlenecked { flow: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn non_maxmin_allocation_reports_unequal_shares() {
        // Saturated link split 75/25 between equal-weight flows.
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::greedy(vec![0]); 2];
        let a = Allocation {
            rates: vec![mbps(75.0), mbps(25.0)],
            residual: vec![0.0],
        };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter()
                .any(|v| matches!(v, AuditViolation::UnequalShares { resource: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn cap_violation_reported() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::capped(vec![0], mbps(10.0))];
        let a = Allocation { rates: vec![mbps(20.0)], residual: vec![mbps(80.0)] };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter().any(|v| matches!(v, AuditViolation::CapExceeded { flow: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn negative_rate_reported() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::greedy(vec![0]), FlowSpec::greedy(vec![0])];
        let a = Allocation {
            rates: vec![mbps(-5.0), mbps(100.0)],
            residual: vec![mbps(5.0)],
        };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter().any(|v| matches!(v, AuditViolation::NegativeRate { flow: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn residual_mismatch_reported() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::capped(vec![0], mbps(30.0))];
        let a = Allocation { rates: vec![mbps(30.0)], residual: vec![mbps(10.0)] };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter()
                .any(|v| matches!(v, AuditViolation::ResidualMismatch { resource: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn constrained_infinite_rate_reported() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::greedy(vec![0])];
        let a = Allocation { rates: vec![f64::INFINITY], residual: vec![0.0] };
        let v = audit().check(&caps, &flows, &a);
        assert!(
            v.iter()
                .any(|v| matches!(v, AuditViolation::InfiniteConstrained { flow: 0 })),
            "{v:?}"
        );
    }

    #[test]
    fn clock_regression_detected() {
        let a = audit();
        assert!(a
            .check_clock(SimTime::from_secs(2), SimTime::from_secs(1))
            .is_some());
        assert!(a
            .check_clock(SimTime::from_secs(1), SimTime::from_secs(1))
            .is_none());
        assert!(a
            .check_clock(SimTime::from_secs(1), SimTime::from_secs(2))
            .is_none());
    }

    #[test]
    fn violations_render_readably() {
        let v = AuditViolation::Overload { resource: 3, load: 2.0, capacity: 1.0 };
        assert_eq!(v.to_string(), "resource 3 overloaded: 2 > 1");
        let v = AuditViolation::SolverDivergence { flow: 7, incremental: 2.0, full: 1.0 };
        assert_eq!(
            v.to_string(),
            "flow 7: incremental rate 2 diverges from full solve 1"
        );
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        /// Random problem: up to 8 resources, up to 12 flows (mirrors the
        /// solver's own property-test generator).
        fn arb_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
            let caps = prop::collection::vec(1.0e6..1.0e9f64, 1..8);
            caps.prop_flat_map(|caps| {
                let n = caps.len();
                let flow = (
                    0.1..10.0f64,
                    prop::option::of(1.0e5..2.0e9f64),
                    prop::collection::btree_set(0..n, 1..=n.min(4)),
                )
                    .prop_map(|(weight, cap, res)| FlowSpec {
                        weight,
                        cap,
                        resources: res.into_iter().collect(),
                    });
                (Just(caps), prop::collection::vec(flow, 1..12))
            })
        }

        proptest! {
            #[test]
            fn solver_output_always_passes_audit((caps, flows) in arb_problem()) {
                let a = solve(&caps, &flows);
                let v = MaxMinAudit::default().check(&caps, &flows, &a);
                prop_assert!(v.is_empty(), "{v:?}");
            }

            #[test]
            fn audit_catches_injected_overload((caps, flows) in arb_problem()) {
                // Perturb a valid allocation: doubling the largest finite
                // rate must trip at least one invariant (overload, cap
                // exceeded, unequal shares, or residual mismatch).
                let mut a = solve(&caps, &flows);
                let victim = a
                    .rates
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.is_finite() && **r > 0.0)
                    .max_by(|x, y| x.1.total_cmp(y.1))
                    .map(|(i, _)| i);
                if let Some(i) = victim {
                    a.rates[i] *= 2.0;
                    let v = MaxMinAudit::default().check(&caps, &flows, &a);
                    prop_assert!(!v.is_empty(), "doubling rate {i} went unnoticed");
                }
            }
        }
    }
}
