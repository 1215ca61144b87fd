//! Utility-equalization solvers: divide a fluid CPU budget among entities
//! so that the *minimum* utility is maximized — which, for strictly
//! increasing curves, equalizes utility across all entities that are not
//! saturated at their demand cap.
//!
//! Two solvers are provided:
//!
//! * [`equalize_bisection`] — exact: bisection on the common utility level
//!   `u*`, exploiting that aggregate demand `Σᵢ cpuᵢ(u)` is monotone in `u`.
//! * [`equalize_weighted`] — the same bisection on an importance-scaled
//!   shortfall level, for service differentiation.
//!
//! The paper's own description — *"the algorithm operates by continuously
//! stealing resources \[from\] the more satisfied applications to later be
//! given to the less satisfied applications"* — survives as a test-only
//! oracle (repeated pairwise donor→receiver transfers); the tests assert
//! that it and [`equalize_bisection`] agree up to tolerance.

use crate::entity::UtilityOfCpu;
use serde::{Deserialize, Serialize};
use slaq_types::{fcmp, CpuMhz, EntityId};

/// One entity competing for CPU: an id plus its utility-of-CPU curve.
pub struct EqEntity<'a> {
    /// Stable identity used in the result.
    pub id: EntityId,
    /// The entity's utility curve.
    pub curve: &'a dyn UtilityOfCpu,
}

impl<'a> EqEntity<'a> {
    /// Convenience constructor.
    pub fn new(id: impl Into<EntityId>, curve: &'a dyn UtilityOfCpu) -> Self {
        EqEntity {
            id: id.into(),
            curve,
        }
    }
}

/// Per-entity outcome of an equalization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityAllocation {
    /// The entity.
    pub id: EntityId,
    /// CPU power granted.
    pub cpu: CpuMhz,
    /// Utility at that allocation.
    pub utility: f64,
}

/// Result of an equalization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EqualizedAllocation {
    /// Per-entity allocations, in input order.
    pub allocations: Vec<EntityAllocation>,
    /// The max–min water level `u*`: every entity either attains utility
    /// ≥ `u* − tol` or is saturated at its demand cap (its maximum utility
    /// being below `u*`).
    pub common_utility: f64,
    /// Σ of granted CPU.
    pub total_allocated: CpuMhz,
    /// Budget left after every entity saturated (zero while any entity can
    /// still improve).
    pub surplus: CpuMhz,
    /// Iterations used by the solver (bisection steps).
    pub iterations: usize,
}

impl EqualizedAllocation {
    /// Allocation for one entity, if present.
    pub fn cpu_of(&self, id: impl Into<EntityId>) -> Option<CpuMhz> {
        let id = id.into();
        self.allocations.iter().find(|a| a.id == id).map(|a| a.cpu)
    }

    /// Minimum utility across entities (`+∞` when empty).
    pub fn min_utility(&self) -> f64 {
        self.allocations
            .iter()
            .map(|a| a.utility)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Tuning knobs for the solvers. The defaults resolve a 300 000 MHz cluster
/// to well under 1 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EqualizeOptions {
    /// Utility-level resolution for bisection termination.
    pub tol_utility: f64,
    /// CPU resolution: residual budget or headroom below it counts as zero.
    pub tol_cpu: f64,
    /// Upper bound on solver iterations (bisection steps).
    pub max_iters: usize,
}

impl Default for EqualizeOptions {
    fn default() -> Self {
        EqualizeOptions {
            tol_utility: 1e-9,
            tol_cpu: 1e-6,
            max_iters: 200,
        }
    }
}

/// CPU the entity needs to reach utility level `u`, honouring saturation:
/// entities whose maximum utility is below `u` contribute their full demand
/// cap (they cannot do better), entities already at `u` with zero CPU
/// contribute zero.
fn demand_at_level(e: &dyn UtilityOfCpu, u: f64) -> CpuMhz {
    if u <= e.utility_at_zero() {
        return CpuMhz::ZERO;
    }
    if u >= e.max_utility() {
        return e.max_useful_cpu();
    }
    e.cpu_for_utility(u).unwrap_or_else(|| e.max_useful_cpu())
}

/// Exact max–min equalization by bisection on the common utility level.
///
/// Invariants of the result (covered by property tests):
/// * `Σ cpuᵢ ≤ total (+ε)` and `0 ≤ cpuᵢ ≤ max_useful_cpuᵢ`;
/// * every entity with `utility < common_utility − tol` is saturated;
/// * `surplus > 0` only when **all** entities are saturated.
pub fn equalize_bisection(
    entities: &[EqEntity<'_>],
    total: CpuMhz,
    opts: &EqualizeOptions,
) -> EqualizedAllocation {
    let total = total.max_zero();
    if entities.is_empty() {
        return EqualizedAllocation {
            allocations: Vec::new(),
            common_utility: 0.0,
            total_allocated: CpuMhz::ZERO,
            surplus: total,
            iterations: 0,
        };
    }

    // If the budget covers everyone's full demand, saturate and return.
    let full_demand: CpuMhz = entities.iter().map(|e| e.curve.max_useful_cpu()).sum();
    if full_demand.as_f64() <= total.as_f64() + opts.tol_cpu {
        let allocations: Vec<EntityAllocation> = entities
            .iter()
            .map(|e| EntityAllocation {
                id: e.id,
                cpu: e.curve.max_useful_cpu(),
                utility: e.curve.max_utility(),
            })
            .collect();
        let common = allocations
            .iter()
            .map(|a| a.utility)
            .fold(f64::INFINITY, f64::min);
        return EqualizedAllocation {
            common_utility: common,
            total_allocated: full_demand,
            surplus: total.saturating_sub(full_demand),
            allocations,
            iterations: 0,
        };
    }

    // Bisection bounds on the water level.
    let mut lo = entities
        .iter()
        .map(|e| e.curve.utility_at_zero())
        .fold(f64::INFINITY, f64::min);
    let mut hi = entities
        .iter()
        .map(|e| e.curve.max_utility())
        .fold(f64::NEG_INFINITY, f64::max);
    debug_assert!(lo <= hi + 1e-12);

    let mut iterations = 0;
    while hi - lo > opts.tol_utility && iterations < opts.max_iters {
        let mid = 0.5 * (lo + hi);
        let need: CpuMhz = entities.iter().map(|e| demand_at_level(e.curve, mid)).sum();
        if need.as_f64() <= total.as_f64() {
            lo = mid;
        } else {
            hi = mid;
        }
        iterations += 1;
    }
    let level = lo;

    let mut allocations: Vec<EntityAllocation> = entities
        .iter()
        .map(|e| {
            let cpu = demand_at_level(e.curve, level);
            EntityAllocation {
                id: e.id,
                cpu,
                utility: e.curve.utility(cpu),
            }
        })
        .collect();

    // Feasibility polish: the chosen level satisfies Σ ≤ total by
    // construction (we kept `lo` feasible), but fp noise can leave a hair
    // of excess; trim it pro-rata from the largest grants.
    let mut granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
    if granted.as_f64() > total.as_f64() {
        let scale = total.as_f64() / granted.as_f64();
        for a in &mut allocations {
            a.cpu = a.cpu * scale;
        }
        granted = allocations.iter().map(|a| a.cpu).sum();
    }

    // Distribute any residual budget to unsaturated entities (raises the
    // minimum; keeps the result maximal, not just feasible). One pass in
    // utility order is enough at the bisection tolerance.
    //
    // Policy note: when the water level pins at a utility *floor* shared
    // by more entities than the budget can lift (a severely overloaded
    // pool), max–min is indifferent between them and this pass degenerates
    // into FIFO-greedy — the earliest entities in input order get
    // saturated first. Callers pass entities in submission order, so this
    // matches the natural "oldest jobs first" tie-break.
    let mut residual = total.saturating_sub(granted);
    if residual.as_f64() > opts.tol_cpu {
        let mut order: Vec<usize> = (0..allocations.len()).collect();
        order.sort_by(|&a, &b| fcmp(allocations[a].utility, allocations[b].utility));
        for idx in order {
            if residual.as_f64() <= opts.tol_cpu {
                break;
            }
            let cap = entities[idx].curve.max_useful_cpu();
            let room = cap.saturating_sub(allocations[idx].cpu);
            let grant = room.min(residual);
            if grant.as_f64() > 0.0 {
                allocations[idx].cpu += grant;
                residual -= grant;
            }
        }
        granted = allocations.iter().map(|a| a.cpu).sum();
    }

    for (a, e) in allocations.iter_mut().zip(entities) {
        a.utility = e.curve.utility(a.cpu);
    }

    // Surplus only counts when everyone is saturated.
    let all_saturated = allocations
        .iter()
        .zip(entities)
        .all(|(a, e)| a.cpu.as_f64() >= e.curve.max_useful_cpu().as_f64() - opts.tol_cpu);
    let surplus = if all_saturated {
        total.saturating_sub(granted)
    } else {
        CpuMhz::ZERO
    };

    EqualizedAllocation {
        common_utility: level,
        total_allocated: granted,
        surplus,
        allocations,
        iterations,
    }
}

/// Weighted (service-differentiated) equalization: minimize the maximum
/// **importance-scaled utility shortfall** `wᵢ · (u_maxᵢ − uᵢ)`.
///
/// At the common shortfall level `ℓ ≥ 0`, entity `i` targets utility
/// `u_maxᵢ − ℓ/wᵢ`: doubling an entity's weight halves how far below its
/// own optimum it is allowed to fall — "service differentiation based on
/// high-level performance goals" in the paper's words. With all weights
/// equal and equal `u_max`, this coincides with max–min equalization.
///
/// `weights` pairs each input entity (by index) with its importance
/// (> 0); missing/non-positive entries default to 1.0.
pub fn equalize_weighted(
    entities: &[EqEntity<'_>],
    weights: &[f64],
    total: CpuMhz,
    opts: &EqualizeOptions,
) -> EqualizedAllocation {
    let total = total.max_zero();
    if entities.is_empty() {
        return EqualizedAllocation {
            allocations: Vec::new(),
            common_utility: 0.0,
            total_allocated: CpuMhz::ZERO,
            surplus: total,
            iterations: 0,
        };
    }
    let weight = |i: usize| -> f64 {
        let w = weights.get(i).copied().unwrap_or(1.0);
        if w > 0.0 && w.is_finite() {
            w
        } else {
            1.0
        }
    };

    // Saturate-everyone fast path.
    let full_demand: CpuMhz = entities.iter().map(|e| e.curve.max_useful_cpu()).sum();
    if full_demand.as_f64() <= total.as_f64() + opts.tol_cpu {
        let allocations: Vec<EntityAllocation> = entities
            .iter()
            .map(|e| EntityAllocation {
                id: e.id,
                cpu: e.curve.max_useful_cpu(),
                utility: e.curve.max_utility(),
            })
            .collect();
        let common = allocations
            .iter()
            .map(|a| a.utility)
            .fold(f64::INFINITY, f64::min);
        return EqualizedAllocation {
            common_utility: common,
            total_allocated: full_demand,
            surplus: total.saturating_sub(full_demand),
            allocations,
            iterations: 0,
        };
    }

    // Bisection on the shortfall level ℓ: demand is non-increasing in ℓ.
    // ℓ_hi: large enough that every entity is at (or below) its zero-CPU
    // utility.
    let mut lo = 0.0f64;
    let mut hi = entities
        .iter()
        .enumerate()
        .map(|(i, e)| weight(i) * (e.curve.max_utility() - e.curve.utility_at_zero()))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let demand_at = |l: f64| -> CpuMhz {
        entities
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let target = e.curve.max_utility() - l / weight(i);
                demand_at_level(e.curve, target)
            })
            .sum()
    };
    let mut iterations = 0;
    while hi - lo > opts.tol_utility && iterations < opts.max_iters {
        let mid = 0.5 * (lo + hi);
        if demand_at(mid).as_f64() <= total.as_f64() {
            hi = mid; // feasible: try a smaller shortfall
        } else {
            lo = mid;
        }
        iterations += 1;
    }
    let level = hi;

    let mut allocations: Vec<EntityAllocation> = entities
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let target = e.curve.max_utility() - level / weight(i);
            let cpu = demand_at_level(e.curve, target);
            EntityAllocation {
                id: e.id,
                cpu,
                utility: e.curve.utility(cpu),
            }
        })
        .collect();
    let mut granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
    if granted.as_f64() > total.as_f64() {
        let scale = total.as_f64() / granted.as_f64();
        for a in &mut allocations {
            a.cpu = a.cpu * scale;
        }
    }
    // Residual to the largest weighted shortfall first.
    let mut residual = total.saturating_sub(allocations.iter().map(|a| a.cpu).sum());
    if residual.as_f64() > opts.tol_cpu {
        let mut order: Vec<usize> = (0..allocations.len()).collect();
        order.sort_by(|&a, &b| {
            let sa = weight(a) * (entities[a].curve.max_utility() - allocations[a].utility);
            let sb = weight(b) * (entities[b].curve.max_utility() - allocations[b].utility);
            fcmp(sb, sa)
        });
        for idx in order {
            if residual.as_f64() <= opts.tol_cpu {
                break;
            }
            let cap = entities[idx].curve.max_useful_cpu();
            let room = cap.saturating_sub(allocations[idx].cpu);
            let grant = room.min(residual);
            if grant.as_f64() > 0.0 {
                allocations[idx].cpu += grant;
                residual -= grant;
            }
        }
    }
    for (a, e) in allocations.iter_mut().zip(entities) {
        a.utility = e.curve.utility(a.cpu);
    }
    granted = allocations.iter().map(|a| a.cpu).sum();
    let all_saturated = allocations
        .iter()
        .zip(entities)
        .all(|(a, e)| a.cpu.as_f64() >= e.curve.max_useful_cpu().as_f64() - opts.tol_cpu);
    let common = allocations
        .iter()
        .map(|a| a.utility)
        .fold(f64::INFINITY, f64::min);
    EqualizedAllocation {
        common_utility: common,
        total_allocated: granted,
        surplus: if all_saturated {
            total.saturating_sub(granted)
        } else {
            CpuMhz::ZERO
        },
        allocations,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::CappedLinearUtility;
    use proptest::prelude::*;
    use slaq_types::{AppId, JobId};

    fn ent(u0: f64, u1: f64, cap: f64) -> CappedLinearUtility {
        CappedLinearUtility::new(u0, u1, CpuMhz::new(cap)).unwrap()
    }

    fn ids(n: usize) -> Vec<EntityId> {
        (0..n)
            .map(|i| EntityId::Job(JobId::new(i as u32)))
            .collect()
    }

    /// The paper's iterative scheme: repeatedly steal CPU from the most
    /// satisfied entity and hand it to the least satisfied one, sizing each
    /// transfer so the pair's utilities meet.
    ///
    /// Follows the published prose literally: every round is an O(n) scan
    /// that moves CPU between one pair, so it is far slower than
    /// [`equalize_bisection`]. Kept only as the oracle the agreement tests
    /// check bisection against.
    fn equalize_steal(
        entities: &[EqEntity<'_>],
        total: CpuMhz,
        opts: &EqualizeOptions,
    ) -> EqualizedAllocation {
        let total = total.max_zero();
        let n = entities.len();
        if n == 0 {
            return EqualizedAllocation {
                allocations: Vec::new(),
                common_utility: 0.0,
                total_allocated: CpuMhz::ZERO,
                surplus: total,
                iterations: 0,
            };
        }

        let caps: Vec<CpuMhz> = entities.iter().map(|e| e.curve.max_useful_cpu()).collect();
        let cap_sum: CpuMhz = caps.iter().sum();
        let budget = total.min(cap_sum);

        // Start proportional-to-cap: every entity gets a share of the budget
        // scaled by its demand cap (all-zero caps ⇒ all-zero start).
        let mut alloc: Vec<CpuMhz> = if cap_sum.is_zero() {
            vec![CpuMhz::ZERO; n]
        } else {
            caps.iter()
                .map(|c| *c * (budget.as_f64() / cap_sum.as_f64()))
                .collect()
        };

        let utility = |i: usize, a: &[CpuMhz]| entities[i].curve.utility(a[i]);

        let mut rounds = 0;
        while rounds < opts.max_iters {
            rounds += 1;

            // Most satisfied donor that actually holds CPU, least satisfied
            // receiver that can still absorb CPU.
            let mut donor: Option<usize> = None;
            let mut receiver: Option<usize> = None;
            for i in 0..n {
                let u = utility(i, &alloc);
                if alloc[i].as_f64() > opts.tol_cpu && donor.is_none_or(|d| u > utility(d, &alloc))
                {
                    donor = Some(i);
                }
                if caps[i].as_f64() - alloc[i].as_f64() > opts.tol_cpu
                    && receiver.is_none_or(|r| u < utility(r, &alloc))
                {
                    receiver = Some(i);
                }
            }
            let (Some(d), Some(r)) = (donor, receiver) else {
                break;
            };
            if d == r {
                break;
            }
            let (ud, ur) = (utility(d, &alloc), utility(r, &alloc));
            if ud - ur <= opts.tol_utility.max(1e-7) {
                break; // equalized
            }

            // Size the transfer by bisection so u_d(a_d−m) ≈ u_r(a_r+m).
            let m_max = alloc[d].min(caps[r].saturating_sub(alloc[r]));
            let mut m_lo = 0.0f64;
            let mut m_hi = m_max.as_f64();
            for _ in 0..50 {
                let m = 0.5 * (m_lo + m_hi);
                let u_d = entities[d].curve.utility(alloc[d] - CpuMhz::new(m));
                let u_r = entities[r].curve.utility(alloc[r] + CpuMhz::new(m));
                if u_d > u_r {
                    m_lo = m;
                } else {
                    m_hi = m;
                }
                if m_hi - m_lo < opts.tol_cpu {
                    break;
                }
            }
            let m = CpuMhz::new(0.5 * (m_lo + m_hi));
            if m.as_f64() <= opts.tol_cpu {
                break; // transfer too small to matter: numerically equalized
            }
            alloc[d] -= m;
            alloc[r] += m;
        }

        let allocations: Vec<EntityAllocation> = entities
            .iter()
            .enumerate()
            .map(|(i, e)| EntityAllocation {
                id: e.id,
                cpu: alloc[i].max_zero(),
                utility: e.curve.utility(alloc[i]),
            })
            .collect();
        let granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
        let all_saturated = allocations
            .iter()
            .zip(&caps)
            .all(|(a, c)| a.cpu.as_f64() >= c.as_f64() - opts.tol_cpu);
        let common = allocations
            .iter()
            .map(|a| a.utility)
            .fold(f64::INFINITY, f64::min);

        EqualizedAllocation {
            common_utility: common,
            total_allocated: granted,
            surplus: if all_saturated {
                total.saturating_sub(granted)
            } else {
                CpuMhz::ZERO
            },
            allocations,
            iterations: rounds,
        }
    }

    #[test]
    fn empty_input_returns_all_surplus() {
        let r = equalize_bisection(&[], CpuMhz::new(100.0), &EqualizeOptions::default());
        assert_eq!(r.surplus, CpuMhz::new(100.0));
        assert!(r.allocations.is_empty());
        let r = equalize_steal(&[], CpuMhz::new(100.0), &EqualizeOptions::default());
        assert_eq!(r.surplus, CpuMhz::new(100.0));
    }

    #[test]
    fn two_identical_entities_split_evenly() {
        let c = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_bisection(&es, CpuMhz::new(1000.0), &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.approx_eq(CpuMhz::new(500.0), 1e-3));
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(500.0), 1e-3));
        assert!((r.allocations[0].utility - 0.5).abs() < 1e-6);
        assert!((r.common_utility - 0.5).abs() < 1e-6);
        assert_eq!(r.surplus, CpuMhz::ZERO);
    }

    #[test]
    fn abundant_budget_saturates_everyone_with_surplus() {
        let a = ent(0.0, 1.0, 300.0);
        let b = ent(0.2, 0.9, 700.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &a), EqEntity::new(id[1], &b)];
        let r = equalize_bisection(&es, CpuMhz::new(5000.0), &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.approx_eq(CpuMhz::new(300.0), 1e-6));
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(700.0), 1e-6));
        assert!(r.surplus.approx_eq(CpuMhz::new(4000.0), 1e-6));
        // Common utility reported as the min of the saturated utilities.
        assert!((r.common_utility - 0.9).abs() < 1e-9);
    }

    #[test]
    fn unequal_curves_get_uneven_cpu_but_equal_utility() {
        // Entity A needs 4x the CPU of entity B for the same utility —
        // the Figure 2 vs Figure 1 phenomenon in miniature.
        let a = ent(0.0, 1.0, 4000.0);
        let b = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &a), EqEntity::new(id[1], &b)];
        let r = equalize_bisection(&es, CpuMhz::new(2500.0), &EqualizeOptions::default());
        let (ca, cb) = (r.allocations[0].cpu, r.allocations[1].cpu);
        assert!((r.allocations[0].utility - r.allocations[1].utility).abs() < 1e-6);
        assert!(ca.as_f64() / cb.as_f64() > 3.9 && ca.as_f64() / cb.as_f64() < 4.1);
        assert!((ca + cb).approx_eq(CpuMhz::new(2500.0), 1e-3));
    }

    #[test]
    fn saturated_entity_frees_cpu_for_the_rest() {
        // B saturates at u=0.4; A can keep climbing. Max-min should push A
        // beyond 0.4 once B is capped.
        let a = ent(0.0, 1.0, 1000.0);
        let b = ent(0.0, 0.4, 200.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &a), EqEntity::new(id[1], &b)];
        let r = equalize_bisection(&es, CpuMhz::new(800.0), &EqualizeOptions::default());
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(200.0), 1e-3));
        assert!(r.allocations[0].cpu.approx_eq(CpuMhz::new(600.0), 1e-3));
        assert!((r.allocations[0].utility - 0.6).abs() < 1e-6);
        assert_eq!(r.surplus, CpuMhz::ZERO);
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let a = ent(-0.5, 1.0, 1000.0);
        let id = ids(1);
        let es = vec![EqEntity::new(id[0], &a)];
        let r = equalize_bisection(&es, CpuMhz::ZERO, &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.is_zero());
        assert!((r.allocations[0].utility + 0.5).abs() < 1e-9);
    }

    #[test]
    fn flat_entities_consume_nothing() {
        let flat = ent(0.7, 0.7, 0.0);
        let hungry = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &flat), EqEntity::new(id[1], &hungry)];
        let r = equalize_bisection(&es, CpuMhz::new(1000.0), &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.is_zero());
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(1000.0), 1e-3));
        assert!(r.surplus.is_zero());
    }

    #[test]
    fn steal_matches_bisection_on_a_mixed_pool() {
        let curves = [
            ent(0.0, 1.0, 3000.0),
            ent(0.1, 0.9, 1000.0),
            ent(-0.3, 1.0, 6000.0),
            ent(0.0, 0.5, 500.0),
        ];
        let id = ids(curves.len());
        let es: Vec<EqEntity> = curves
            .iter()
            .enumerate()
            .map(|(i, c)| EqEntity::new(id[i], c))
            .collect();
        let opts = EqualizeOptions {
            max_iters: 10_000,
            ..Default::default()
        };
        let total = CpuMhz::new(4000.0);
        let rb = equalize_bisection(&es, total, &opts);
        let rs = equalize_steal(&es, total, &opts);
        for (b, s) in rb.allocations.iter().zip(&rs.allocations) {
            assert!(
                (b.utility - s.utility).abs() < 1e-3,
                "utility mismatch: bisection {} vs steal {}",
                b.utility,
                s.utility
            );
            assert!(
                b.cpu.approx_eq(s.cpu, total.as_f64() * 1e-3),
                "cpu mismatch: {} vs {}",
                b.cpu,
                s.cpu
            );
        }
    }

    /// The honesty rule's literal form: entities granted strictly between
    /// zero and their cap share one utility level to within `tol_utility`.
    #[test]
    #[ignore = "fails: the residual pass hands the leftover budget to one \
                entity, 56 × tol above the rest at 1000 entities (CHANGES.md FOUND)"]
    fn interior_utilities_lie_within_tol() {
        let curves: Vec<CappedLinearUtility> = (0..1000)
            .map(|i| {
                let cap = 500.0 + 2500.0 * ((i * 7919) % 100) as f64 / 100.0;
                ent((i % 5) as f64 * 0.05, 0.9 + (i % 3) as f64 * 0.05, cap)
            })
            .collect();
        let id = ids(curves.len());
        let es: Vec<EqEntity> = curves
            .iter()
            .enumerate()
            .map(|(i, c)| EqEntity::new(id[i], c))
            .collect();
        let budget = curves.iter().map(|c| c.cap.as_f64()).sum::<f64>() * 0.6;
        let opts = EqualizeOptions::default();
        let r = equalize_bisection(&es, CpuMhz::new(budget), &opts);
        let interior = r
            .allocations
            .iter()
            .zip(&curves)
            .filter(|(a, c)| a.cpu.as_f64() > 0.0 && a.cpu < c.cap)
            .map(|(a, _)| a.utility);
        let (lo, hi) = interior.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), u| {
            (lo.min(u), hi.max(u))
        });
        // A few ULPs of the level on top of the tolerance.
        let slack = 4.0 * f64::EPSILON * hi.abs();
        assert!(
            hi - lo <= opts.tol_utility + slack,
            "interior utilities span {lo}..{hi}, a gap of {} > tol {}",
            hi - lo,
            opts.tol_utility
        );
    }

    #[test]
    fn weighted_equalization_differentiates() {
        // Two identical entities, one twice as important: the heavy one
        // must end up with a smaller shortfall from its optimum.
        let c = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_weighted(
            &es,
            &[2.0, 1.0],
            CpuMhz::new(1000.0),
            &EqualizeOptions::default(),
        );
        let (u_gold, u_bronze) = (r.allocations[0].utility, r.allocations[1].utility);
        assert!(
            u_gold > u_bronze + 0.1,
            "gold {u_gold} vs bronze {u_bronze}"
        );
        // Weighted shortfalls are equal: 2·(1−u_g) = 1·(1−u_b).
        assert!(
            (2.0 * (1.0 - u_gold) - (1.0 - u_bronze)).abs() < 1e-3,
            "shortfalls: {} vs {}",
            2.0 * (1.0 - u_gold),
            1.0 - u_bronze
        );
        let total: f64 = r.allocations.iter().map(|a| a.cpu.as_f64()).sum();
        assert!((total - 1000.0).abs() < 1.0);
    }

    #[test]
    fn weighted_with_unit_weights_matches_unweighted_on_equal_maxima() {
        let curves = [ent(0.0, 1.0, 2000.0), ent(0.1, 1.0, 800.0)];
        let id = ids(2);
        let es: Vec<EqEntity> = curves
            .iter()
            .enumerate()
            .map(|(i, c)| EqEntity::new(id[i], c))
            .collect();
        let total = CpuMhz::new(1500.0);
        let opts = EqualizeOptions::default();
        let rw = equalize_weighted(&es, &[1.0, 1.0], total, &opts);
        let rb = equalize_bisection(&es, total, &opts);
        for (a, b) in rw.allocations.iter().zip(&rb.allocations) {
            assert!(
                (a.utility - b.utility).abs() < 1e-3,
                "weighted {} vs plain {}",
                a.utility,
                b.utility
            );
        }
    }

    #[test]
    fn weighted_abundant_budget_saturates_everyone() {
        let c = ent(0.0, 1.0, 500.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_weighted(
            &es,
            &[5.0, 1.0],
            CpuMhz::new(5000.0),
            &EqualizeOptions::default(),
        );
        assert!(r.surplus.approx_eq(CpuMhz::new(4000.0), 1e-6));
        assert!((r.allocations[1].utility - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_ignores_bogus_weights() {
        let c = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_weighted(
            &es,
            &[f64::NAN, -3.0],
            CpuMhz::new(1000.0),
            &EqualizeOptions::default(),
        );
        // Both default to weight 1: even split.
        assert!(r.allocations[0].cpu.approx_eq(r.allocations[1].cpu, 1.0));
    }

    #[test]
    fn cpu_of_looks_up_by_entity() {
        let a = ent(0.0, 1.0, 100.0);
        let es = vec![EqEntity::new(AppId::new(7), &a)];
        let r = equalize_bisection(&es, CpuMhz::new(50.0), &EqualizeOptions::default());
        assert!(r
            .cpu_of(AppId::new(7))
            .unwrap()
            .approx_eq(CpuMhz::new(50.0), 1e-6));
        assert!(r.cpu_of(AppId::new(8)).is_none());
        assert!(r.cpu_of(JobId::new(7)).is_none());
    }

    /// The controller reads each job's target by position: apps first,
    /// then jobs, exactly as the entities were passed in. Position `i`
    /// must hold entity `i`, and agree with the `cpu_of` search, under
    /// bisection (contended and saturate-everyone budgets) and weighted
    /// equalization alike.
    #[test]
    fn allocations_by_position_match_cpu_of() {
        let curves: Vec<CappedLinearUtility> = (0..9)
            .map(|i| {
                ent(
                    0.1 * (i % 3) as f64,
                    0.6 + 0.04 * i as f64,
                    300.0 + 170.0 * i as f64,
                )
            })
            .collect();
        let es: Vec<EqEntity<'_>> = curves
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let id = if i < 3 {
                    EntityId::App(AppId::new(i as u32 * 2))
                } else {
                    EntityId::Job(JobId::new(i as u32 * 3))
                };
                EqEntity::new(id, c)
            })
            .collect();
        let weights: Vec<f64> = (0..es.len()).map(|i| 1.0 + (i % 4) as f64).collect();
        let opts = EqualizeOptions::default();
        for total in [0.0, 1500.0, 4000.0, 1e6] {
            for r in [
                equalize_bisection(&es, CpuMhz::new(total), &opts),
                equalize_weighted(&es, &weights, CpuMhz::new(total), &opts),
            ] {
                assert_eq!(r.allocations.len(), es.len());
                for (a, e) in r.allocations.iter().zip(&es) {
                    assert_eq!(a.id, e.id);
                    assert_eq!(r.cpu_of(e.id), Some(a.cpu));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_bisection_respects_budget_and_caps(
            params in proptest::collection::vec(
                (0.0..0.5f64, 0.5..1.0f64, 10.0..5000.0f64), 1..12),
            total in 0.0..20_000.0f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let r = equalize_bisection(&es, CpuMhz::new(total), &EqualizeOptions::default());
            let sum: f64 = r.allocations.iter().map(|a| a.cpu.as_f64()).sum();
            prop_assert!(sum <= total + 1e-3, "granted {sum} > budget {total}");
            for (a, c) in r.allocations.iter().zip(&curves) {
                prop_assert!(a.cpu.as_f64() >= -1e-9);
                prop_assert!(a.cpu.as_f64() <= c.cap.as_f64() + 1e-3);
            }
        }

        #[test]
        fn prop_bisection_is_max_min_fair(
            params in proptest::collection::vec(
                (0.0..0.5f64, 0.5..1.0f64, 10.0..5000.0f64), 2..10),
            total in 100.0..10_000.0f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let r = equalize_bisection(&es, CpuMhz::new(total), &EqualizeOptions::default());
            // Max-min: any entity strictly below the water level must be
            // saturated at its cap.
            for (a, c) in r.allocations.iter().zip(&curves) {
                if a.utility < r.common_utility - 1e-6 {
                    prop_assert!(
                        a.cpu.as_f64() >= c.cap.as_f64() - 1e-3,
                        "entity below water level but not saturated"
                    );
                }
            }
        }

        #[test]
        fn prop_more_budget_never_hurts(
            params in proptest::collection::vec(
                (0.0..0.5f64, 0.5..1.0f64, 10.0..2000.0f64), 1..8),
            total in 0.0..5000.0f64,
            extra in 0.0..5000.0f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let opts = EqualizeOptions::default();
            let r1 = equalize_bisection(&es, CpuMhz::new(total), &opts);
            let r2 = equalize_bisection(&es, CpuMhz::new(total + extra), &opts);
            prop_assert!(r2.min_utility() >= r1.min_utility() - 1e-6);
        }

        #[test]
        fn prop_steal_agrees_with_bisection(
            params in proptest::collection::vec(
                (0.0..0.3f64, 0.6..1.0f64, 100.0..3000.0f64), 2..6),
            frac in 0.1..0.9f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let cap_sum: f64 = curves.iter().map(|c| c.cap.as_f64()).sum();
            let total = CpuMhz::new(cap_sum * frac);
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let opts = EqualizeOptions { max_iters: 20_000, ..Default::default() };
            let rb = equalize_bisection(&es, total, &opts);
            let rs = equalize_steal(&es, total, &opts);
            prop_assert!(
                (rb.min_utility() - rs.min_utility()).abs() < 5e-3,
                "min utility: bisection {} vs steal {}",
                rb.min_utility(), rs.min_utility()
            );
        }
    }
}
