/**
 * @file
 * Exhaustive enumeration oracles.
 *
 * The paper motivates Algorithm 1 by the O(2^N) cost of enumerating all
 * per-layer assignments (Section 3.4). These enumerators implement that
 * brute force as independent test oracles: each visits every
 * assignment in ascending mask order and rescores it from scratch
 * through CommModel::pairBytes, sharing no table, bound or scan with
 * the search engines they check. sweepLevelMasks is the plan-level
 * counterpart: Evaluator::sweepNeighborhood falls back to it on DAG
 * networks, and tests check the incremental chain sweep against it.
 */

#ifndef HYPAR_CORE_BRUTE_FORCE_HH
#define HYPAR_CORE_BRUTE_FORCE_HH

#include <cstdint>
#include <functional>

#include "core/comm_model.hh"
#include "core/pairwise_partitioner.hh"
#include "core/plan.hh"

namespace hypar::core {

/** Result of the exhaustive hierarchical search. */
struct BruteForceResult
{
    HierarchicalPlan plan;
    double commBytes = 0.0;
};

/**
 * Enumerate all 2^L single-level assignments under `hist` and return the
 * cheapest (ties resolved toward the smaller mask, i.e. dp-heavy — the
 * shared rule of core/tie_break.hh). One full pairBytes rescore per
 * mask. Fatal for L > 24 — this is a validation tool, not a search
 * engine.
 */
PairwiseResult bruteForcePairwise(const CommModel &model,
                                  const History &hist);

/**
 * Enumerate all (2^L)^H hierarchical plans and return the cheapest by
 * total communication — the oracle for the joint (OptimalPartitioner)
 * search. A naive recursion, level 0 outermost, with one full
 * pairBytes rescore per level plan; ties keep the first optimum met,
 * i.e. the smallest concatenated level-mask key (core/tie_break.hh).
 * pairBytes is DAG-aware, so the oracle covers DAG networks too.
 * Fatal when L*H > 24.
 */
BruteForceResult bruteForceHierarchical(const CommModel &model,
                                        std::size_t levels);

/**
 * Visit every plan produced by substituting all 2^(layers) masks at the
 * given hierarchy level of `base`. The visitor receives the mask and the substituted plan. Masks are
 * visited in ascending order; the plan is patched in place between
 * visits, so no allocation happens per mask.
 */
void sweepLevelMasks(
    const HierarchicalPlan &base, std::size_t level,
    const std::function<void(std::uint64_t, const HierarchicalPlan &)>
        &visit);

} // namespace hypar::core

#endif // HYPAR_CORE_BRUTE_FORCE_HH
