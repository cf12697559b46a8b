/**
 * @file
 * Algorithm 2 of the paper: "Hierarchical Partition".
 *
 * The array of 2^H accelerators is split recursively: Algorithm 1
 * partitions the workload between two subarrays, then each subarray is
 * partitioned the same way with the upper-level choices recorded, until
 * single accelerators remain. Total communication follows the paper's
 * recursion com = com_h + 2 * com_n (level h has 2^h independent group
 * pairs). Because both subarrays of a level share the same upper-level
 * history, the recursion visits a single path, making the whole search
 * O(H * L).
 */

#ifndef HYPAR_CORE_HIERARCHICAL_PARTITIONER_HH
#define HYPAR_CORE_HIERARCHICAL_PARTITIONER_HH

#include "core/comm_model.hh"
#include "core/pairwise_partitioner.hh"
#include "core/plan.hh"

namespace hypar::core {

/**
 * Per-search diagnostics of the joint search (OptimalPartitioner).
 *
 * `expanded` counts (layer, state) DP nodes the search computed and
 * kept as live predecessors for the next layer. `pruned` counts the
 * nodes the A* bound `g + h > incumbent` proved useless; the
 * exhaustive reference DP skips nothing, so its pruned count is
 * genuinely zero. `widthUsed` is the per-layer frontier the search
 * actually worked with: the largest per-layer live set for A*, the
 * full 2^H for the reference DP.
 * `HierarchicalResult::transitionsEvaluated` is A*'s whole work bill,
 * its incumbent beam pass included, and the reference's 4^H * (L-1).
 *
 * `certifiedExact` is a machine-checked optimality certificate: true
 * only when the search *proved* its plan is the exact joint optimum —
 * bit-identical, cost and plan, to the exhaustive DP. The joint search
 * always certifies (see optimal_partitioner.hh for the admissibility
 * argument). False means "no certificate", not "wrong": searches that
 * don't certify (greedy Algorithm 2) leave the default-constructed
 * value in place.
 *
 * All four fields are deterministic for a given model and depth —
 * independent of thread count — so tests can assert on them.
 */
struct SearchStats
{
    std::uint64_t expanded = 0; //!< DP nodes computed and kept
    std::uint64_t pruned = 0;   //!< DP nodes eliminated by the bound
    bool certifiedExact = false; //!< proven equal to the exhaustive DP
    std::size_t widthUsed = 0;   //!< per-layer frontier actually used
};

/** Result of the hierarchical search. */
struct HierarchicalResult
{
    HierarchicalPlan plan;
    /** Total communication, com = sum_h 2^h * com_h, in bytes. */
    double commBytes = 0.0;
    /**
     * Transition relaxations the search evaluated — one candidate
     * cost[p] + trans(p -> s) considered by the joint DP (all
     * 4^H * (L-1) of them for partitionReference). 0 for searches that
     * don't count (greedy Algorithm 2).
     * Deterministic for a given model and depth, so tests can assert
     * how much work the A* search actually skipped.
     */
    std::uint64_t transitionsEvaluated = 0;
    /** Node-level search diagnostics + optimality certificate. */
    SearchStats stats;
};

/**
 * The HyPar search: stack Algorithm 1 over H hierarchy levels.
 * H == 0 yields an empty plan with zero communication (one accelerator).
 */
class HierarchicalPartitioner
{
  public:
    explicit HierarchicalPartitioner(const CommModel &model);

    /** Run Algorithm 2 for `levels` hierarchy levels (2^levels accs). */
    HierarchicalResult partition(std::size_t levels) const;

  private:
    /**
     * The paper's literal recursion; `hist` carries upper choices and
     * `out` collects one LevelPlan per level. Returns com_h + 2*com_n.
     */
    double partitionRecursive(std::size_t levels, History &hist,
                              std::vector<LevelPlan> &out) const;

    const CommModel *model_;
    PairwisePartitioner pairwise_;
};

} // namespace hypar::core

#endif // HYPAR_CORE_HIERARCHICAL_PARTITIONER_HH
