/**
 * @file
 * Exact joint partitioner across all hierarchy levels — an extension
 * beyond the paper.
 *
 * Algorithm 2 is greedy across levels: it fixes level h's plan before
 * considering level h+1, even though the upper choice changes the
 * tensor amounts the lower levels see. The joint problem is still a
 * chain: give every layer a *level vector* v in {dp,mp}^H (bit h =
 * choice at level h). Then
 *
 *   total(v_0..v_{L-1}) = sum_l I(l, v_l)
 *                       + sum_l T(l, v_l, v_{l+1})
 *
 * where I and T expand over levels with the 2^h pair weighting and the
 * partitioned scaling derived from the vector's own prefix. That is a
 * standard chain DP over 2^H states per layer: O(L * 4^H) time — for
 * the paper's H = 4, a 256-state DP, exactly optimal.
 *
 * The search (partition()) is exact best-first A* over that chain.
 * It precomputes flat tables (intra[l][s] for all 2^H states, and the
 * inter cost factored per level into terms keyed by (level, choice
 * pair, producer dp counts), only O(H^3) entries per layer). A
 * backward pass over the factored inter tables precomputes an
 * admissible suffix bound h[l][s] <= the cheapest completion of
 * layers l..L-1 from state s; a narrow beam pass (the
 * kIncumbentBeamWidth best states of each layer by g + h, exhaustive
 * up to H = 6) supplies an incumbent upper bound; then a
 * layer-ordered expansion relaxes only states whose g + h does not
 * exceed the incumbent, scanning predecessors best-first and cutting
 * each scan with a per-target lower bound. The bound never prunes a
 * state on an optimal path (see "The admissible suffix bound" below),
 * so the plan is the exact optimum at every depth up to H = 16. At
 * H <= 2 the factored tables outweigh the 4^H transitions and
 * partition() runs partitionReference() instead.
 *
 * The per-state loops run on util::ThreadPool with fixed chunking (or
 * order-independent total-order argmins), so results are
 * bit-identical for every thread count, and bit-identical to
 * partitionReference(), the naive O(L * 4^H * H) DP kept as the
 * independent test oracle.
 *
 * ## The admissible suffix bound h[l][s]
 *
 * A* prunes with one heuristic table, built by suffixBound():
 *
 *   h[L-1][s] = 0
 *   h[l][s]   = max( lbOut(l, s) + m[l+1],  M[l],  C(l, s) )
 *
 *   lbOut(l, s) = sum_h min over target-side keys (s'_h, dpAbove(s',h))
 *                 of the factored inter term at s's own column — a
 *                 lower bound on trans(s -> s') for *every* successor
 *                 s', because each addend is the per-level row minimum
 *                 of the exact factored table and the sum runs in the
 *                 same level-ascending order as the real transition
 *                 sums (floating-point rounding is monotone, so
 *                 addend-wise domination survives the float sums).
 *   m[l+1]      = min_s'( intra[l+1][s'] + h[l+1][s'] )  — the cheapest
 *                 possible rest-of-chain from any successor.
 *   M[l]        = min_s'( lbIn(l, s') + intra[l+1][s'] + h[l+1][s'] )
 *                 where lbIn is the per-target row-min bound on any
 *                 transition into s'; a second valid lower bound (the
 *                 max of any set of admissible bounds is admissible).
 *   C(l, s)     = sum_h chain[l][h][s_h]: the joint cost decomposes
 *                 as a sum over levels, and for one level h the
 *                 per-layer dp/mp choices form a plain 2-state chain.
 *                 chain[l][h][bit] solves that chain *exactly*
 *                 backward over per-level costs relaxed over their
 *                 upper-level count arguments, so it lower-bounds the
 *                 level-h share of any completion whose layer-l bit
 *                 is s_h; summing the per-level minima bounds the
 *                 whole remaining cost (each level's true share >= its
 *                 chain value for the bit sequence the completion
 *                 actually takes).
 *
 * Admissibility (real arithmetic) is by construction: every addend
 * bounds the corresponding exact DP addend from below, layer by layer
 * (the bound is also *consistent*: h[l][s] <= trans(s,s') +
 * intra[l+1][s'] + h[l+1][s'] for every successor — lbOut <= trans
 * and m <= intra + h cover the first argument of the max, M[l] <=
 * lbIn + intra + h <= the expansion directly, and each per-level
 * chain obeys its own one-step recursion). Floating point
 * re-associates the
 * multi-layer sums, so comparisons against an incumbent C use the
 * inflated threshold C * (1 + kBoundSlack) with kBoundSlack = 1e-9:
 * the worst-case relative rounding drift of the <= 2L additions on any
 * root-to-leaf chain is ~2L * 2^-53 < 1e-14, five orders of magnitude
 * inside the slack, so a state is pruned only when its true float-semantics completion provably exceeds C.
 * Exact ties (g + h == C) are never pruned, which is what preserves
 * the shared tie-break rule and makes A* plans — not just costs —
 * bit-identical to the exhaustive DP.
 *
 * Used by the ablation harness to measure how much the greedy
 * hierarchical search leaves on the table (empirically: nothing for
 * most of the zoo, small single-digit percentages elsewhere).
 */

#ifndef HYPAR_CORE_OPTIMAL_PARTITIONER_HH
#define HYPAR_CORE_OPTIMAL_PARTITIONER_HH

#include <cstdint>
#include <vector>

#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/plan.hh"

namespace hypar::core {

/**
 * Options of the joint search. Empty today: the search has one exact
 * engine and no tunables, so every caller passes `{}` (or nothing).
 * A per-request budget would live here.
 */
struct SearchOptions
{};

/** Exact minimum-communication partitioner over all level vectors. */
class OptimalPartitioner
{
  public:
    /**
     * H <= 10 / H > 10 split of perfbench's per-layer
     * core.search_dense_ms and core.search_astar_ms rows. No library
     * code reads it: partition() runs the same search at every depth.
     */
    static constexpr std::size_t kDenseMaxLevels = 10;

    /** Depth ceiling of the search and of partitionReference(). */
    static constexpr std::size_t kMaxLevels = 16;

    /** Width of the internal beam pass that seeds the A* incumbent. */
    static constexpr std::size_t kIncumbentBeamWidth = 64;

    explicit OptimalPartitioner(const CommModel &model);

    /**
     * Exact optimal hierarchical plan for `levels` levels (the A*
     * search above; non-chain networks route to searchSeriesParallel).
     * Ties break toward the dp-heavier state (core/tie_break.hh).
     * Fatal for levels > 16.
     */
    HierarchicalResult partition(std::size_t levels,
                                 const SearchOptions &options = {}) const;

    /**
     * The pre-optimization DP: per-transition intraCost/interCost
     * calls, serial, O(L * 4^H * H). Bit-identical results to
     * partition(); kept as the independent test oracle and benchmark
     * baseline. Evaluates all 4^H * (L-1) transitions. Fatal for
     * levels > 16.
     */
    HierarchicalResult partitionReference(std::size_t levels) const;

    /**
     * Total communication of a single layer under level vector `v`
     * (bit h set = mp at level h), including the 2^h pair weighting.
     * Exposed for tests.
     */
    double intraCost(std::size_t layer, std::uint32_t v,
                     std::size_t levels) const;

    /** Total inter-layer cost of the l -> l+1 transition. */
    double interCost(std::size_t layer, std::uint32_t v_l,
                     std::uint32_t v_next, std::size_t levels) const;

  private:
    HierarchicalResult partitionAStar(std::size_t levels) const;

    /** Flat intra[l * 2^levels + s] table, filled on the pool. */
    std::vector<double> intraTable(std::size_t levels) const;

    const CommModel *model_;
};

} // namespace hypar::core

#endif // HYPAR_CORE_OPTIMAL_PARTITIONER_HH
