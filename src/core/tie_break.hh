/**
 * @file
 * The one deterministic tie-breaking rule shared by every partition
 * search in this library.
 *
 * Rule: strictly lower communication wins; on an *exact* cost tie the
 * dp-heavier candidate wins, where "dp-heavier" means the numerically
 * smaller state index / layer mask (bit set = mp). Since state 0 is
 * all-dp and bit h of a state is the mp choice at level h, preferring
 * the smaller index prefers dp at the highest differing position.
 *
 * Rationale: dp-dp transitions are free in the model (Table 2), so dp
 * is the safer default among equals, and a total order over (cost,
 * index) makes every search — DP argmin, best-first expansion,
 * exhaustive scan — return the same plan no matter the visit order or
 * thread count. Searches that already visit candidates in ascending
 * index order may keep a bare strict `<` comparison; it implements this
 * rule. Searches with any other visit order must use better().
 */

#ifndef HYPAR_CORE_TIE_BREAK_HH
#define HYPAR_CORE_TIE_BREAK_HH

#include <cstdint>

namespace hypar::core {

/**
 * True when candidate (cost, index) beats the incumbent under the
 * library-wide rule: lower cost first, then lower index on exact ties.
 */
constexpr bool
better(double cand_cost, std::uint64_t cand_index, double best_cost,
       std::uint64_t best_index)
{
    if (cand_cost != best_cost)
        return cand_cost < best_cost;
    return cand_index < best_index;
}

} // namespace hypar::core

#endif // HYPAR_CORE_TIE_BREAK_HH
