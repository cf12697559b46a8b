/**
 * @file
 * Bit helpers over a layer's *level vector*: bit h of `v` is the
 * layer's choice at hierarchy level h (set = mp, clear = dp), and the
 * communication model scales level h's tensors by the dp/mp counts of
 * the levels above it (bits 0..h-1). Shared by the joint search, the
 * series-parallel search and the simulator, so all of them read a
 * level vector the same way.
 */

#ifndef HYPAR_CORE_LEVEL_BITS_HH
#define HYPAR_CORE_LEVEL_BITS_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/plan.hh"

namespace hypar::core {

/** mp count among the bits of `v` strictly below level h. */
inline unsigned
mpAbove(std::uint32_t v, std::size_t h)
{
    const auto mask =
        static_cast<std::uint32_t>((std::uint64_t{1} << h) - 1u);
    return static_cast<unsigned>(std::popcount(v & mask));
}

/** dp count among the bits of `v` strictly below level h. */
inline unsigned
dpAbove(std::uint32_t v, std::size_t h)
{
    return static_cast<unsigned>(h) - mpAbove(v, h);
}

/** The choice bit h of `v` encodes. */
inline Parallelism
choiceAt(std::uint32_t v, std::size_t h)
{
    return (v >> h) & 1u ? Parallelism::kModel : Parallelism::kData;
}

} // namespace hypar::core

#endif // HYPAR_CORE_LEVEL_BITS_HH
