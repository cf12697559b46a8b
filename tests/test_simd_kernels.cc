/**
 * @file
 * Bit-equivalence suite for the runtime-dispatched SIMD kernel pairs
 * (core/simd_kernels.hh): the scalar and AVX2 sets must agree
 * bit-for-bit — values via EXPECT_EQ on doubles or on their bit
 * patterns — across H = 1..16, including array
 * lengths that are not multiples of the 4-double AVX2 lane width, so
 * every tail path runs. A straight-line reference implementation
 * inside the test pins the scalar set itself, so a bug cannot hide in
 * both sets at once. Runs under ASan/UBSan in CI like every other
 * differential suite.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/simd_kernels.hh"

using namespace hypar;
using core::simd::avx2Available;
using core::simd::avx2Kernels;
using core::simd::Kernels;
using core::simd::scalarKernels;

namespace {

/** Deterministic positive table entries, cost-like magnitudes. */
std::vector<double>
randomTable(std::mt19937_64 &rng, std::size_t n)
{
    std::uniform_real_distribution<double> dist(0.0, 1e9);
    std::vector<double> out(n);
    for (double &v : out)
        v = dist(rng);
    return out;
}

std::vector<std::uint8_t>
popcountTable(std::size_t n)
{
    std::vector<std::uint8_t> pcnt(n);
    for (std::size_t i = 0; i < n; ++i)
        pcnt[i] = static_cast<std::uint8_t>(
            std::popcount(static_cast<std::uint32_t>(i)));
    return pcnt;
}

/** The sizes every kernel test sweeps: all powers of two up to 2^16
 * (the real engines' shapes) plus non-multiple-of-4 lengths that
 * exercise the vector tails. */
std::vector<std::size_t>
testSizes()
{
    std::vector<std::size_t> sizes{1, 2, 3, 5, 6, 7, 9, 13, 31, 100, 1001};
    for (std::size_t h = 1; h <= 16; ++h)
        sizes.push_back(std::size_t{1} << h);
    return sizes;
}

} // namespace

TEST(SimdKernels, ActiveSetIsWellFormed)
{
    const Kernels &k = core::simd::activeKernels();
    EXPECT_NE(k.name, nullptr);
    EXPECT_NE(k.expandLevel, nullptr);
    EXPECT_NE(k.relaxRow, nullptr);
}

TEST(SimdKernels, ExpandLevelMatchesReferenceAndAvx2)
{
    std::mt19937_64 rng(20260808);
    for (std::size_t levels = 1; levels <= 16; ++levels) {
        const std::size_t states = std::size_t{1} << levels;
        const auto pcnt = popcountTable(states);
        // One full expansion cascade, exactly like the engines run it:
        // level h doubles the populated prefix from 2^h to 2^(h+1).
        const auto rows = randomTable(rng, levels * 2 * (levels + 1));
        std::vector<double> ref(states), scl(states), vec(states);
        ref[0] = scl[0] = vec[0] = 0.0;
        for (std::size_t h = 0; h < levels; ++h) {
            const std::size_t half = std::size_t{1} << h;
            const double *row0 = &rows[(h * 2 + 0) * (levels + 1)];
            const double *row1 = &rows[(h * 2 + 1) * (levels + 1)];
            // Straight-line reference.
            for (std::size_t i = half; i-- > 0;) {
                const unsigned a =
                    static_cast<unsigned>(h) - pcnt[i];
                const double acc = ref[i];
                ref[i] = acc + row0[a];
                ref[i + half] = acc + row1[a];
            }
            scalarKernels().expandLevel(scl.data(), half, row0, row1,
                                        pcnt.data(),
                                        static_cast<unsigned>(h));
            if (avx2Available())
                avx2Kernels().expandLevel(vec.data(), half, row0, row1,
                                          pcnt.data(),
                                          static_cast<unsigned>(h));
        }
        for (std::size_t s = 0; s < states; ++s) {
            EXPECT_EQ(ref[s], scl[s]) << "H=" << levels << " s=" << s;
            if (avx2Available())
                EXPECT_EQ(ref[s], vec[s])
                    << "H=" << levels << " s=" << s;
        }
    }
}

TEST(SimdKernels, RelaxRowMatchesAndKeepsIncumbentOnTies)
{
    std::mt19937_64 rng(40429);
    for (const std::size_t n : testSizes()) {
        auto trans = randomTable(rng, n);
        auto best_ref = randomTable(rng, n);
        // Exact ties at a vector lane and at the tail, made visible in
        // the stored bits: an incumbent -0.0 against a candidate sum of
        // +0.0, and an incumbent NaN, must both survive in both sets.
        const double cost_p = 1234.5;
        if (n >= 8) {
            trans[2] = -cost_p;
            best_ref[2] = -0.0;
            trans[n - 1] = -cost_p;
            best_ref[n - 1] = -0.0;
            best_ref[3] = std::numeric_limits<double>::quiet_NaN();
            best_ref[n - 2] = std::numeric_limits<double>::quiet_NaN();
        }
        auto best_s = best_ref;
        auto best_v = best_ref;

        for (std::size_t s = 0; s < n; ++s) {
            const double c = cost_p + trans[s];
            if (c < best_ref[s])
                best_ref[s] = c;
        }
        scalarKernels().relaxRow(best_s.data(), trans.data(), cost_p, n);
        if (avx2Available())
            avx2Kernels().relaxRow(best_v.data(), trans.data(), cost_p, n);
        for (std::size_t s = 0; s < n; ++s) {
            const auto bits = [](double v) {
                return std::bit_cast<std::uint64_t>(v);
            };
            EXPECT_EQ(bits(best_ref[s]), bits(best_s[s]))
                << "n=" << n << " s=" << s;
            if (avx2Available())
                EXPECT_EQ(bits(best_ref[s]), bits(best_v[s]))
                    << "n=" << n << " s=" << s;
        }
        if (n >= 8) {
            EXPECT_TRUE(std::signbit(best_s[2])) << "n=" << n;
            EXPECT_TRUE(std::isnan(best_s[3])) << "n=" << n;
        }
    }
}
