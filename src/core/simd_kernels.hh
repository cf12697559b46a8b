/**
 * @file
 * Runtime-dispatched scalar/AVX2 kernel pairs for the partition
 * searches' contiguous inner loops.
 *
 * Two loop shapes dominate the A* search's table passes: the
 * level-bit expansion that materializes all 2^H per-state sums from
 * per-level row pairs (the beam's transition rows, the intra table
 * and the suffix bound's sums), and the incumbent beam pass's
 * elementwise relax of one predecessor into a best row. Both
 * are branch-light float loops over contiguous tables — prime AVX2
 * targets — while the A* predecessor scan stays scalar on purpose:
 * its candidate walk is data-dependent and gathers from state-indexed
 * tables, where Skylake-class gather throughput makes a vector
 * version break-even at best (measured; see bench_partitioner_micro).
 *
 * Bit-identity by construction: every vector kernel performs exactly
 * the additions and exactly the comparisons of its scalar twin — same
 * operands, same association order, same strict-< selection — so the
 * results are bit-identical, not merely close. test_simd_kernels pins
 * scalar-vs-AVX2 bit-equivalence across H = 1..16 including
 * non-multiple-of-lane tails, and runs under ASan/UBSan in CI.
 */

#ifndef HYPAR_CORE_SIMD_KERNELS_HH
#define HYPAR_CORE_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace hypar::core::simd {

/**
 * One dispatchable kernel set. All pointers are non-null; `name` is
 * "scalar" or "avx2" for logs and bench rows.
 */
struct Kernels {
    const char *name;

    /**
     * One level-bit expansion step: for i in [0, half),
     *
     *   a            = h - popcount(i)   (given as pcnt[i])
     *   trans[i+half] = trans[i] + row1[a]
     *   trans[i]      = trans[i] + row0[a]
     *
     * `row0`/`row1` are the factored-table rows for target bit 0/1 at
     * level h (each h+1 entries, so a <= h keeps reads in range).
     */
    void (*expandLevel)(double *trans, std::size_t half,
                        const double *row0, const double *row1,
                        const std::uint8_t *pcnt, unsigned h);

    /**
     * Elementwise relax of one predecessor into a best row: for s in
     * [0, n), when cost_p + trans[s] < best[s], set
     * best[s] = cost_p + trans[s].
     */
    void (*relaxRow)(double *best, const double *trans, double cost_p,
                     std::size_t n);
};

/** The portable reference set; always valid. */
const Kernels &scalarKernels();

/** True when the CPU executes AVX2 (checked once, cached). */
bool avx2Available();

/**
 * The AVX2 set. Valid to *call* only when avx2Available(); always
 * valid to take (test code compares the two sets directly).
 */
const Kernels &avx2Kernels();

/** avx2Kernels() when supported, scalarKernels() otherwise. */
const Kernels &activeKernels();

} // namespace hypar::core::simd

#endif // HYPAR_CORE_SIMD_KERNELS_HH
