/**
 * @file
 * Kernel implementations. See simd_kernels.hh for the bit-identity
 * contract; every AVX2 body mirrors its scalar twin addition-for-
 * addition and comparison-for-comparison.
 */

#include "simd_kernels.hh"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define HYPAR_SIMD_X86 1
#include <immintrin.h>
#else
#define HYPAR_SIMD_X86 0
#endif

namespace hypar::core::simd {

namespace {

// ---------------------------------------------------------------- scalar

void
expandLevelScalar(double *trans, std::size_t half, const double *row0,
                  const double *row1, const std::uint8_t *pcnt,
                  unsigned h)
{
    for (std::size_t i = 0; i < half; ++i) {
        const unsigned a = h - pcnt[i];
        const double acc = trans[i];
        trans[i] = acc + row0[a];
        trans[i + half] = acc + row1[a];
    }
}

void
relaxRowScalar(double *best, const double *trans, double cost_p,
               std::size_t n)
{
    for (std::size_t s = 0; s < n; ++s) {
        const double c = cost_p + trans[s];
        if (c < best[s])
            best[s] = c;
    }
}

constexpr Kernels kScalar{"scalar", expandLevelScalar, relaxRowScalar};

// ----------------------------------------------------------------- avx2

#if HYPAR_SIMD_X86

__attribute__((target("avx2"))) void
expandLevelAvx2(double *trans, std::size_t half, const double *row0,
                const double *row1, const std::uint8_t *pcnt, unsigned h)
{
    const __m128i vh = _mm_set1_epi32(static_cast<int>(h));
    std::size_t i = 0;
    for (; i + 4 <= half; i += 4) {
        // a[j] = h - pcnt[i + j]; the rows are tiny (<= H + 1 doubles,
        // L1-resident), so the pair of gathers stays cheap.
        std::uint32_t packed;
        std::memcpy(&packed, pcnt + i, sizeof packed);
        const __m128i pc = _mm_cvtepu8_epi32(
            _mm_cvtsi32_si128(static_cast<int>(packed)));
        const __m128i a = _mm_sub_epi32(vh, pc);
        const __m256d acc = _mm256_loadu_pd(trans + i);
        // Fully-masked gather form: identical result to the plain
        // gather, but with a defined pass-through operand (the plain
        // intrinsic expands to an undefined one, which trips
        // -Wmaybe-uninitialized under gcc).
        const __m256d all =
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        const __m256d zero = _mm256_setzero_pd();
        const __m256d r0 =
            _mm256_mask_i32gather_pd(zero, row0, a, all, 8);
        const __m256d r1 =
            _mm256_mask_i32gather_pd(zero, row1, a, all, 8);
        _mm256_storeu_pd(trans + i, _mm256_add_pd(acc, r0));
        _mm256_storeu_pd(trans + i + half, _mm256_add_pd(acc, r1));
    }
    for (; i < half; ++i) {
        const unsigned a = h - pcnt[i];
        const double acc = trans[i];
        trans[i] = acc + row0[a];
        trans[i + half] = acc + row1[a];
    }
}

__attribute__((target("avx2"))) void
relaxRowAvx2(double *best, const double *trans, double cost_p,
             std::size_t n)
{
    const __m256d vc = _mm256_set1_pd(cost_p);
    std::size_t s = 0;
    for (; s + 4 <= n; s += 4) {
        // min_pd(c, b) is `c < b ? c : b` lane by lane: the scalar
        // strict-< update, NaN and signed-zero cases included.
        const __m256d c = _mm256_add_pd(vc, _mm256_loadu_pd(trans + s));
        const __m256d b = _mm256_loadu_pd(best + s);
        _mm256_storeu_pd(best + s, _mm256_min_pd(c, b));
    }
    for (; s < n; ++s) {
        const double c = cost_p + trans[s];
        if (c < best[s])
            best[s] = c;
    }
}

constexpr Kernels kAvx2{"avx2", expandLevelAvx2, relaxRowAvx2};

#endif // HYPAR_SIMD_X86

} // namespace

const Kernels &
scalarKernels()
{
    return kScalar;
}

bool
avx2Available()
{
#if HYPAR_SIMD_X86
    static const bool ok = __builtin_cpu_supports("avx2") != 0;
    return ok;
#else
    return false;
#endif
}

const Kernels &
avx2Kernels()
{
#if HYPAR_SIMD_X86
    return kAvx2;
#else
    return kScalar; // never selected; keeps the symbol total
#endif
}

const Kernels &
activeKernels()
{
    // HYPAR_SIMD=scalar|avx2 pins the set — the lever for engine-level
    // before/after bench rows and for forcing the portable path on a
    // machine whose AVX2 is suspect. Unset (the normal case) means
    // best-available. avx2 without hardware support falls back to
    // scalar rather than faulting.
    static const Kernels &chosen = [&]() -> const Kernels & {
        const char *force = std::getenv("HYPAR_SIMD");
        if (force != nullptr && std::strcmp(force, "scalar") == 0)
            return scalarKernels();
        if (force != nullptr && std::strcmp(force, "avx2") == 0)
            return avx2Available() ? avx2Kernels() : scalarKernels();
        return avx2Available() ? avx2Kernels() : scalarKernels();
    }();
    return chosen;
}

} // namespace hypar::core::simd
