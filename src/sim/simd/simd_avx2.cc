/**
 * @file
 * AVX2 backend: 8 lanes per step, counters gathered with vpgatherdd.
 *
 * Compiled with -mavx2 in this TU only (src/sim/CMakeLists.txt);
 * nothing here may be called without a runtime CPU check
 * (kernel_tier.cc does it).
 */

#include "sim/simd/simd_bank.hh"

#if defined(BPSIM_HAVE_AVX2)

#include <immintrin.h>

#include "sim/simd/simd_kernel.hh"

namespace bpsim
{

namespace detail
{

namespace
{

struct Avx2Backend
{
    using V = __m256i;
    static constexpr std::size_t kLanes = 8;

    static V
    load(const std::uint32_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(std::uint32_t *p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static V
    bcast(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<int>(x));
    }
    static V zero() { return _mm256_setzero_si256(); }
    static V and_(V a, V b) { return _mm256_and_si256(a, b); }
    static V or_(V a, V b) { return _mm256_or_si256(a, b); }
    static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
    static V add(V a, V b) { return _mm256_add_epi32(a, b); }
    static V sub(V a, V b) { return _mm256_sub_epi32(a, b); }
    static V sll1(V a) { return _mm256_slli_epi32(a, 1); }
    static V sllv(V a, V n) { return _mm256_sllv_epi32(a, n); }
    static V srlv(V a, V n) { return _mm256_srlv_epi32(a, n); }
    /** ~a & b. */
    static V andnot(V a, V b) { return _mm256_andnot_si256(a, b); }
    static V cmpgt(V a, V b) { return _mm256_cmpgt_epi32(a, b); }
    static V cmpeq(V a, V b) { return _mm256_cmpeq_epi32(a, b); }
    static V mullo(V a, V b) { return _mm256_mullo_epi32(a, b); }
    /** High 32 bits of the unsigned 32x32 product. vpmuludq covers
     *  the even lanes; the odd lanes are shifted down and multiplied
     *  the same way, then the two 64-bit halves recombine. */
    static V
    mulhi(V a, V b)
    {
        const V even = _mm256_mul_epu32(a, b);
        const V odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32),
                                       _mm256_srli_epi64(b, 32));
        return _mm256_or_si256(
            _mm256_srli_epi64(even, 32),
            _mm256_and_si256(
                odd, _mm256_set1_epi64x(
                         static_cast<long long>(0xFFFFFFFF00000000ULL))));
    }
    /** m ? b : a; cmpgt masks are all-ones per 32-bit lane, so the
     *  byte-granular blend is exact. */
    static V blend(V a, V b, V m) { return _mm256_blendv_epi8(a, b, m); }
    static V
    gather32(const std::uint32_t *base, V off)
    {
        return _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(base), off, 4);
    }
    /** AVX2 has no scatter; extract and store the active lanes
     *  scalar-wise. */
    static void
    scatter32(std::uint32_t *base, V off, V val, std::size_t active)
    {
        alignas(32) std::uint32_t o[kLanes];
        alignas(32) std::uint32_t v[kLanes];
        store(o, off);
        store(v, val);
        for (std::size_t k = 0; k < active; ++k)
            base[o[k]] = v[k];
    }
};

} // namespace

void
simdBankReplayAvx2(SimdBankState &state, const std::uint64_t *pcs,
                   const std::uint64_t *words, std::size_t total,
                   std::size_t warmup)
{
    dispatchSimdBankKernel<Avx2Backend>(state, pcs, words, total, warmup);
}

} // namespace detail

} // namespace bpsim

#endif // BPSIM_HAVE_AVX2
