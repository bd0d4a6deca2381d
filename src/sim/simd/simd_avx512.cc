/**
 * @file
 * AVX-512F backend: 16 lanes per step.
 *
 * Compiled with -mavx512f in this TU only (src/sim/CMakeLists.txt);
 * nothing here may be called without a runtime CPU check
 * (kernel_tier.cc does it). Only the F subset is used — compares
 * materialize their k-masks back into vectors so the kernel body
 * stays the shared mask-vector formulation.
 */

#include "sim/simd/simd_bank.hh"

#if defined(BPSIM_HAVE_AVX512)

#include <immintrin.h>

#include "sim/simd/simd_kernel.hh"

namespace bpsim
{

namespace detail
{

namespace
{

struct Avx512Backend
{
    using V = __m512i;
    static constexpr std::size_t kLanes = 16;

    static V
    load(const std::uint32_t *p)
    {
        return _mm512_loadu_si512(p);
    }
    static void
    store(std::uint32_t *p, V v)
    {
        _mm512_storeu_si512(p, v);
    }
    static V
    bcast(std::uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<int>(x));
    }
    static V zero() { return _mm512_setzero_si512(); }
    static V and_(V a, V b) { return _mm512_and_si512(a, b); }
    static V or_(V a, V b) { return _mm512_or_si512(a, b); }
    static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
    static V add(V a, V b) { return _mm512_add_epi32(a, b); }
    static V sub(V a, V b) { return _mm512_sub_epi32(a, b); }
    static V sll1(V a) { return _mm512_slli_epi32(a, 1); }
    static V sllv(V a, V n) { return _mm512_sllv_epi32(a, n); }
    static V srlv(V a, V n) { return _mm512_srlv_epi32(a, n); }
    /** ~a & b. */
    static V andnot(V a, V b) { return _mm512_andnot_si512(a, b); }
    /** Materialize the k-mask as an all-ones vector mask to match
     *  the other backends' compare semantics. */
    static V
    cmpgt(V a, V b)
    {
        return _mm512_maskz_set1_epi32(_mm512_cmpgt_epi32_mask(a, b),
                                       -1);
    }
    static V
    cmpeq(V a, V b)
    {
        return _mm512_maskz_set1_epi32(_mm512_cmpeq_epi32_mask(a, b),
                                       -1);
    }
    static V mullo(V a, V b) { return _mm512_mullo_epi32(a, b); }
    /** High 32 bits of the unsigned 32x32 product, via the even/odd
     *  vpmuludq split (see the AVX2 backend). */
    static V
    mulhi(V a, V b)
    {
        const V even = _mm512_mul_epu32(a, b);
        const V odd = _mm512_mul_epu32(_mm512_srli_epi64(a, 32),
                                       _mm512_srli_epi64(b, 32));
        return _mm512_or_si512(
            _mm512_srli_epi64(even, 32),
            _mm512_and_si512(
                odd, _mm512_set1_epi64(
                         static_cast<long long>(0xFFFFFFFF00000000ULL))));
    }
    /** m ? b : a with a vector mask (m is all-ones per lane). */
    static V
    blend(V a, V b, V m)
    {
        return _mm512_or_si512(_mm512_and_si512(m, b),
                               _mm512_andnot_si512(m, a));
    }
    static V
    gather32(const std::uint32_t *base, V off)
    {
        return _mm512_i32gather_epi32(off, base, 4);
    }
    /** Native scatter, masked to the active lanes so padding lanes
     *  (replicas of lane 0) never write. Active lanes always carry
     *  disjoint offsets, but vpscatterdd would be safe regardless
     *  (overlapping stores land in lane order). */
    static void
    scatter32(std::uint32_t *base, V off, V val, std::size_t active)
    {
        const __mmask16 live = static_cast<__mmask16>(
            active >= kLanes ? 0xFFFFu : (1u << active) - 1);
        _mm512_mask_i32scatter_epi32(base, live, off, val, 4);
    }
};

} // namespace

void
simdBankReplayAvx512(SimdBankState &state, const std::uint64_t *pcs,
                     const std::uint64_t *words, std::size_t total,
                     std::size_t warmup)
{
    dispatchSimdBankKernel<Avx512Backend>(state, pcs, words, total, warmup);
}

} // namespace detail

} // namespace bpsim

#endif // BPSIM_HAVE_AVX512
