/**
 * @file
 * NEON backend: 4 lanes per step.
 *
 * AArch64 only (src/sim/CMakeLists.txt), where NEON is architectural
 * — no runtime check needed beyond the tier machinery. NEON has no
 * gather instruction, so gathers are emulated with per-lane scalar
 * loads; the lane axis still pays for itself through the branchless
 * vector counter/history math.
 */

#include "sim/simd/simd_bank.hh"

#if defined(BPSIM_HAVE_NEON)

#include <arm_neon.h>

#include "sim/simd/simd_kernel.hh"

namespace bpsim
{

namespace detail
{

namespace
{

struct NeonBackend
{
    using V = uint32x4_t;
    static constexpr std::size_t kLanes = 4;

    static V load(const std::uint32_t *p) { return vld1q_u32(p); }
    static void store(std::uint32_t *p, V v) { vst1q_u32(p, v); }
    static V bcast(std::uint32_t x) { return vdupq_n_u32(x); }
    static V zero() { return vdupq_n_u32(0); }
    static V and_(V a, V b) { return vandq_u32(a, b); }
    static V or_(V a, V b) { return vorrq_u32(a, b); }
    static V xor_(V a, V b) { return veorq_u32(a, b); }
    static V add(V a, V b) { return vaddq_u32(a, b); }
    static V sub(V a, V b) { return vsubq_u32(a, b); }
    static V sll1(V a) { return vshlq_n_u32(a, 1); }
    static V
    sllv(V a, V n)
    {
        return vshlq_u32(a, vreinterpretq_s32_u32(n));
    }
    /** vshl with a negated count is NEON's right shift. */
    static V
    srlv(V a, V n)
    {
        return vshlq_u32(a, vnegq_s32(vreinterpretq_s32_u32(n)));
    }
    /** ~a & b (vbic computes b & ~a). */
    static V andnot(V a, V b) { return vbicq_u32(b, a); }
    /** Signed compare like the x86 backends; counter values are
     *  small positives, so the signedness never matters. */
    static V
    cmpgt(V a, V b)
    {
        return vcgtq_s32(vreinterpretq_s32_u32(a),
                         vreinterpretq_s32_u32(b));
    }
    static V cmpeq(V a, V b) { return vceqq_u32(a, b); }
    static V mullo(V a, V b) { return vmulq_u32(a, b); }
    /** High 32 bits of the unsigned 32x32 product: widening multiply
     *  per half, then narrow each 64-bit product by 32. */
    static V
    mulhi(V a, V b)
    {
        const uint64x2_t lo =
            vmull_u32(vget_low_u32(a), vget_low_u32(b));
        const uint64x2_t hi =
            vmull_u32(vget_high_u32(a), vget_high_u32(b));
        return vcombine_u32(vshrn_n_u64(lo, 32), vshrn_n_u64(hi, 32));
    }
    /** m ? b : a (bitwise select; m is all-ones per lane). */
    static V blend(V a, V b, V m) { return vbslq_u32(m, b, a); }
    static V
    gather32(const std::uint32_t *base, V off)
    {
        alignas(16) std::uint32_t o[4];
        vst1q_u32(o, off);
        const std::uint32_t r[4] = {base[o[0]], base[o[1]], base[o[2]],
                                    base[o[3]]};
        return vld1q_u32(r);
    }
    /** Scalar-emulated scatter over the active lanes. */
    static void
    scatter32(std::uint32_t *base, V off, V val, std::size_t active)
    {
        alignas(16) std::uint32_t o[4];
        alignas(16) std::uint32_t v[4];
        vst1q_u32(o, off);
        vst1q_u32(v, val);
        for (std::size_t k = 0; k < active; ++k)
            base[o[k]] = v[k];
    }
};

} // namespace

void
simdBankReplayNeon(SimdBankState &state, const std::uint64_t *pcs,
                   const std::uint64_t *words, std::size_t total,
                   std::size_t warmup)
{
    dispatchSimdBankKernel<NeonBackend>(state, pcs, words, total, warmup);
}

} // namespace detail

} // namespace bpsim

#endif // BPSIM_HAVE_NEON
