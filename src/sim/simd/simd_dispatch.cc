/**
 * @file
 * Tier dispatch for the vectorized bank kernel.
 *
 * This TU is compiled with the generic flags; the per-ISA entry
 * points it forwards to live in their own TUs behind BPSIM_HAVE_*
 * (src/sim/CMakeLists.txt), so no target-specific instruction can
 * leak into a binary that merely links the dispatcher.
 */

#include "sim/simd/simd_bank.hh"

namespace bpsim
{

bool
runSimdBank(SimdBankState &state, KernelTier tier,
            const std::uint64_t *pcs, const std::uint64_t *words,
            std::size_t total, std::size_t warmup)
{
    switch (tier) {
#if defined(BPSIM_HAVE_AVX512)
      case KernelTier::AVX512:
        detail::simdBankReplayAvx512(state, pcs, words, total, warmup);
        return true;
#endif
#if defined(BPSIM_HAVE_AVX2)
      case KernelTier::AVX2:
        detail::simdBankReplayAvx2(state, pcs, words, total, warmup);
        return true;
#endif
#if defined(BPSIM_HAVE_NEON)
      case KernelTier::NEON:
        detail::simdBankReplayNeon(state, pcs, words, total, warmup);
        return true;
#endif
      default:
        return false;
    }
}

} // namespace bpsim
