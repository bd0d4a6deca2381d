/**
 * @file
 * The perceptron branch predictor (Jiménez & Lin, HPCA 2001).
 *
 * Included as the concrete realization of the paper's §5 future-work
 * direction "find a cost-effective way to reduce the weakly biased
 * substreams": a perceptron weighs each global-history bit
 * independently, so it can learn linearly separable correlations
 * with far longer histories than a PHT of 2-bit counters can afford,
 * and is naturally resistant to the aliasing the bi-mode predictor
 * attacks (weights from uncorrelated branches average out instead of
 * flipping a counter).
 *
 * Implementation follows the original: a pc-indexed table of signed
 * weight vectors (8-bit by default), prediction = sign(w0 + sum
 * wi * xi) with xi = +/-1 from history bit i, trained on
 * mispredictions or when |output| <= theta, theta = 1.93h + 14.
 *
 * The fast core steps one weight row per branch. Rows are int16,
 * padded with zero weights to a multiple of 32 entries (64 B, one
 * cache line each) and 64-B aligned. On x86-64 the row step is
 * inline SSE2, the architecture's baseline, so no dispatch is
 * needed: the inputs expand to +1/-1/0 int16 lanes (0 in the
 * padding), y is a sum of pmaddwd products, and training is a
 * saturating add of +/-x clamped to the weight range. Both stay
 * exact at 16-bit weights, where a plain int16 add or negate would
 * wrap. Without SSE2, or with BPSIM_DISABLE_SIMD, the same step is
 * a scalar loop. The build exports that choice to every user of the
 * library, so all of them inline the same body.
 */

#ifndef BPSIM_PREDICTORS_PERCEPTRON_HH
#define BPSIM_PREDICTORS_PERCEPTRON_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "util/aligned.hh"

#if defined(__SSE2__) && !defined(BPSIM_DISABLE_SIMD)
#include <emmintrin.h>
#define BPSIM_PERCEPTRON_SSE2 1
#endif

namespace bpsim
{

/** Perceptron predictor configuration. */
struct PerceptronConfig
{
    /** log2 of the perceptron table size. */
    unsigned tableIndexBits = 8;
    /** Global history length == weights per perceptron (plus bias). */
    unsigned historyBits = 24;
    /** Weight width in bits (8 in the original). */
    unsigned weightBits = 8;
};

/** Table-of-perceptrons global-history predictor. */
class PerceptronPredictor
    : public FastPredictorBase<PerceptronPredictor>
{
  public:
    explicit PerceptronPredictor(const PerceptronConfig &config);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;

    /** Each perceptron counts as one "direction counter"; stepFast()
     *  reports the one that served. */
    std::uint64_t directionCounters() const override;

    /** The perceptron serving @p pc. */
    std::size_t
    indexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            pcIndexBits(pc, cfg.tableIndexBits));
    }

    /** Raw output y for @p pc under the current history (for tests
     *  and confidence studies; prediction is y >= 0). */
    std::int32_t
    outputFor(std::uint64_t pc) const
    {
        return dot(weights.data() + indexFor(pc) * stride);
    }

    /** Perceptron @p p's h + 1 live weights, bias first, for tests
     *  that diff or preset the table. Writers keep every weight
     *  within the configured width. */
    std::span<std::int16_t>
    weightRow(std::size_t p)
    {
        return {weights.data() + p * stride, history.bits() + 1u};
    }

    /** Devirtualized hot path: the direction of predict(). */
    bool predictFast(std::uint64_t pc) const { return outputFor(pc) >= 0; }

    /** Devirtualized hot path: the state transition of update(). */
    void updateFast(std::uint64_t pc, bool taken) { stepFast(pc, taken); }

    /** Fused hot path: computes y once, trains the row on it and
     *  shifts the history; bit-identical to predictFast() then
     *  updateFast(). Reports the serving perceptron to @p hook. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        const std::size_t index = indexFor(pc);
        hook.counter(index);
        const bool prediction =
            stepRow(weights.data() + index * stride, taken);
        history.push(taken);
        return prediction;
    }

  private:
    /** Most 8-weight vectors one row step reads (h = 63: 64
     *  inputs). */
    static constexpr unsigned kMaxChunks = 8;

    /** Inputs that are +1: bit 0 is the bias input, bit j the
     *  history bit j - 1; every other input in [0, h] is -1. */
    std::uint64_t
    positiveInputs() const
    {
        return (history.value() << 1) | 1;
    }

    /** y for @p row, one weight at a time. */
    std::int32_t
    dot(const std::int16_t *row) const
    {
        const std::uint64_t positive = positiveInputs();
        std::int32_t y = 0;
        for (unsigned j = 0; j <= history.bits(); ++j)
            y += (positive >> j) & 1 ? row[j] : -row[j];
        return y;
    }

    bool
    train(std::int32_t y, bool taken) const
    {
        return (y >= 0) != taken || std::abs(y) <= threshold;
    }

#ifdef BPSIM_PERCEPTRON_SSE2
    /** -1 in every int16 lane of @p bits whose bit of @p lane is
     *  set, else 0. */
    static __m128i
    laneMask(__m128i bits, __m128i lane)
    {
        return _mm_cmpeq_epi16(_mm_and_si128(bits, lane), lane);
    }

    bool
    stepRow(std::int16_t *row, bool taken)
    {
        // x_j = +1, -1 or 0 (padding) per int16 lane. Each 16-bit
        // slice of the +1 and -1 input masks is broadcast, and a lane
        // takes its own bit of it: vectors c and c+1 read the low and
        // high byte of one slice.
        const __m128i low = _mm_setr_epi16(1, 2, 4, 8, 16, 32, 64, 128);
        const __m128i high = _mm_slli_epi16(low, 8);
        const std::uint64_t positive = positiveInputs();
        const std::uint64_t negative = inputMask ^ positive;
        auto *vectors = reinterpret_cast<__m128i *>(row);
        __m128i x[kMaxChunks];
        __m128i sum = _mm_setzero_si128();
        for (unsigned c = 0; c < chunks; c += 2) {
            const __m128i pos = _mm_set1_epi16(
                static_cast<short>(positive >> (8 * c)));
            const __m128i neg = _mm_set1_epi16(
                static_cast<short>(negative >> (8 * c)));
            x[c] = _mm_sub_epi16(laneMask(neg, low), laneMask(pos, low));
            x[c + 1] =
                _mm_sub_epi16(laneMask(neg, high), laneMask(pos, high));
            sum = _mm_add_epi32(
                sum, _mm_madd_epi16(_mm_load_si128(vectors + c), x[c]));
            sum = _mm_add_epi32(
                sum, _mm_madd_epi16(_mm_load_si128(vectors + c + 1),
                                    x[c + 1]));
        }
        sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0x4e));
        sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0xb1));
        const std::int32_t y = _mm_cvtsi128_si32(sum);
        if (train(y, taken)) {
            // w += taken ? x : -x; (x ^ flip) - flip negates x when
            // flip is all ones.
            const __m128i flip = _mm_set1_epi16(taken ? 0 : -1);
            const __m128i lowest =
                _mm_set1_epi16(static_cast<short>(weightMin));
            const __m128i highest =
                _mm_set1_epi16(static_cast<short>(weightMax));
            for (unsigned c = 0; c < chunks; ++c) {
                const __m128i step =
                    _mm_sub_epi16(_mm_xor_si128(x[c], flip), flip);
                const __m128i w =
                    _mm_adds_epi16(_mm_load_si128(vectors + c), step);
                _mm_store_si128(
                    vectors + c,
                    _mm_min_epi16(_mm_max_epi16(w, lowest), highest));
            }
        }
        return y >= 0;
    }
#else
    bool
    stepRow(std::int16_t *row, bool taken)
    {
        const std::int32_t y = dot(row);
        if (train(y, taken)) {
            const std::uint64_t positive = positiveInputs();
            for (unsigned j = 0; j <= history.bits(); ++j) {
                const bool agrees = (((positive >> j) & 1) != 0) == taken;
                row[j] = static_cast<std::int16_t>(
                    std::clamp(row[j] + (agrees ? 1 : -1), weightMin,
                               weightMax));
            }
        }
        return y >= 0;
    }
#endif

    PerceptronConfig cfg;
    HistoryRegister history;
    std::int32_t threshold;
    std::int32_t weightMax;
    std::int32_t weightMin;
    /** Weights per row: h + 1 rounded up to a multiple of 32. */
    std::size_t stride;
    /** 8-weight vectors holding the h + 1 live weights, rounded up
     *  to an even count (the row step reads them in pairs). */
    unsigned chunks;
    /** One bit per live input: bits [0, h]. */
    std::uint64_t inputMask;
    /** Row-major: perceptron p's h + 1 weights start at p * stride,
     *  bias weight first; the rest of each row is zero padding. */
    std::vector<std::int16_t, AlignedAllocator<std::int16_t, 64>> weights;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_PERCEPTRON_HH
