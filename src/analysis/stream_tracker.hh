/**
 * @file
 * Decomposition of a predictor run into per-(branch, counter)
 * substreams — the s_ij streams of the paper's Section 4.
 *
 * Every dynamic conditional branch is served by one direction
 * counter; the tracker accumulates, for each (static branch i,
 * counter j) pair, the stream length |s_ij|, its taken count, and
 * its mispredictions. Everything in Figures 5-8 and Tables 3-4
 * derives from these streams.
 */

#ifndef BPSIM_ANALYSIS_STREAM_TRACKER_HH
#define BPSIM_ANALYSIS_STREAM_TRACKER_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "analysis/bias_class.hh"

namespace bpsim
{

/** Identity of one substream s_ij: (static branch pc, serving
 *  counter id), compared exactly. */
struct StreamKey
{
    std::uint64_t pc = 0;
    std::uint64_t counterId = 0;

    bool operator==(const StreamKey &) const = default;
};

/**
 * Hash of a StreamKey: (pc << 24) ^ counterId. Counter ids of 2^24
 * and up make distinct pairs share a value, which costs a lookup a
 * probe, not a merged stream, since keys compare exactly. The value
 * fixes each stream's bucket and with it StreamTracker's iteration
 * order, which Table 3 prints tied streams in: changing it changes
 * that output.
 */
struct StreamKeyHash
{
    std::size_t
    operator()(const StreamKey &key) const noexcept
    {
        return static_cast<std::size_t>((key.pc << 24) ^ key.counterId);
    }
};

/**
 * Accumulated statistics of one substream s_ij, identified by its
 * StreamKey base. The counts are mutable: StreamTracker keeps its
 * streams in a set keyed on the base alone and accumulates in place.
 */
struct StreamStats : StreamKey
{
    mutable std::uint64_t count = 0;
    mutable std::uint64_t takenCount = 0;
    mutable std::uint64_t mispredictions = 0;

    /** Bias class at the given threshold. */
    BiasClass
    biasClass(double threshold = 0.9) const
    {
        return classifyStream(takenCount, count, threshold);
    }
};

/** Accumulates s_ij streams during a simulation. */
class StreamTracker
{
  public:
    StreamTracker() = default;

    /** Records one dynamic branch served by @p counterId. */
    void
    observe(std::uint64_t pc, std::uint64_t counterId, bool taken,
            bool mispredicted)
    {
        const StreamStats &s =
            *streams.insert(StreamStats{{pc, counterId}}).first;
        ++s.count;
        if (taken)
            ++s.takenCount;
        if (mispredicted)
            ++s.mispredictions;
        ++total;
    }

    /** Number of distinct substreams seen. */
    std::size_t streamCount() const { return streams.size(); }

    /** Total dynamic branches observed. */
    std::uint64_t totalObservations() const { return total; }

    /** The stream for (pc, counterId), or nullptr if never seen. */
    const StreamStats *find(std::uint64_t pc,
                            std::uint64_t counterId) const;

    /** All streams (unordered). */
    std::vector<const StreamStats *> allStreams() const;

    /** Streams incident on one counter. */
    std::vector<const StreamStats *>
    streamsOfCounter(std::uint64_t counterId) const;

  private:
    /** A set, not a map from StreamKey: the map's copy of the key
     *  grew each node by a third and slowed the analyses by ~18%. */
    std::unordered_set<StreamStats, StreamKeyHash, std::equal_to<StreamKey>>
        streams;
    std::uint64_t total = 0;
};

} // namespace bpsim

#endif // BPSIM_ANALYSIS_STREAM_TRACKER_HH
