#include "analysis/interference.hh"

#include "analysis/counter_replay.hh"
#include "analysis/stream_tracker.hh"
#include "predictors/counter.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace bpsim
{

double
InterferenceStats::aliasedPercent() const
{
    return percent(aliasedLookups(), totalLookups());
}

double
InterferenceStats::destructivePercent() const
{
    return percent(destructive, totalLookups());
}

double
InterferenceStats::constructivePercent() const
{
    return percent(constructive, totalLookups());
}

double
InterferenceStats::neutralPercent() const
{
    return percent(neutral, totalLookups());
}

InterferenceStats
measureInterference(BranchPredictor &predictor, TraceReader &trace)
{
    // Who wrote each counter last (0 = nobody yet).
    std::unordered_map<std::uint64_t, std::uint64_t> last_writer;
    // Interference-free shadow counters per (branch, counter) pair,
    // packed values of 2-bit counters starting weakly-taken.
    std::unordered_map<StreamKey, std::uint8_t, StreamKeyHash> shadow;
    const std::uint8_t shadow_init = SaturatingCounter::weaklyTaken(2);

    InterferenceStats stats;
    const bool fast = replayCounters(
        predictor, trace,
        [&](std::uint64_t pc, bool taken, std::uint64_t counter,
            bool mispredicted) {
            // The shared counter's prediction, recovered from the
            // outcome and whether the kernel saw it miss.
            const bool shared_prediction = taken != mispredicted;
            auto [it, inserted] =
                shadow.emplace(StreamKey{pc, counter}, shadow_init);
            std::uint8_t &private_counter = it->second;
            const bool private_prediction = private_counter > 1;

            auto writer_it = last_writer.find(counter);
            const bool aliased = writer_it != last_writer.end() &&
                                 writer_it->second != pc;
            if (!aliased) {
                ++stats.unaliasedLookups;
            } else if (shared_prediction == private_prediction) {
                ++stats.neutral;
            } else if (!mispredicted) {
                // The intruder's training flipped this lookup onto
                // the right answer.
                ++stats.constructive;
            } else {
                ++stats.destructive;
            }

            // Train the shadow with this branch's outcome only.
            if (taken) {
                if (private_counter < 3)
                    ++private_counter;
            } else {
                if (private_counter > 0)
                    --private_counter;
            }
            last_writer[counter] = pc;
        }).has_value();
    if (!fast)
        BPSIM_FATAL("interference analysis requires a predictor whose "
                    "fast core reports direction counters ("
                    << predictor.name() << " exposes none)");
    return stats;
}

} // namespace bpsim
