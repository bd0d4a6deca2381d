#include "analysis/bias_analysis.hh"

#include "analysis/counter_replay.hh"
#include "util/logging.hh"

namespace bpsim
{

BiasAnalysis::BiasAnalysis(BranchPredictor &predictor, TraceReader &trace,
                           double threshold)
    : predictor(predictor), trace(trace), threshold(threshold)
{
    if (!visitFastPredictor(predictor, [](auto &) {}))
        BPSIM_FATAL("bias analysis requires a predictor whose fast core "
                    "reports direction counters ("
                    << predictor.name() << " exposes none)");
}

void
BiasAnalysis::run()
{
    if (ran)
        return;

    simResult = *replayCounters(
        predictor, trace,
        [&](std::uint64_t pc, bool taken, std::uint64_t counter,
            bool mispredicted) {
            tracker.observe(pc, counter, taken, mispredicted);
        });
    ran = true;
}

void
BiasAnalysis::ensureRan() const
{
    if (!ran)
        BPSIM_PANIC("BiasAnalysis accessed before run()");
}

CounterProfile
BiasAnalysis::counterProfile() const
{
    ensureRan();
    return buildCounterProfile(tracker, predictor.directionCounters(),
                               threshold);
}

MispredictionBreakdown
BiasAnalysis::breakdown() const
{
    ensureRan();
    MispredictionBreakdown breakdown;
    if (simResult.branches == 0)
        return breakdown;
    std::uint64_t st = 0, snt = 0, wb = 0;
    for (const StreamStats *stream : tracker.allStreams()) {
        switch (stream->biasClass(threshold)) {
          case BiasClass::StronglyTaken:
            st += stream->mispredictions;
            break;
          case BiasClass::StronglyNotTaken:
            snt += stream->mispredictions;
            break;
          case BiasClass::WeaklyBiased:
            wb += stream->mispredictions;
            break;
        }
    }
    const double total = static_cast<double>(simResult.branches);
    breakdown.stPercent = 100.0 * static_cast<double>(st) / total;
    breakdown.sntPercent = 100.0 * static_cast<double>(snt) / total;
    breakdown.wbPercent = 100.0 * static_cast<double>(wb) / total;
    return breakdown;
}

TransitionCounts
BiasAnalysis::countTransitions()
{
    ensureRan();

    // The role of a class at a counter depends on the counter's
    // dominant class; precompute it per counter.
    const std::uint64_t num_counters = predictor.directionCounters();
    std::vector<BiasClass> dominant(
        static_cast<std::size_t>(num_counters), BiasClass::StronglyTaken);
    {
        std::vector<std::uint64_t> st(static_cast<std::size_t>(num_counters),
                                      0);
        std::vector<std::uint64_t> snt(
            static_cast<std::size_t>(num_counters), 0);
        for (const StreamStats *stream : tracker.allStreams()) {
            const auto c = static_cast<std::size_t>(stream->counterId);
            switch (stream->biasClass(threshold)) {
              case BiasClass::StronglyTaken:
                st[c] += stream->count;
                break;
              case BiasClass::StronglyNotTaken:
                snt[c] += stream->count;
                break;
              case BiasClass::WeaklyBiased:
                break;
            }
        }
        for (std::size_t c = 0; c < dominant.size(); ++c) {
            dominant[c] = snt[c] > st[c] ? BiasClass::StronglyNotTaken
                                         : BiasClass::StronglyTaken;
        }
    }

    enum class Role : std::uint8_t { Dominant, NonDominant, Weak, None };
    std::vector<Role> last(static_cast<std::size_t>(num_counters),
                           Role::None);

    auto role_of = [&](BiasClass cls, std::size_t counter) {
        if (cls == BiasClass::WeaklyBiased)
            return Role::Weak;
        return cls == dominant[counter] ? Role::Dominant
                                        : Role::NonDominant;
    };

    // Replay pass: the predictors are deterministic, so a reset +
    // replay reproduces the exact counter assignment sequence.
    TransitionCounts counts;
    auto observe = [&](std::uint64_t pc, bool, std::uint64_t counter,
                       bool) {
        const StreamStats *stream = tracker.find(pc, counter);
        if (!stream)
            BPSIM_PANIC("replay diverged: unseen stream for pc 0x"
                        << std::hex << pc);
        const auto c = static_cast<std::size_t>(counter);
        const Role role = role_of(stream->biasClass(threshold), c);
        if (last[c] != Role::None && last[c] != role) {
            // A run of last[c]'s class at this counter was broken.
            switch (last[c]) {
              case Role::Dominant: ++counts.dominant; break;
              case Role::NonDominant: ++counts.nonDominant; break;
              case Role::Weak: ++counts.weak; break;
              case Role::None: break;
            }
        }
        last[c] = role;
    };
    replayCounters(predictor, trace, observe);
    return counts;
}

} // namespace bpsim
