#include "analysis/stream_tracker.hh"

namespace bpsim
{

const StreamStats *
StreamTracker::find(std::uint64_t pc, std::uint64_t counterId) const
{
    const auto it = streams.find(StreamStats{{pc, counterId}});
    return it == streams.end() ? nullptr : &*it;
}

std::vector<const StreamStats *>
StreamTracker::allStreams() const
{
    std::vector<const StreamStats *> result;
    result.reserve(streams.size());
    for (const StreamStats &stats : streams)
        result.push_back(&stats);
    return result;
}

std::vector<const StreamStats *>
StreamTracker::streamsOfCounter(std::uint64_t counterId) const
{
    std::vector<const StreamStats *> result;
    for (const StreamStats &stats : streams) {
        if (stats.counterId == counterId)
            result.push_back(&stats);
    }
    return result;
}

} // namespace bpsim
