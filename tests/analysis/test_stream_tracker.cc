/** @file Tests for the s_ij substream tracker. */

#include <gtest/gtest.h>

#include "analysis/stream_tracker.hh"

namespace bpsim
{
namespace
{

TEST(StreamTracker, AccumulatesOneStream)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 5, true, false);
    tracker.observe(0x1000, 5, true, true);
    tracker.observe(0x1000, 5, false, false);
    ASSERT_EQ(tracker.streamCount(), 1u);
    const StreamStats *stream = tracker.find(0x1000, 5);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->count, 3u);
    EXPECT_EQ(stream->takenCount, 2u);
    EXPECT_EQ(stream->mispredictions, 1u);
    EXPECT_EQ(stream->pc, 0x1000u);
    EXPECT_EQ(stream->counterId, 5u);
}

TEST(StreamTracker, SeparatesByCounter)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 5, true, false);
    tracker.observe(0x1000, 6, false, false);
    EXPECT_EQ(tracker.streamCount(), 2u);
    EXPECT_EQ(tracker.find(0x1000, 5)->takenCount, 1u);
    EXPECT_EQ(tracker.find(0x1000, 6)->takenCount, 0u);
}

TEST(StreamTracker, SeparatesByBranch)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 5, true, false);
    tracker.observe(0x2000, 5, true, false);
    EXPECT_EQ(tracker.streamCount(), 2u);
}

TEST(StreamTracker, FindMissReturnsNull)
{
    StreamTracker tracker;
    EXPECT_EQ(tracker.find(0x1000, 5), nullptr);
}

TEST(StreamTracker, TotalObservations)
{
    StreamTracker tracker;
    for (int i = 0; i < 7; ++i)
        tracker.observe(0x1000 + 8 * (i % 3), i % 4, true, false);
    EXPECT_EQ(tracker.totalObservations(), 7u);
}

TEST(StreamTracker, AllStreamsReturnsEverything)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 1, true, false);
    tracker.observe(0x2000, 2, false, false);
    tracker.observe(0x3000, 1, true, true);
    const auto streams = tracker.allStreams();
    EXPECT_EQ(streams.size(), 3u);
    std::uint64_t total = 0;
    for (const StreamStats *stream : streams)
        total += stream->count;
    EXPECT_EQ(total, tracker.totalObservations());
}

TEST(StreamTracker, StreamsOfCounterFilters)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 1, true, false);
    tracker.observe(0x2000, 2, false, false);
    tracker.observe(0x3000, 1, true, true);
    const auto at1 = tracker.streamsOfCounter(1);
    EXPECT_EQ(at1.size(), 2u);
    EXPECT_TRUE(tracker.streamsOfCounter(9).empty());
}

TEST(StreamTracker, ClassificationThroughStats)
{
    StreamTracker tracker;
    for (int i = 0; i < 10; ++i)
        tracker.observe(0x1000, 0, i < 9, false);
    EXPECT_EQ(tracker.find(0x1000, 0)->biasClass(),
              BiasClass::StronglyTaken);
}

TEST(StreamTracker, NoKeyCollisionsAcrossLargeSpace)
{
    // pcs and counter ids chosen adversarially close must remain
    // distinct streams.
    StreamTracker tracker;
    tracker.observe(0x1000, 0x1, true, false);
    tracker.observe(0x1001, 0x0, true, false);
    tracker.observe((0x1000 << 1) | 1, 0x1, true, false);
    EXPECT_EQ(tracker.streamCount(), 3u);
    // Ids of 2^24 and up are legal (a 2^28-entry table): this pair
    // shares a hash value, (0x1000 << 24) ^ (1 << 26) ==
    // 0x1004 << 24, yet must stay two streams.
    tracker.observe(0x1000, std::uint64_t{1} << 26, true, false);
    tracker.observe(0x1004, 0, false, true);
    EXPECT_EQ(tracker.streamCount(), 5u);
    const StreamStats *high = tracker.find(0x1000, std::uint64_t{1} << 26);
    const StreamStats *low = tracker.find(0x1004, 0);
    ASSERT_NE(high, nullptr);
    ASSERT_NE(low, nullptr);
    EXPECT_NE(high, low);
    EXPECT_EQ(high->takenCount, 1u);
    EXPECT_EQ(low->mispredictions, 1u);
}

} // namespace
} // namespace bpsim
