/** @file Tests for varint / zigzag / checksum primitives. */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "trace/codec.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

TEST(Zigzag, KnownValues)
{
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
    EXPECT_EQ(zigzagEncode(2), 4u);
}

TEST(Zigzag, RoundTripExtremes)
{
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{1},
                           std::int64_t{-1},
                           std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
}

TEST(Zigzag, RoundTripRandom)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(rng.next64());
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
}

TEST(Zigzag, SmallMagnitudesStaySmall)
{
    for (std::int64_t v = -64; v <= 63; ++v)
        EXPECT_LT(zigzagEncode(v), 128u);
}

TEST(Varint, SingleByteValues)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 0);
    putVarint(buf, 1);
    putVarint(buf, 127);
    EXPECT_EQ(buf.size(), 3u);
}

TEST(Varint, MultiByteBoundaries)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 128);
    EXPECT_EQ(buf.size(), 2u);
    buf.clear();
    putVarint(buf, ~std::uint64_t{0});
    EXPECT_EQ(buf.size(), 10u);
}

TEST(Varint, RoundTripSweep)
{
    std::vector<std::uint64_t> values;
    for (unsigned shift = 0; shift < 64; ++shift) {
        values.push_back(std::uint64_t{1} << shift);
        values.push_back((std::uint64_t{1} << shift) - 1);
        values.push_back((std::uint64_t{1} << shift) + 1);
    }
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng.next64());

    std::vector<std::uint8_t> buf;
    for (std::uint64_t v : values)
        putVarint(buf, v);

    std::size_t offset = 0;
    for (std::uint64_t expected : values) {
        std::uint64_t decoded = 0;
        ASSERT_TRUE(getVarint(buf.data(), buf.size(), offset, decoded));
        EXPECT_EQ(decoded, expected);
    }
    EXPECT_EQ(offset, buf.size());
}

TEST(Varint, TruncatedBufferFails)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 1'000'000);
    std::size_t offset = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(getVarint(buf.data(), buf.size() - 1, offset, value));
}

TEST(Varint, EmptyBufferFails)
{
    std::size_t offset = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(getVarint(nullptr, 0, offset, value));
}

TEST(Fnv1a, EmptyDigestIsOffsetBasis)
{
    Fnv1a hash;
    EXPECT_EQ(hash.digest(), 0xcbf29ce484222325ULL);
}

TEST(Fnv1a, KnownVector)
{
    // FNV-1a 64 of "a" is a published test vector.
    Fnv1a hash;
    const std::uint8_t a = 'a';
    hash.update(&a, 1);
    EXPECT_EQ(hash.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a, IncrementalMatchesOneShot)
{
    const std::uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8};
    Fnv1a whole, parts;
    whole.update(data, sizeof(data));
    parts.update(data, 3);
    parts.update(data + 3, 5);
    EXPECT_EQ(whole.digest(), parts.digest());
}

TEST(Fnv1a, SensitiveToEveryByte)
{
    const std::uint8_t a[] = {1, 2, 3, 4};
    const std::uint8_t b[] = {1, 2, 3, 5};
    Fnv1a ha, hb;
    ha.update(a, 4);
    hb.update(b, 4);
    EXPECT_NE(ha.digest(), hb.digest());
}

/** A small PBT1-shaped payload: three pc words, then two bitmap
 *  words, so the stream wraps the four lanes and crosses the array
 *  boundary off a lane edge. */
struct SmallPayload
{
    static constexpr std::size_t kPcs = 3;
    static constexpr std::size_t kWords = 2;
    std::uint64_t words[kPcs + kWords] = {
        0x0000000000401000ULL, 0x0000000000401010ULL,
        0x00000000004a2f3cULL, 0x5a5a0f0f33cc9669ULL,
        0x0000000000000003ULL};

    std::uint64_t
    digest() const
    {
        return packedChecksum(words, kPcs, words + kPcs, kWords);
    }
};

TEST(PackedChecksum, EverySingleBitFlipChangesTheDigest)
{
    SmallPayload payload;
    const std::uint64_t base = payload.digest();
    std::set<std::uint64_t> seen = {base};
    for (std::uint64_t &word : payload.words) {
        for (unsigned bit = 0; bit < 64; ++bit) {
            word ^= std::uint64_t{1} << bit;
            seen.insert(payload.digest());
            word ^= std::uint64_t{1} << bit;
        }
    }
    // 5 words x 64 bits, all distinct from each other and the base.
    EXPECT_EQ(seen.size(), 1u + 5 * 64);
}

TEST(PackedChecksum, SameBitInTwoWordsChangesTheDigest)
{
    // An unrotated xor-multiply round keeps a bit-63 difference in
    // bit 63 (odd multipliers map 2^63 to 2^63), so two such flips
    // cancel; the rotate must carry it into the multiplier's reach.
    SmallPayload payload;
    const std::uint64_t base = payload.digest();
    constexpr std::size_t n = SmallPayload::kPcs + SmallPayload::kWords;
    for (unsigned bit = 0; bit < 64; ++bit) {
        const std::uint64_t mask = std::uint64_t{1} << bit;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                payload.words[i] ^= mask;
                payload.words[j] ^= mask;
                EXPECT_NE(payload.digest(), base)
                    << "bit " << bit << ", words " << i << " and " << j;
                payload.words[i] ^= mask;
                payload.words[j] ^= mask;
            }
        }
    }
}

TEST(PackedChecksum, SwappingTwoWordsChangesTheDigest)
{
    SmallPayload payload;
    const std::uint64_t base = payload.digest();
    constexpr std::size_t n = SmallPayload::kPcs + SmallPayload::kWords;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            std::swap(payload.words[i], payload.words[j]);
            EXPECT_NE(payload.digest(), base)
                << "words " << i << " and " << j;
            std::swap(payload.words[i], payload.words[j]);
        }
    }
}

TEST(PackedChecksum, MovingTheArrayBoundaryChangesTheDigest)
{
    // The same five words, split into pc array and bitmap at every
    // point: the stream is identical, only the boundary moves.
    const SmallPayload payload;
    std::set<std::uint64_t> seen;
    for (std::size_t pcs = 0; pcs <= 5; ++pcs)
        seen.insert(packedChecksum(payload.words, pcs,
                                   payload.words + pcs, 5 - pcs));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(PackedChecksum, AppendingAZeroWordChangesTheDigest)
{
    const std::uint64_t zeros[2] = {0, 0};
    EXPECT_NE(packedChecksum(zeros, 1, nullptr, 0),
              packedChecksum(zeros, 2, nullptr, 0));
    EXPECT_NE(packedChecksum(nullptr, 0, nullptr, 0),
              packedChecksum(zeros, 1, nullptr, 0));
}

TEST(PackedChecksum, KnownVector)
{
    // Pins the PBT1 v3 definition: a changed digest here means every
    // stored .pbt1 file would be rejected, which needs a version bump.
    const SmallPayload payload;
    EXPECT_EQ(payload.digest(), 0x3b6dab6341abeac3ULL);
    EXPECT_EQ(packedChecksum(nullptr, 0, nullptr, 0),
              0xc471bd68f678f483ULL);
}

} // namespace
} // namespace bpsim
