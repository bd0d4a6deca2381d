/**
 * @file
 * Byte-level primitives for the trace file formats: LEB128 varints,
 * zigzag signed mapping, the FNV-1a checksum of BBT1 and the
 * word-wise checksum of PBT1.
 *
 * Branch traces are extremely compressible — consecutive pcs are
 * near each other and targets are near their pcs — so records are
 * stored as zigzag-encoded deltas in varints. Typical synthetic
 * traces compress to ~3 bytes/record versus 24 bytes raw.
 */

#ifndef BPSIM_TRACE_CODEC_HH
#define BPSIM_TRACE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bpsim
{

/** Maps a signed value to unsigned with small magnitudes kept small. */
constexpr std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Inverse of zigzagEncode(). */
constexpr std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Writes @p value to @p out as 4 little-endian bytes. */
inline void
putLe32(std::uint8_t *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Writes @p value to @p out as 8 little-endian bytes. */
inline void
putLe64(std::uint8_t *out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Reads 4 little-endian bytes from @p in. */
inline std::uint32_t
getLe32(const std::uint8_t *in)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
    return value;
}

/** Reads 8 little-endian bytes from @p in. */
inline std::uint64_t
getLe64(const std::uint8_t *in)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return value;
}

/** Appends @p value to @p out as a LEB128 varint (1..10 bytes). */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t value);

/**
 * Reads one varint from @p data at @p offset, advancing the offset.
 * Inline: the BBT1 decoder calls it three times per record.
 *
 * @retval true a complete varint was decoded into @p value
 * @retval false the buffer ended mid-varint (offset unspecified)
 */
inline bool
getVarint(const std::uint8_t *data, std::size_t size, std::size_t &offset,
          std::uint64_t &value)
{
    std::uint64_t result = 0;
    unsigned shift = 0;
    while (offset < size && shift < 64) {
        const std::uint8_t byte = data[offset++];
        result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            value = result;
            return true;
        }
        shift += 7;
    }
    return false;
}

/** Incremental FNV-1a 64-bit hash, used as a trace-file checksum. */
class Fnv1a
{
  public:
    /** Mixes @p n bytes into the hash. */
    void
    update(const std::uint8_t *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            state ^= data[i];
            state *= 0x100000001b3ULL;
        }
    }

    std::uint64_t digest() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

/**
 * The PBT1 payload checksum: the pc array (@p count words) followed by
 * the taken bitmap (@p words words), taken as 64-bit values — the
 * little-endian word image of the file.
 *
 * Word i of the concatenated stream feeds lane i % 4 with the
 * xxHash64 round `lane = rotl(lane + word * P2, 31) * P1`; each round
 * is a bijection of the lane for a fixed word and of the word for a
 * fixed lane, so any change confined to one lane changes the digest,
 * and the rotate carries a top-bit difference into the multiplier's
 * reach. The four lanes, then @p count and @p words (which mark the
 * pc/bitmap boundary), are folded into one value in order and
 * avalanched. Independent lanes let the multiplies overlap, so the
 * pass runs near memory speed where byte-serial FNV-1a is latency
 * bound.
 */
std::uint64_t packedChecksum(const std::uint64_t *pcs, std::size_t count,
                             const std::uint64_t *bitmap,
                             std::size_t words);

} // namespace bpsim

#endif // BPSIM_TRACE_CODEC_HH
