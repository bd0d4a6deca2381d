#include "trace/codec.hh"

#include <bit>

namespace bpsim
{

namespace
{

/* The xxHash64 primes. */
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

constexpr std::size_t kLanes = 4;

inline std::uint64_t
mixRound(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

inline std::uint64_t
foldIn(std::uint64_t hash, std::uint64_t value)
{
    return (hash ^ mixRound(0, value)) * kPrime1 + kPrime4;
}

} // namespace

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t
packedChecksum(const std::uint64_t *pcs, std::size_t count,
               const std::uint64_t *bitmap, std::size_t words)
{
    // xxHash64's lane seeds for seed 0.
    std::uint64_t lanes[kLanes] = {kPrime1 + kPrime2, kPrime2, 0,
                                   0 - kPrime1};
    std::size_t position = 0;
    for (std::size_t i = 0; i < count; ++i, ++position)
        lanes[position % kLanes] =
            mixRound(lanes[position % kLanes], pcs[i]);
    for (std::size_t i = 0; i < words; ++i, ++position)
        lanes[position % kLanes] =
            mixRound(lanes[position % kLanes], bitmap[i]);

    std::uint64_t hash = kPrime5;
    for (const std::uint64_t lane : lanes)
        hash = foldIn(hash, lane);
    hash = foldIn(hash, count);
    hash = foldIn(hash, words);

    hash ^= hash >> 33;
    hash *= kPrime2;
    hash ^= hash >> 29;
    hash *= kPrime3;
    hash ^= hash >> 32;
    return hash;
}

} // namespace bpsim
