#include "predictors/yags.hh"

#include <sstream>

#include "util/bits.hh"

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before any register or table is built
 *  from it. */
const YagsConfig &
checked(const YagsConfig &config)
{
    checkTableBits(config.choiceIndexBits, "YAGS choice");
    checkTableBits(config.cacheIndexBits, "YAGS cache");
    checkCounterWidth(config.counterWidth);
    if (config.historyBits > config.cacheIndexBits)
        BPSIM_CONFIG_ERROR(
            "YAGS history cannot exceed the cache index width");
    if (config.tagBits > 16)
        BPSIM_CONFIG_ERROR(
            "YAGS tags wider than 16 bits are not supported");
    return config;
}

} // namespace

YagsPredictor::YagsPredictor(const YagsConfig &config)
    : cfg(checked(config)),
      history(cfg.historyBits),
      choice(std::size_t{1} << cfg.choiceIndexBits, cfg.counterWidth,
             SaturatingCounter::weaklyTaken(cfg.counterWidth))
{
    caches[0].resize(std::size_t{1} << cfg.cacheIndexBits);
    caches[1].resize(std::size_t{1} << cfg.cacheIndexBits);
}

void
YagsPredictor::resetFast()
{
    history.clear();
    choice.reset();
    for (auto &cache : caches)
        std::fill(cache.begin(), cache.end(), CacheEntry{});
}

std::string
YagsPredictor::name() const
{
    std::ostringstream os;
    os << "yags(c=" << cfg.choiceIndexBits << ",n=" << cfg.cacheIndexBits
       << ",t=" << cfg.tagBits << ",h=" << cfg.historyBits << ")";
    return os.str();
}

std::uint64_t
YagsPredictor::storageBits() const
{
    const std::uint64_t per_entry = 1 + cfg.tagBits + cfg.counterWidth;
    return choice.storageBits() + history.storageBits() +
           2 * caches[0].size() * per_entry;
}

std::uint64_t
YagsPredictor::counterBits() const
{
    // Paper-style cost counts prediction counters only, not tags.
    return choice.storageBits() +
           2 * caches[0].size() * cfg.counterWidth;
}

std::uint64_t
YagsPredictor::directionCounters() const
{
    return 2 * caches[0].size() + choice.size();
}

} // namespace bpsim
