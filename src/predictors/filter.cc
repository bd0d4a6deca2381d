#include "predictors/filter.hh"

#include <algorithm>
#include <sstream>

#include "util/bits.hh"

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before any register or table is built
 *  from it. */
const FilterConfig &
checked(const FilterConfig &config)
{
    checkTableBits(config.indexBits, "filter PHT");
    checkTableBits(config.filterIndexBits, "filter table");
    checkCounterWidth(config.counterWidth);
    if (config.historyBits > config.indexBits)
        BPSIM_CONFIG_ERROR(
            "filter history cannot exceed the PHT index width");
    if (config.filterCounterBits < 1 || config.filterCounterBits > 8)
        BPSIM_CONFIG_ERROR("filter run counter must be 1..8 bits");
    return config;
}

} // namespace

FilterPredictor::FilterPredictor(const FilterConfig &config)
    : cfg(checked(config)),
      runSaturation(
          static_cast<std::uint16_t>(maskBits(cfg.filterCounterBits))),
      history(cfg.historyBits),
      pht(std::size_t{1} << cfg.indexBits, cfg.counterWidth,
          SaturatingCounter::weaklyTaken(cfg.counterWidth)),
      filter(std::size_t{1} << cfg.filterIndexBits)
{
}

bool
FilterPredictor::isFiltered(std::uint64_t pc) const
{
    return filter[filterIndexFor(pc)].runLength == runSaturation;
}

void
FilterPredictor::resetFast()
{
    history.clear();
    pht.reset();
    std::fill(filter.begin(), filter.end(), FilterEntry{});
}

std::string
FilterPredictor::name() const
{
    std::ostringstream os;
    os << "filter(n=" << cfg.indexBits << ",h=" << cfg.historyBits
       << ",b=" << cfg.filterIndexBits
       << ",k=" << cfg.filterCounterBits << ")";
    return os.str();
}

std::uint64_t
FilterPredictor::storageBits() const
{
    const std::uint64_t per_filter_entry = 1 + cfg.filterCounterBits;
    return pht.storageBits() + history.storageBits() +
           static_cast<std::uint64_t>(filter.size()) * per_filter_entry;
}

std::uint64_t
FilterPredictor::counterBits() const
{
    // Paper-style cost: the PHT counters plus the filter state the
    // scheme adds (the BTB it rides in is not charged).
    return pht.storageBits();
}

std::uint64_t
FilterPredictor::directionCounters() const
{
    return pht.size() + filter.size();
}

} // namespace bpsim
