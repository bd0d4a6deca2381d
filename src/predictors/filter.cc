#include "predictors/filter.hh"

#include <algorithm>
#include <sstream>

#include "util/bits.hh"

namespace bpsim
{

FilterPredictor::FilterPredictor(const FilterConfig &config)
    : cfg(config),
      runSaturation(
          static_cast<std::uint16_t>(maskBits(cfg.filterCounterBits))),
      history(cfg.historyBits),
      pht(checkedTableEntries(cfg.indexBits, "filter PHT"),
          cfg.counterWidth,
          SaturatingCounter::weaklyTaken(cfg.counterWidth))
{
    if (cfg.historyBits > cfg.indexBits)
        BPSIM_FATAL("filter history cannot exceed the PHT index width");
    if (cfg.filterCounterBits < 1 || cfg.filterCounterBits > 8)
        BPSIM_FATAL("filter run counter must be 1..8 bits");
    filter.resize(
        checkedTableEntries(cfg.filterIndexBits, "filter table"));
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
