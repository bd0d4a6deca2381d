#include "predictors/gskew.hh"

#include <sstream>

#include "util/bits.hh"

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before any register or table is built
 *  from it. */
const GskewConfig &
checked(const GskewConfig &config)
{
    checkTableBits(config.bankIndexBits, "gskew");
    checkCounterWidth(config.counterWidth);
    if (config.historyBits > 64)
        BPSIM_CONFIG_ERROR("gskew history (" << config.historyBits
                           << " bits) exceeds 64");
    return config;
}

} // namespace

GskewPredictor::GskewPredictor(const GskewConfig &config)
    : cfg(checked(config)),
      history(cfg.historyBits),
      banks{CounterTable(std::size_t{1} << cfg.bankIndexBits,
                         cfg.counterWidth,
                         SaturatingCounter::weaklyTaken(cfg.counterWidth)),
            CounterTable(std::size_t{1} << cfg.bankIndexBits,
                         cfg.counterWidth,
                         SaturatingCounter::weaklyTaken(cfg.counterWidth)),
            CounterTable(std::size_t{1} << cfg.bankIndexBits,
                         cfg.counterWidth,
                         SaturatingCounter::weaklyTaken(cfg.counterWidth))}
{
}

void
GskewPredictor::resetFast()
{
    history.clear();
    for (auto &bank : banks)
        bank.reset();
}

std::string
GskewPredictor::name() const
{
    std::ostringstream os;
    os << "gskew(n=" << cfg.bankIndexBits << ",h=" << cfg.historyBits
       << ")";
    if (!cfg.partialUpdate)
        os << "[full-update]";
    return os.str();
}

std::uint64_t
GskewPredictor::storageBits() const
{
    return banks[0].storageBits() * 3 + history.storageBits();
}

std::uint64_t
GskewPredictor::counterBits() const
{
    return banks[0].storageBits() * 3;
}

std::uint64_t
GskewPredictor::directionCounters() const
{
    return banks[0].size();
}

} // namespace bpsim
