#include "predictors/twolevel.hh"

#include <algorithm>
#include <sstream>

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before any register or table is built
 *  from it. h and a are bounded one by one first, so their sum cannot
 *  wrap. */
const TwoLevelConfig &
checked(const TwoLevelConfig &config)
{
    checkTableBits(std::max(config.historyBits, config.pcBits),
                        "two-level");
    checkTableBits(config.historyBits + config.pcBits, "two-level");
    if (config.scope == HistoryScope::PerAddress)
        checkTableBits(config.localEntriesLog2, "per-address history");
    checkCounterWidth(config.counterWidth);
    return config;
}

} // namespace

TwoLevelPredictor::TwoLevelPredictor(const TwoLevelConfig &config)
    : cfg(checked(config)),
      globalHistory(cfg.scope == HistoryScope::Global ? cfg.historyBits : 0),
      counters(std::size_t{1} << (cfg.historyBits + cfg.pcBits),
               cfg.counterWidth,
               SaturatingCounter::weaklyTaken(cfg.counterWidth))
{
    if (cfg.scope == HistoryScope::PerAddress) {
        localHistory.emplace(cfg.localEntriesLog2, cfg.historyBits);
    }
}

void
TwoLevelPredictor::resetFast()
{
    counters.reset();
    globalHistory.clear();
    if (localHistory)
        localHistory->clear();
}

std::string
TwoLevelPredictor::name() const
{
    std::ostringstream os;
    if (cfg.scope == HistoryScope::Global) {
        if (cfg.pcBits == 0)
            os << "GAg(h=" << cfg.historyBits << ")";
        else
            os << "GAs(h=" << cfg.historyBits << ",a=" << cfg.pcBits << ")";
    } else {
        if (cfg.pcBits == 0) {
            os << "PAg(h=" << cfg.historyBits
               << ",l=" << cfg.localEntriesLog2 << ")";
        } else {
            os << "PAs(h=" << cfg.historyBits
               << ",l=" << cfg.localEntriesLog2
               << ",a=" << cfg.pcBits << ")";
        }
    }
    return os.str();
}

std::uint64_t
TwoLevelPredictor::storageBits() const
{
    std::uint64_t bits = counters.storageBits();
    if (cfg.scope == HistoryScope::Global)
        bits += globalHistory.storageBits();
    else
        bits += localHistory->storageBits();
    return bits;
}

std::uint64_t
TwoLevelPredictor::counterBits() const
{
    return counters.storageBits();
}

std::uint64_t
TwoLevelPredictor::directionCounters() const
{
    return counters.size();
}

TwoLevelConfig
makeGAg(unsigned historyBits)
{
    TwoLevelConfig cfg;
    cfg.scope = HistoryScope::Global;
    cfg.historyBits = historyBits;
    return cfg;
}

TwoLevelConfig
makeGAs(unsigned historyBits, unsigned pcBits)
{
    TwoLevelConfig cfg = makeGAg(historyBits);
    cfg.pcBits = pcBits;
    return cfg;
}

TwoLevelConfig
makePAg(unsigned historyBits, unsigned localEntriesLog2)
{
    TwoLevelConfig cfg;
    cfg.scope = HistoryScope::PerAddress;
    cfg.historyBits = historyBits;
    cfg.localEntriesLog2 = localEntriesLog2;
    return cfg;
}

TwoLevelConfig
makePAs(unsigned historyBits, unsigned localEntriesLog2, unsigned pcBits)
{
    TwoLevelConfig cfg = makePAg(historyBits, localEntriesLog2);
    cfg.pcBits = pcBits;
    return cfg;
}

} // namespace bpsim
