#include "core/bimode.hh"

#include <sstream>

namespace bpsim
{

BiModeConfig
BiModeConfig::canonical(unsigned directionIndexBits)
{
    BiModeConfig cfg;
    cfg.directionIndexBits = directionIndexBits;
    cfg.choiceIndexBits = directionIndexBits;
    cfg.historyBits = directionIndexBits;
    return cfg;
}

namespace
{

/** Rejects a bad configuration before any register or table is built
 *  from it. */
const BiModeConfig &
checked(const BiModeConfig &config)
{
    checkTableBits(config.choiceIndexBits, "bi-mode choice");
    checkTableBits(config.directionIndexBits, "bi-mode direction");
    checkCounterWidth(config.counterWidth);
    if (config.historyBits > config.directionIndexBits)
        BPSIM_CONFIG_ERROR("bi-mode history ("
                           << config.historyBits
                           << " bits) cannot exceed the direction index "
                              "width ("
                           << config.directionIndexBits << " bits)");
    return config;
}

} // namespace

BiModePredictor::BiModePredictor(const BiModeConfig &config)
    : cfg(checked(config)),
      history(cfg.historyBits),
      choice(std::size_t{1} << cfg.choiceIndexBits, cfg.counterWidth,
             SaturatingCounter::weaklyTaken(cfg.counterWidth)),
      banks{CounterTable(std::size_t{1} << cfg.directionIndexBits,
                         cfg.counterWidth,
                         SaturatingCounter::weaklyNotTaken(cfg.counterWidth)),
            CounterTable(std::size_t{1} << cfg.directionIndexBits,
                         cfg.counterWidth,
                         SaturatingCounter::weaklyTaken(cfg.counterWidth))}
{
}

void
BiModePredictor::resetFast()
{
    history.clear();
    choice.reset();
    banks[0].reset();
    banks[1].reset();
}

std::string
BiModePredictor::name() const
{
    std::ostringstream os;
    os << "bimode(d=" << cfg.directionIndexBits
       << ",c=" << cfg.choiceIndexBits
       << ",h=" << cfg.historyBits << ")";
    if (!cfg.partialUpdate)
        os << "[full-update]";
    if (cfg.alwaysUpdateChoice)
        os << "[always-choice]";
    return os.str();
}

std::uint64_t
BiModePredictor::storageBits() const
{
    return choice.storageBits() + banks[0].storageBits() +
           banks[1].storageBits() + history.storageBits();
}

std::uint64_t
BiModePredictor::counterBits() const
{
    return choice.storageBits() + banks[0].storageBits() +
           banks[1].storageBits();
}

std::uint64_t
BiModePredictor::directionCounters() const
{
    return banks[0].size() + banks[1].size();
}

} // namespace bpsim
