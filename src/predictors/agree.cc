#include "predictors/agree.hh"

#include <algorithm>
#include <sstream>

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before any register or table is built
 *  from it. */
const AgreeConfig &
checked(const AgreeConfig &config)
{
    checkTableBits(config.indexBits, "agree");
    checkTableBits(config.biasIndexBits, "agree bias");
    checkCounterWidth(config.counterWidth);
    if (config.historyBits > config.indexBits)
        BPSIM_CONFIG_ERROR("agree history cannot exceed the index width");
    return config;
}

} // namespace

AgreePredictor::AgreePredictor(const AgreeConfig &config)
    : cfg(checked(config)),
      history(cfg.historyBits),
      counters(std::size_t{1} << cfg.indexBits, cfg.counterWidth,
               SaturatingCounter::weaklyTaken(cfg.counterWidth)),
      biasBit(std::size_t{1} << cfg.biasIndexBits, 0),
      biasValid(std::size_t{1} << cfg.biasIndexBits, 0)
{
}

void
AgreePredictor::resetFast()
{
    history.clear();
    counters.reset();
    std::fill(biasBit.begin(), biasBit.end(), 0);
    std::fill(biasValid.begin(), biasValid.end(), 0);
}

std::string
AgreePredictor::name() const
{
    std::ostringstream os;
    os << "agree(n=" << cfg.indexBits << ",h=" << cfg.historyBits
       << ",b=" << cfg.biasIndexBits << ")";
    return os.str();
}

std::uint64_t
AgreePredictor::storageBits() const
{
    return counters.storageBits() + history.storageBits() +
           biasBit.size() + biasValid.size();
}

std::uint64_t
AgreePredictor::counterBits() const
{
    return counters.storageBits();
}

std::uint64_t
AgreePredictor::directionCounters() const
{
    return counters.size();
}

} // namespace bpsim
