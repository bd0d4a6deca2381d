#include "predictors/gshare.hh"

#include <sstream>

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before the history register and the
 *  table are built from it. */
unsigned
checkedHistory(unsigned indexBits, unsigned historyBits,
               unsigned counterWidth)
{
    checkTableBits(indexBits, "gshare");
    checkCounterWidth(counterWidth);
    if (historyBits > indexBits)
        BPSIM_CONFIG_ERROR("gshare history ("
                           << historyBits
                           << " bits) cannot exceed the index width ("
                           << indexBits << " bits)");
    return historyBits;
}

} // namespace

GsharePredictor::GsharePredictor(unsigned indexBits, unsigned historyBits,
                                 unsigned counterWidth)
    : indexBits(indexBits),
      history(checkedHistory(indexBits, historyBits, counterWidth)),
      counters(std::size_t{1} << indexBits, counterWidth,
               SaturatingCounter::weaklyTaken(counterWidth))
{
}

void
GsharePredictor::resetFast()
{
    counters.reset();
    history.clear();
}

std::string
GsharePredictor::name() const
{
    std::ostringstream os;
    os << "gshare(n=" << indexBits << ",h=" << history.bits() << ")";
    return os.str();
}

std::uint64_t
GsharePredictor::storageBits() const
{
    return counters.storageBits() + history.storageBits();
}

std::uint64_t
GsharePredictor::counterBits() const
{
    return counters.storageBits();
}

std::uint64_t
GsharePredictor::directionCounters() const
{
    return counters.size();
}

} // namespace bpsim
