#include "predictors/bimodal.hh"

#include <sstream>

#include "predictors/history.hh"

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before the table is built from it. */
unsigned
checkedIndex(unsigned indexBits, unsigned counterWidth)
{
    checkTableBits(indexBits, "bimodal");
    checkCounterWidth(counterWidth);
    return indexBits;
}

} // namespace

BimodalPredictor::BimodalPredictor(unsigned indexBits, unsigned counterWidth)
    : indexBits(checkedIndex(indexBits, counterWidth)),
      counters(std::size_t{1} << indexBits, counterWidth,
               SaturatingCounter::weaklyTaken(counterWidth))
{
}

void
BimodalPredictor::resetFast()
{
    counters.reset();
}

std::string
BimodalPredictor::name() const
{
    std::ostringstream os;
    os << "bimodal(n=" << indexBits << ")";
    return os.str();
}

std::uint64_t
BimodalPredictor::storageBits() const
{
    return counters.storageBits();
}

std::uint64_t
BimodalPredictor::directionCounters() const
{
    return counters.size();
}

} // namespace bpsim
