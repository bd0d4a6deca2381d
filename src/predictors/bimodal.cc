#include "predictors/bimodal.hh"

#include <sstream>

#include "predictors/history.hh"

namespace bpsim
{

BimodalPredictor::BimodalPredictor(unsigned indexBits, unsigned counterWidth)
    : indexBits(indexBits),
      counters(checkedTableEntries(indexBits, "bimodal"), counterWidth,
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
