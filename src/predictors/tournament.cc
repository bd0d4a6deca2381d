#include "predictors/tournament.hh"

#include <sstream>

namespace bpsim
{

TournamentPredictor::TournamentPredictor(unsigned indexBits)
    : bimodal(indexBits),
      gshare(indexBits, indexBits),
      metaIndexBits(indexBits),
      meta(std::size_t{1} << indexBits, 2,
           SaturatingCounter::weaklyTaken(2))
{
}

void
TournamentPredictor::resetFast()
{
    meta.reset();
    bimodal.resetFast();
    gshare.resetFast();
}

std::string
TournamentPredictor::name() const
{
    std::ostringstream os;
    os << "tournament(" << bimodal.name() << "+" << gshare.name()
       << ",m=" << metaIndexBits << ")";
    return os.str();
}

std::uint64_t
TournamentPredictor::storageBits() const
{
    return meta.storageBits() + bimodal.storageBits() +
           gshare.storageBits();
}

std::uint64_t
TournamentPredictor::counterBits() const
{
    return meta.storageBits() + bimodal.counterBits() +
           gshare.counterBits();
}

std::uint64_t
TournamentPredictor::directionCounters() const
{
    return bimodal.directionCounters() + gshare.directionCounters();
}

} // namespace bpsim
