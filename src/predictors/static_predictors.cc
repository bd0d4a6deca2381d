#include "predictors/static_predictors.hh"

#include <algorithm>
#include <sstream>

#include "predictors/history.hh"

namespace bpsim
{

BtfnPredictor::BtfnPredictor(unsigned entriesLog2)
    : indexBits(entriesLog2),
      sense(std::size_t{1} << entriesLog2, 0)
{
}

bool
BtfnPredictor::predict(std::uint64_t pc) const
{
    const std::size_t index =
        static_cast<std::size_t>(pcIndexBits(pc, indexBits));
    // Unknown branches default to not-taken (forward-biased code).
    return sense[index] == 2;
}

void
BtfnPredictor::update(std::uint64_t, bool)
{
    // Direction sense is learned from observeTarget() only.
}

void
BtfnPredictor::observeTarget(std::uint64_t pc, std::uint64_t target)
{
    const std::size_t index =
        static_cast<std::size_t>(pcIndexBits(pc, indexBits));
    sense[index] = target <= pc ? 2 : 1;
}

void
BtfnPredictor::reset()
{
    std::fill(sense.begin(), sense.end(), 0);
}

std::string
BtfnPredictor::name() const
{
    std::ostringstream os;
    os << "btfn(l=" << indexBits << ")";
    return os.str();
}

std::uint64_t
BtfnPredictor::storageBits() const
{
    // Two bits of sense state per entry.
    return static_cast<std::uint64_t>(sense.size()) * 2;
}

} // namespace bpsim
