#include "predictors/perceptron.hh"

#include <cmath>
#include <sstream>

#include "predictors/counter.hh"

namespace bpsim
{

namespace
{

/** Rejects a bad configuration before any member derived from it is
 *  computed. */
const PerceptronConfig &
checked(const PerceptronConfig &config)
{
    if (config.historyBits == 0 || config.historyBits > 63)
        BPSIM_CONFIG_ERROR("perceptron history must be 1..63 bits");
    if (config.weightBits < 2 || config.weightBits > 16)
        BPSIM_CONFIG_ERROR("perceptron weights must be 2..16 bits");
    checkTableBits(config.tableIndexBits, "perceptron");
    return config;
}

} // namespace

PerceptronPredictor::PerceptronPredictor(const PerceptronConfig &config)
    : cfg(checked(config)),
      history(cfg.historyBits),
      threshold(static_cast<std::int32_t>(
          std::floor(1.93 * cfg.historyBits + 14.0))),
      weightMax((1 << (cfg.weightBits - 1)) - 1),
      weightMin(-(1 << (cfg.weightBits - 1))),
      stride((cfg.historyBits + 1 + 31) / 32 * 32),
      chunks((cfg.historyBits + 1 + 15) / 16 * 2),
      inputMask(maskBits(cfg.historyBits + 1))
{
    weights.assign((std::size_t{1} << cfg.tableIndexBits) * stride, 0);
}

void
PerceptronPredictor::resetFast()
{
    history.clear();
    std::fill(weights.begin(), weights.end(), 0);
}

std::string
PerceptronPredictor::name() const
{
    std::ostringstream os;
    os << "perceptron(n=" << cfg.tableIndexBits
       << ",h=" << cfg.historyBits << ",w=" << cfg.weightBits << ")";
    return os.str();
}

std::uint64_t
PerceptronPredictor::storageBits() const
{
    return counterBits() + history.storageBits();
}

std::uint64_t
PerceptronPredictor::counterBits() const
{
    // All prediction state is weights; the paper-style x-axis cost is
    // the full weight storage: 2^n rows of h + 1 weights, not the
    // padded stride.
    return (std::uint64_t{1} << cfg.tableIndexBits) *
           (cfg.historyBits + 1) * cfg.weightBits;
}

std::uint64_t
PerceptronPredictor::directionCounters() const
{
    return std::uint64_t{1} << cfg.tableIndexBits;
}

} // namespace bpsim
