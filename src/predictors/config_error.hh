/**
 * @file
 * The one error type of predictor configuration checks.
 *
 * Every check a predictor constructor makes on its configuration —
 * table, counter and history widths, and parameters that contradict
 * each other — throws ConfigError, as does the factory's schema
 * validation (core/registry.hh). tryMakePredictor() returns the
 * message as a per-job error, so one bad spec sent to a long-running
 * service fails its own job only; makePredictor() exits with it.
 *
 * Constructors run these checks before they size any table, so the
 * panics inside CounterTable and HistoryRegister stay internal
 * invariants that no configuration can reach.
 */

#ifndef BPSIM_PREDICTORS_CONFIG_ERROR_HH
#define BPSIM_PREDICTORS_CONFIG_ERROR_HH

#include <sstream>
#include <stdexcept>

namespace bpsim
{

/** An invalid predictor configuration; what() is the message. */
struct ConfigError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

} // namespace bpsim

/** Throws ConfigError with a stream-formatted message: the
 *  recoverable counterpart of BPSIM_FATAL for predictor configs. */
#define BPSIM_CONFIG_ERROR(msg)                                           \
    do {                                                                  \
        std::ostringstream bpsim_oss_;                                    \
        bpsim_oss_ << msg;                                                \
        throw ::bpsim::ConfigError(bpsim_oss_.str());                     \
    } while (0)

namespace bpsim
{

/**
 * Validates a table index width *before* the table is allocated.
 *
 * Predictor constructors size their tables in member-initializer
 * lists, so they run their checks from the first initializer; that
 * keeps a bad configuration from attempting a 2^40-entry allocation
 * before the check runs.
 *
 * @param bits index width to validate
 * @param what predictor name for the error message
 */
inline void
checkTableBits(unsigned bits, const char *what)
{
    if (bits > 28)
        BPSIM_CONFIG_ERROR(what << " table of 2^" << bits
                           << " entries is unreasonably large");
}

/** Validates a saturating-counter width (1..8 bits). */
inline void
checkCounterWidth(unsigned bits)
{
    if (bits < 1 || bits > 8)
        BPSIM_CONFIG_ERROR("counter width " << bits << " out of range 1..8");
}

} // namespace bpsim

#endif // BPSIM_PREDICTORS_CONFIG_ERROR_HH
