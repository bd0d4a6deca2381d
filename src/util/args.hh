/**
 * @file
 * Minimal command-line argument parser for the example and benchmark
 * executables.
 *
 * Supports --name value, --name=value, boolean --flag switches, and
 * positional arguments, with typed accessors, defaults, and an
 * auto-generated --help text.
 */

#ifndef BPSIM_UTIL_ARGS_HH
#define BPSIM_UTIL_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bpsim
{

/** Declarative description and parsed state of a program's options. */
class ArgParser
{
  public:
    /**
     * @param program name shown in the usage line
     * @param summary one-line description shown by --help
     */
    ArgParser(std::string program, std::string summary);

    /** Declares a valued option with a default. */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Declares a boolean switch (defaults to false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parses argv. On --help prints usage and returns false (caller
     * should exit 0); on a malformed command line calls fatal().
     */
    bool parse(int argc, const char *const *argv);

    /** True when an option or flag of this name was declared. */
    bool declared(const std::string &name) const;

    /** True when a declared flag was present. */
    bool flag(const std::string &name) const;

    /** String value of a declared option (default if absent). */
    const std::string &get(const std::string &name) const;

    /** Typed accessors over get(); fatal() on conversion failure. */
    std::int64_t getInt(const std::string &name) const;
    std::uint64_t getUint(const std::string &name) const;
    double getDouble(const std::string &name) const;

    /** Positional arguments in order of appearance. */
    const std::vector<std::string> &positional() const { return positionals; }

    /** Renders the --help text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string def;
        std::string help;
        std::string value;
        bool isFlag = false;
        bool seen = false;
    };

    const Option &lookup(const std::string &name) const;

    std::string program;
    std::string summary;
    std::map<std::string, Option> options;
    std::vector<std::string> declarationOrder;
    std::vector<std::string> positionals;
};

/**
 * The flag set shared by every campaign-running binary (bench
 * drivers, examples, the service daemon and client), declared and
 * parsed in one place instead of copy-pasted per driver:
 *
 *   --quick            scale dynamic branch counts down 5x
 *   --csv              also emit tables as CSV
 *   --json             also dump per-job campaign results as JSON
 *   --jobs N           worker threads (0 = one per hardware thread)
 *   --timing           machine-dependent timing fields in JSON
 *   --trace-cache DIR  persistent trace store directory
 *   --verbose          progress logging to stderr
 *
 * declare()/declareTraceCache() register (a subset of) the options
 * on an ArgParser; fromArgs() reads back whichever of them were
 * declared, leaving the rest at their defaults — so a driver that
 * only wants --trace-cache still parses through the same code.
 *
 * This is deliberately a value bag, not an applier: the worker count
 * is carried in @ref jobs for the caller to pass explicitly
 * (CampaignScheduler::Options::workers or Campaign::run(workers));
 * the trace-store resolution ladder lives in the trace layer
 * (resolveTraceStoreDir()), which util must not depend on.
 */
struct CommonOptions
{
    bool quick = false;
    bool csv = false;
    bool json = false;
    bool timing = false;
    bool verbose = false;
    /** Campaign worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Raw --trace-cache value; resolve with resolveTraceStoreDir(). */
    std::string traceCache;

    /** The --quick dynamic-count divisor (1 when off). */
    std::uint64_t quickDivisor() const { return quick ? 5 : 1; }

    /** Declares the full shared flag set on @p args. */
    static void declare(ArgParser &args);

    /** Declares only --trace-cache (+ --verbose) for simple example
     *  drivers that run no campaign. */
    static void declareTraceCache(ArgParser &args);

    /** Reads back every shared option @p args declared. */
    static CommonOptions fromArgs(const ArgParser &args);
};

} // namespace bpsim

#endif // BPSIM_UTIL_ARGS_HH
