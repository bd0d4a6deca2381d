#include "util/args.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace bpsim
{

ArgParser::ArgParser(std::string program, std::string summary)
    : program(std::move(program)), summary(std::move(summary))
{
}

void
ArgParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    Option opt;
    opt.def = def;
    opt.value = def;
    opt.help = help;
    if (!options.emplace(name, std::move(opt)).second)
        BPSIM_PANIC("duplicate option --" << name);
    declarationOrder.push_back(name);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    Option opt;
    opt.help = help;
    opt.isFlag = true;
    if (!options.emplace(name, std::move(opt)).second)
        BPSIM_PANIC("duplicate flag --" << name);
    declarationOrder.push_back(name);
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positionals.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = options.find(name);
        if (it == options.end())
            BPSIM_FATAL("unknown option --" << name << "; try --help");
        Option &opt = it->second;
        if (opt.isFlag) {
            if (has_value)
                BPSIM_FATAL("flag --" << name << " does not take a value");
            opt.seen = true;
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc)
                BPSIM_FATAL("option --" << name << " needs a value");
            value = argv[++i];
        }
        opt.value = std::move(value);
        opt.seen = true;
    }
    return true;
}

const ArgParser::Option &
ArgParser::lookup(const std::string &name) const
{
    const auto it = options.find(name);
    if (it == options.end())
        BPSIM_PANIC("option --" << name << " was never declared");
    return it->second;
}

bool
ArgParser::flag(const std::string &name) const
{
    const Option &opt = lookup(name);
    if (!opt.isFlag)
        BPSIM_PANIC("--" << name << " is not a flag");
    return opt.seen;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    return lookup(name).value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const std::string &text = get(name);
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0')
        BPSIM_FATAL("--" << name << ": '" << text << "' is not an integer");
    // strtoll clamps to LLONG_MIN/MAX on overflow; silently accepting
    // the clamped value would turn a typo into a huge valid setting.
    if (errno == ERANGE)
        BPSIM_FATAL("--" << name << ": '" << text
                    << "' is out of range for a 64-bit integer");
    return value;
}

std::uint64_t
ArgParser::getUint(const std::string &name) const
{
    const std::int64_t value = getInt(name);
    if (value < 0)
        BPSIM_FATAL("--" << name << " must be non-negative");
    return static_cast<std::uint64_t>(value);
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string &text = get(name);
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        BPSIM_FATAL("--" << name << ": '" << text << "' is not a number");
    // Overflow clamps to +-HUGE_VAL and underflow to ~0; both set
    // ERANGE and neither is the number the user wrote.
    if (errno == ERANGE)
        BPSIM_FATAL("--" << name << ": '" << text
                    << "' is out of range for a double");
    return value;
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program << " [options]\n\n" << summary << "\n\n"
       << "options:\n";
    for (const auto &name : declarationOrder) {
        const Option &opt = options.at(name);
        os << "  --" << name;
        if (!opt.isFlag)
            os << " <value>";
        os << "\n        " << opt.help;
        if (!opt.isFlag && !opt.def.empty())
            os << " (default: " << opt.def << ")";
        os << '\n';
    }
    os << "  --help\n        show this message\n";
    return os.str();
}

bool
ArgParser::declared(const std::string &name) const
{
    return options.find(name) != options.end();
}

void
CommonOptions::declare(ArgParser &args)
{
    args.addFlag("quick", "scale dynamic branch counts down 5x");
    args.addFlag("csv", "also emit tables as CSV");
    args.addFlag("json", "also dump per-job campaign results as JSON");
    args.addOption("jobs", "0",
                   "campaign worker threads (0 = one per hardware "
                   "thread)");
    args.addFlag("timing",
                 "include machine-dependent wall time / throughput in "
                 "JSON output");
    declareTraceCache(args);
}

void
CommonOptions::declareTraceCache(ArgParser &args)
{
    args.addOption("trace-cache", "",
                   "persistent trace store directory "
                   "(default: $BPSIM_TRACE_CACHE, then .bpsim-cache; "
                   "'none' disables)");
    args.addFlag("verbose", "progress logging to stderr");
}

CommonOptions
CommonOptions::fromArgs(const ArgParser &args)
{
    CommonOptions opts;
    if (args.declared("quick"))
        opts.quick = args.flag("quick");
    if (args.declared("csv"))
        opts.csv = args.flag("csv");
    if (args.declared("json"))
        opts.json = args.flag("json");
    if (args.declared("timing"))
        opts.timing = args.flag("timing");
    if (args.declared("verbose"))
        opts.verbose = args.flag("verbose");
    if (args.declared("jobs"))
        opts.jobs = static_cast<unsigned>(args.getUint("jobs"));
    if (args.declared("trace-cache"))
        opts.traceCache = args.get("trace-cache");
    return opts;
}

} // namespace bpsim
