/**
 * @file
 * bpsim_e2e — the end-to-end benchmark program.
 *
 *   bpsim_e2e --workload repro-cold|rerun-warm|serve-mix --seed N
 *             --seconds S --trace 0|1
 *
 * Untraced runs (--trace 0) print the end-to-end metrics; traced runs
 * (--trace 1) print the per-layer metrics and write the spans as
 * Chrome trace-event JSON. The last line of stdout is the result
 * object; the exit code is 0 only when every correctness check
 * passed.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "e2e.hh"
#include "util/args.hh"

using namespace bpsim;
using namespace bpsim::e2e;

namespace
{

/** SIGALRM ends the run well inside its 180-second budget: a wedged
 *  daemon or client must not hang the caller (the daemon dies with us
 *  through PR_SET_PDEATHSIG). */
constexpr unsigned kWatchdogSeconds = 170;

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bpsim_e2e",
                   "End-to-end benchmark: repro-cold, rerun-warm and "
                   "serve-mix workloads over the bpsim libraries and the "
                   "bpsim_serve daemon.");
    args.addOption("workload", "", "repro-cold, rerun-warm or serve-mix");
    args.addOption("seed", "0",
                   "workload seed (0 keeps the built-in workload specs)");
    args.addOption("seconds", "10", "length of the measured phase");
    args.addOption("trace", "0",
                   "1 = traced run: per-layer metrics and a trace file");
    args.addOption("work-dir", ".bench_build/e2e",
                   "scratch directory for stores, sockets and traces");
    args.addOption("serve-binary", ".bench_build/serve/bpsim_serve",
                   "the bpsim_serve daemon to drive");
    args.addOption("reference", "e2ebench/reference.json",
                   "pinned digests of the default-seed outputs");
    args.addFlag("host", "print the host record and exit");
    if (!args.parse(argc, argv))
        return 0;
    if (args.flag("host")) {
        std::cout << hostJson() << "\n";
        return 0;
    }

    Options options;
    options.workload = args.get("workload");
    options.seed = args.getUint("seed");
    options.seconds = args.getDouble("seconds");
    options.trace = args.getUint("trace") != 0;
    options.workDir = args.get("work-dir");
    options.serveBinary = args.get("serve-binary");
    options.referenceFile = args.get("reference");
    options.workers = offlineWorkers(std::thread::hardware_concurrency());
    std::filesystem::create_directories(options.workDir);

    const auto runners = std::map<std::string,
                                  void (*)(const Options &, Checks &,
                                           Measured &)>{
        {"repro-cold", runReproCold},
        {"rerun-warm", runRerunWarm},
        {"serve-mix", runServeMix},
    };
    const auto runner = runners.find(options.workload);
    if (runner == runners.end()) {
        std::cerr << "bpsim_e2e: unknown --workload '" << options.workload
                  << "' (repro-cold, rerun-warm, serve-mix)\n";
        return 2;
    }

    ::alarm(kWatchdogSeconds);

    std::cerr << "e2e: host " << hostJson() << "\n";
    Checks checks;
    Measured measured;
    try {
        runner->second(options, checks, measured);
    } catch (const std::exception &e) {
        checks.expect(false, std::string("workload threw: ") + e.what());
    }

    Report report;
    if (options.trace) {
        reportPerLayer(measured, checks, report);
        const std::string path = options.workDir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        std::ofstream out(path);
        tracer().writeChromeJson(out);
        std::cerr << "e2e: wrote " << measured.spans.size() << " spans to "
                  << path << "\n";
    } else {
        reportEndToEnd(measured, report);
    }
    std::cerr << "e2e: " << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << "\n";
    report.printTable(std::cerr);
    std::cout << report.json(checks) << std::endl;
    return checks.correct() ? 0 : 1;
}
