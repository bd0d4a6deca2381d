/**
 * @file
 * Workload inspector: prints the trace-level statistics of a
 * benchmark (static/dynamic counts, taken fraction, bias
 * distribution), an idealized per-branch static oracle, and a panel
 * of predictors from a bimodal table to the history-based schemes,
 * bracketing where a real predictor's error comes from.
 *
 * Usage: inspect_workload [--benchmark gcc] [--size-bits 12]
 */

#include <iostream>

#include "core/factory.hh"
#include "predictors/bimodal.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "trace/trace_stats.hh"
#include "trace/trace_store.hh"
#include "util/args.hh"
#include "util/table.hh"
#include "workload/benchmarks.hh"

namespace
{

/**
 * Idealized static oracle: predicts every static branch's majority
 * direction, computed from the whole trace. Its misprediction rate
 * is the per-branch-bias floor — everything above it needs history.
 */
double
staticOracleMispredict(const bpsim::TraceStats &stats)
{
    std::uint64_t wrong = 0, total = 0;
    for (const auto &branch : stats.perBranch()) {
        const std::uint64_t minority =
            std::min(branch.takenCount,
                     branch.executions - branch.takenCount);
        wrong += minority;
        total += branch.executions;
    }
    return total ? 100.0 * static_cast<double>(wrong) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bpsim::ArgParser args("inspect_workload",
                          "Inspect a synthetic benchmark workload.");
    args.addOption("benchmark", "gcc", "benchmark name");
    args.addOption("size-bits", "12",
                   "gshare index width n for the predictor panel");
    bpsim::CommonOptions::declareTraceCache(args);
    if (!args.parse(argc, argv))
        return 0;

    const auto spec = bpsim::findBenchmark(args.get("benchmark"));
    if (!spec) {
        std::cerr << "unknown benchmark '" << args.get("benchmark")
                  << "'\n";
        return 1;
    }
    const unsigned n = static_cast<unsigned>(args.getUint("size-bits"));

    bpsim::TraceCache cache(
        bpsim::resolveTraceStoreDir(
        bpsim::CommonOptions::fromArgs(args).traceCache));
    const bpsim::MemoryTrace &trace = cache.traceFor(*spec);
    bpsim::TraceStats stats;
    auto stat_reader = trace.reader();
    stats.observeAll(stat_reader);

    std::cout << "benchmark: " << spec->name << " (" << spec->suite
              << ")\n";
    bpsim::TextTable info;
    info.setColumns({"metric", "value"});
    info.addRow({"static conditional branches",
                 bpsim::TextTable::grouped(stats.staticConditional())});
    info.addRow({"dynamic conditional branches",
                 bpsim::TextTable::grouped(stats.dynamicConditional())});
    info.addRow({"taken fraction (%)",
                 bpsim::TextTable::fixed(100.0 * stats.takenFraction(),
                                         2)});
    info.addRow({"dynamic share of >=90% biased branches (%)",
                 bpsim::TextTable::fixed(
                     100.0 * stats.stronglyBiasedDynamicFraction(), 2)});
    info.addRow({"static-oracle misprediction floor (%)",
                 bpsim::TextTable::fixed(staticOracleMispredict(stats),
                                         2)});
    info.print(std::cout);

    std::cout << "\npredictor panel (n=" << n << "):\n";
    const std::vector<std::string> configs = {
        "bimodal:n=" + std::to_string(n),
        "gshare:n=" + std::to_string(n) + ",h=2",
        "gshare:n=" + std::to_string(n) + ",h=4",
        "gshare:n=" + std::to_string(n) + ",h=8",
        "gshare:n=" + std::to_string(n),
        "bimode:d=" + std::to_string(n - 1),
        "gskew:n=" + std::to_string(n - 1),
        "agree:n=" + std::to_string(n),
        "pas:h=6,l=" + std::to_string(n - 6) + ",a=" +
            std::to_string(n - 6),
        "yags:c=" + std::to_string(n) + ",n=" + std::to_string(n - 2),
        "tournament:n=" + std::to_string(n - 2),
    };
    bpsim::TextTable panel;
    panel.setColumns({"predictor", "counter KB", "mispredict (%)"});
    for (const std::string &config : configs) {
        const bpsim::PredictorPtr predictor =
            bpsim::makePredictor(config);
        auto reader = trace.reader();
        const bpsim::SimResult result = simulate(*predictor, reader);
        panel.addRow({result.predictorName,
                      bpsim::TextTable::fixed(result.counterKBytes(), 3),
                      bpsim::TextTable::fixed(result.mispredictionRate(),
                                              3)});
    }
    panel.print(std::cout);
    return 0;
}
