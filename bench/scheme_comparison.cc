/**
 * @file
 * The related-work shootout the paper points to ([Lee97], §2.1): all
 * de-aliasing schemes at matched hardware budgets over the full
 * 14-benchmark suite.
 *
 * At each budget (1KB / 4KB / 16KB of prediction state) the closest
 * configuration of every scheme is measured and the suite-average
 * misprediction reported, alongside its exact counter cost.
 *
 * Expected shape (paper §2.1): "hardware hashing [gskew] is useful
 * for small low cost systems; for large systems the bi-mode scheme
 * is the best cost-effective scheme" among the 1997 proposals. The
 * perceptron (2001) is included as the out-of-era reference point.
 *
 * Each budget class is one campaign grid (configs × 14 benchmarks)
 * executed on the --jobs worker pool; a bad configuration shows up
 * as an error row instead of killing the run.
 */

#include <iostream>

#include "common/bench_common.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

struct BudgetClass
{
    const char *label;
    std::vector<std::string> configs;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("scheme_comparison",
                   "All de-aliasing schemes at matched budgets over "
                   "the full suite.");
    addCommonOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);
    const unsigned jobs = CommonOptions::fromArgs(args).jobs;

    TraceCache cache(traceStoreDir(args));
    const auto specs = scaledSuite(allBenchmarks(), divisor);
    const auto benchmarks = resolveTraces(cache, specs, jobs);

    // Configurations sized to land at (or just under) each budget.
    const std::vector<BudgetClass> budgets = {
        {"~1KB",
         {"bimodal:n=12", "gshare:n=12", "gshare:n=12,h=9",
          "gas:h=8,a=4", "pas:h=6,l=9,a=6", "agree:n=12",
          "filter:n=12", "gskew:n=10", "bimode:d=10", "yags:c=11,n=9",
          "tournament:n=10", "perceptron:n=5,h=21"}},
        {"~4KB",
         {"bimodal:n=14", "gshare:n=14", "gshare:n=14,h=11",
          "gas:h=10,a=4", "pas:h=8,l=10,a=6", "agree:n=14",
          "filter:n=14", "gskew:n=12", "bimode:d=12", "yags:c=13,n=11",
          "tournament:n=12", "perceptron:n=7,h=21"}},
        {"~16KB",
         {"bimodal:n=16", "gshare:n=16", "gshare:n=16,h=13",
          "gas:h=12,a=4", "pas:h=10,l=11,a=6", "agree:n=16",
          "filter:n=16", "gskew:n=14", "bimode:d=14", "yags:c=15,n=13",
          "tournament:n=14", "perceptron:n=9,h=21"}},
    };

    for (const BudgetClass &budget : budgets) {
        Campaign campaign;
        campaign.addGrid(budget.configs, benchmarks);
        const auto results = campaign.run(jobs, verboseProgress());
        maybeEmitJson(args, results,
                      std::string("scheme comparison ") + budget.label);

        TextTable table;
        table.setColumns({"scheme", "counter KB", "suite avg misp %",
                          "CINT95 avg %", "IBS avg %"});
        for (std::size_t c = 0; c < budget.configs.size(); ++c) {
            // The grid is config-major: this config's results form
            // one contiguous run in suite order.
            const std::size_t base = c * specs.size();
            double total = 0.0, cint = 0.0, ibs = 0.0;
            std::size_t cint_count = 0, ibs_count = 0;
            std::string name;
            double kbytes = 0.0;
            std::string error;
            for (std::size_t b = 0; b < specs.size(); ++b) {
                const JobResult &job = results[base + b];
                if (!job.ok()) {
                    error = job.error;
                    break;
                }
                name = job.result.predictorName;
                kbytes = job.result.counterKBytes();
                const double rate = job.result.mispredictionRate();
                total += rate;
                if (specs[b].suite == "SPEC CINT95") {
                    cint += rate;
                    ++cint_count;
                } else {
                    ibs += rate;
                    ++ibs_count;
                }
            }
            if (!error.empty()) {
                table.addRow({budget.configs[c], "--",
                              "error: " + error, "--", "--"});
                continue;
            }
            table.addRow({
                name,
                TextTable::fixed(kbytes, 2),
                TextTable::fixed(total / specs.size(), 2),
                TextTable::fixed(cint / cint_count, 2),
                TextTable::fixed(ibs / ibs_count, 2),
            });
        }
        emitTable(args, table,
                  std::string("Scheme comparison at ") + budget.label);
    }
    return 0;
}
