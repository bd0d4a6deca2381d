/**
 * @file
 * Hard-to-predict branch report.
 *
 * Runs a set of predictor configurations over one benchmark with
 * per-branch accounting (sim/probe.hh) and prints, per predictor,
 * the top-K static branches ranked by misprediction count — each
 * annotated with its §4 bias class and its share of the scheme's
 * mispredictions — plus the H2P set size (the smallest prefix of
 * the ranking covering --coverage percent of all mispredictions).
 * With two or more predictors it also intersects their H2P sets,
 * answering whether e.g. bi-mode and gshare stumble over the same
 * branches.
 *
 * Same-kind configurations fuse into one banked replay pass
 * (campaign fusion works for probed runs too), so a bimode size
 * ladder runs as one probed scalar bank; per-branch counts never
 * depend on --kernel-tier (CI byte-diffs scalar against auto).
 *
 * Usage: h2p_report [--benchmark gcc]
 *                   [--predictors bimode:d=11;gshare:n=12]
 *                   [--coverage 90] [--top 20] [--warmup 0]
 *                   [--csv | --json] [--quick]
 */

#include <iostream>
#include <sstream>
#include <vector>

#include "analysis/h2p.hh"
#include "campaign/campaign.hh"
#include "sim/trace_cache.hh"
#include "trace/trace_store.hh"
#include "util/args.hh"
#include "util/table.hh"
#include "workload/benchmarks.hh"

using namespace bpsim;

namespace
{

/** Splits a ';'-separated predictor list. */
std::vector<std::string>
splitConfigs(const std::string &text)
{
    std::vector<std::string> configs;
    std::istringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ';')) {
        if (!item.empty())
            configs.push_back(item);
    }
    return configs;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("h2p_report",
                   "Per-branch misprediction ranking (hard-to-predict "
                   "set) of a predictor set over one benchmark.");
    args.addOption("benchmark", "gcc", "benchmark name");
    args.addOption("predictors", "bimode:d=11;gshare:n=12",
                   "';'-separated predictor configs");
    args.addOption("coverage", "90",
                   "misprediction share (percent) the H2P set covers");
    args.addOption("top", "20", "ranking rows in the table view");
    args.addOption("warmup", "0",
                   "warm-up branches excluded from the statistics");
    CommonOptions::declare(args);
    if (!args.parse(argc, argv))
        return 0;
    const CommonOptions opts = CommonOptions::fromArgs(args);

    const auto spec = findBenchmark(args.get("benchmark"));
    if (!spec) {
        std::cerr << "unknown benchmark\n";
        return 1;
    }
    const std::vector<std::string> configs =
        splitConfigs(args.get("predictors"));
    if (configs.empty()) {
        std::cerr << "no predictor configs\n";
        return 1;
    }
    TraceCache cache(resolveTraceStoreDir(opts.traceCache));
    const std::vector<BenchmarkTrace> benches = resolveTraces(
        cache, {scaledBenchmark(*spec, opts.quickDivisor())});

    SimConfig simConfig;
    simConfig.warmupBranches = args.getUint("warmup");
    simConfig.trackPerBranch = true;
    Campaign campaign;
    campaign.addGrid(configs, benches, simConfig);
    const std::vector<JobResult> results = campaign.run(opts.jobs);

    const double coverage = args.getDouble("coverage") / 100.0;
    std::vector<H2PReport> reports;
    for (const JobResult &job : results) {
        if (!job.ok()) {
            std::cerr << "config '" << job.configText
                      << "' failed: " << job.error << "\n";
            return 1;
        }
        reports.push_back(buildH2PReport(job.result, coverage));
    }

    if (opts.csv) {
        for (const H2PReport &report : reports) {
            std::cout << "# predictor=" << report.predictorName
                      << " benchmark=" << report.benchmark << "\n";
            writeH2PCsv(std::cout, report);
        }
        return 0;
    }
    if (opts.json) {
        for (const H2PReport &report : reports) {
            writeH2PJson(std::cout, report);
            std::cout << "\n";
        }
        return 0;
    }

    const std::size_t top = args.getUint("top");
    for (const H2PReport &report : reports) {
        writeH2PTable(std::cout, report, top);
        std::cout << "\n";
    }
    if (reports.size() >= 2) {
        TextTable table;
        table.setColumns({"predictor A", "predictor B", "|A|", "|B|",
                          "shared", "Jaccard"});
        for (std::size_t i = 0; i < reports.size(); ++i) {
            for (std::size_t j = i + 1; j < reports.size(); ++j) {
                const H2PSetComparison cmp =
                    compareH2PSets(reports[i], reports[j]);
                table.addRow({reports[i].predictorName,
                              reports[j].predictorName,
                              std::to_string(cmp.countA),
                              std::to_string(cmp.countB),
                              std::to_string(cmp.shared),
                              TextTable::fixed(cmp.jaccard, 3)});
            }
        }
        std::cout << "H2P set overlap (coverage "
                  << TextTable::fixed(100.0 * coverage, 0) << "%):\n";
        table.print(std::cout);
    }
    return 0;
}
