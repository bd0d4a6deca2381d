/**
 * @file
 * bpsim_client — command-line driver for the campaign service.
 *
 * Submits one config × benchmark campaign to a running bpsim_serve
 * daemon and prints the reassembled results JSON to stdout. With
 * --offline the same grid runs in-process through Campaign::run()
 * instead — the output is byte-identical by contract, which is
 * exactly what the CI smoke test diffs:
 *
 *   bpsim_client --socket S --id a --configs gshare:n=10,bimode:d=9 \
 *                --benchmarks go,compress --quick        > served.json
 *   bpsim_client --offline  --configs gshare:n=10,bimode:d=9 \
 *                --benchmarks go,compress --quick        > offline.json
 *   diff served.json offline.json
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/h2p.hh"
#include "campaign/campaign.hh"
#include "campaign/emitters.hh"
#include "serve/client.hh"
#include "trace/trace_store.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/benchmarks.hh"

namespace
{

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream is(text);
    while (std::getline(is, part, ',')) {
        if (!part.empty())
            parts.push_back(part);
    }
    return parts;
}

/** Options of the --h2p rendering mode. */
struct H2POptions
{
    bool enabled = false;
    double coverage = 0.9;
    std::size_t top = 20;
};

/**
 * Renders streamed result payloads as H2P reports — the same tables
 * examples/h2p_report prints, built from the serialized per-branch
 * arrays instead of in-process SimResults.
 */
int
renderH2P(const std::vector<std::string> &payloads,
          const H2POptions &h2p)
{
    using namespace bpsim;

    std::vector<H2PReport> reports;
    for (const std::string &payload : payloads) {
        std::string error;
        const auto result = parseSimResultJson(payload, error);
        if (!result)
            BPSIM_FATAL("bad result payload: " << error);
        if (result->perBranch.empty()) {
            BPSIM_FATAL("result for '"
                        << result->predictorName
                        << "' has no per-branch data (daemon too old "
                           "for perBranch requests?)");
        }
        reports.push_back(buildH2PReport(*result, h2p.coverage));
    }
    for (const H2PReport &report : reports) {
        writeH2PTable(std::cout, report, h2p.top);
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
                  << TextTable::fixed(100.0 * h2p.coverage, 0)
                  << "%):\n";
        table.print(std::cout);
    }
    std::cout.flush();
    return 0;
}

int
runOffline(const bpsim::serve::CampaignRequest &request,
           const std::string &traceCacheFlag, unsigned workers,
           const H2POptions &h2p)
{
    using namespace bpsim;

    TraceCache cache(resolveTraceStoreDir(traceCacheFlag));
    std::vector<WorkloadSpec> specs;
    for (const std::string &name : request.benchmarks) {
        auto spec = findBenchmark(name);
        if (!spec)
            BPSIM_FATAL("unknown benchmark '" << name << "'");
        specs.push_back(
            scaledBenchmark(std::move(*spec), request.divisor));
    }

    Campaign campaign;
    SimConfig simConfig;
    simConfig.warmupBranches = request.warmup;
    simConfig.trackPerBranch = request.perBranch;
    campaign.addGrid(request.configs,
                     resolveTraces(cache, specs, workers), simConfig);
    const std::vector<JobResult> results = campaign.run(workers);
    if (h2p.enabled) {
        // Round-trip through the serialized form so --offline --h2p
        // is byte-identical to the daemon path by construction.
        std::vector<std::string> payloads;
        payloads.reserve(results.size());
        for (const JobResult &result : results) {
            std::ostringstream os;
            writeResultJson(os, result, request.timing);
            payloads.push_back(os.str());
        }
        return renderH2P(payloads, h2p);
    }
    writeResultsJson(std::cout, results, request.timing);
    std::cout.flush();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bpsim;

    ArgParser args("bpsim_client",
                   "Submits one campaign to a bpsim_serve daemon and "
                   "prints the streamed results as the offline JSON "
                   "array (byte-identical to --offline).");
    args.addOption("socket", "/tmp/bpsim-serve.sock",
                   "daemon socket path");
    args.addOption("id", "campaign",
                   "campaign id echoed on every event");
    args.addOption("configs", "",
                   "comma-separated predictor configs "
                   "(e.g. gshare:n=10,bimode:d=9)");
    args.addOption("benchmarks", "",
                   "comma-separated benchmark names (e.g. go,compress)");
    args.addOption("warmup", "0",
                   "warm-up branches excluded from statistics");
    args.addFlag("offline",
                 "run the same grid in-process via Campaign::run() "
                 "instead of the daemon (for diffing)");
    args.addFlag("per-branch",
                 "request per-branch accounting; each payload gains "
                 "the perBranch array");
    args.addFlag("h2p",
                 "render results as hard-to-predict branch reports "
                 "(analysis/h2p.hh) instead of the JSON array; "
                 "implies --per-branch");
    args.addOption("coverage", "90",
                   "--h2p: misprediction share (percent) the H2P set "
                   "covers");
    args.addOption("top", "20", "--h2p: ranking rows per table");
    CommonOptions::declare(args);
    if (!args.parse(argc, argv))
        return 0;

    const CommonOptions opts = CommonOptions::fromArgs(args);
    setVerbose(opts.verbose);

    serve::CampaignRequest request;
    request.id = args.get("id");
    request.configs = splitCommas(args.get("configs"));
    request.benchmarks = splitCommas(args.get("benchmarks"));
    request.divisor = opts.quickDivisor();
    request.warmup = args.getUint("warmup");
    request.timing = opts.timing;
    H2POptions h2p;
    h2p.enabled = args.flag("h2p");
    h2p.coverage = args.getDouble("coverage") / 100.0;
    h2p.top = static_cast<std::size_t>(args.getUint("top"));
    request.perBranch = args.flag("per-branch") || h2p.enabled;
    if (request.configs.empty() || request.benchmarks.empty())
        BPSIM_FATAL("--configs and --benchmarks are required");

    if (args.flag("offline"))
        return runOffline(request, opts.traceCache, opts.jobs, h2p);

    serve::ServeClient client;
    std::string error;
    if (!client.connect(args.get("socket"), error))
        BPSIM_FATAL("cannot reach daemon: " << error);

    const auto payloads = client.runCampaign(request, error);
    if (!payloads)
        BPSIM_FATAL("campaign failed: " << error);
    if (h2p.enabled)
        return renderH2P(*payloads, h2p);
    std::cout << serve::joinResultsJson(*payloads);
    std::cout.flush();
    return 0;
}
