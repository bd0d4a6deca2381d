#include "common/bench_common.hh"

#include <algorithm>
#include <iostream>

#include "analysis/bias_analysis.hh"
#include "core/factory.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace bpsim::bench
{

void
addCommonOptions(ArgParser &args)
{
    CommonOptions::declare(args);
    args.addOption("kernel-tier", "auto",
                   "banked replay kernel backend (auto, scalar, neon, "
                   "avx2, avx512); counts are identical on every tier");
}

std::uint64_t
applyCommonOptions(const ArgParser &args)
{
    const CommonOptions opts = CommonOptions::fromArgs(args);
    setVerbose(opts.verbose);
    const std::string name = args.get("kernel-tier");
    KernelTier tier = KernelTier::Auto;
    if (!parseKernelTier(name, tier)) {
        BPSIM_WARN("--kernel-tier '" << name
                   << "' is not a tier name (auto, scalar, neon, "
                   << "avx2, avx512); using auto");
        tier = KernelTier::Auto;
    }
    setKernelTierOverride(tier);
    return opts.quickDivisor();
}

std::string
traceStoreDir(const ArgParser &args)
{
    return resolveTraceStoreDir(args.get("trace-cache"));
}

ProgressFn
verboseProgress()
{
    if (!verbose())
        return {};
    return [](const CampaignProgress &progress) {
        BPSIM_INFORM("[" << progress.completed << "/" << progress.total
                     << "] " << progress.latest->benchmark << " × "
                     << progress.latest->configText
                     << (progress.latest->ok()
                             ? ""
                             : " FAILED: " + progress.latest->error));
    };
}

void
maybeEmitJson(const ArgParser &args,
              const std::vector<JobResult> &results,
              const std::string &title)
{
    if (!args.flag("json"))
        return;
    std::cout << "\n[json] " << title << "\n";
    // Timing is opt-in so default JSON stays byte-identical across
    // machines and --jobs values.
    writeResultsJson(std::cout, results, args.flag("timing"));
    std::cout.flush();
}

std::vector<WorkloadSpec>
scaledSuite(std::vector<WorkloadSpec> specs, std::uint64_t divisor)
{
    for (auto &spec : specs)
        spec = scaledBenchmark(std::move(spec), divisor);
    return specs;
}

void
emitTable(const ArgParser &args, const TextTable &table,
          const std::string &title)
{
    std::cout << "\n## " << title << "\n\n";
    table.print(std::cout);
    if (args.flag("csv")) {
        std::cout << "\n[csv] " << title << "\n";
        table.printCsv(std::cout);
    }
    std::cout.flush();
}

std::vector<SchemeCurvePoint>
measureSchemeCurves(TraceCache &cache,
                    const std::vector<WorkloadSpec> &specs,
                    const std::vector<SizePoint> &ladder,
                    unsigned workers)
{
    const std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, specs, workers);

    std::vector<SchemeCurvePoint> curve;
    curve.reserve(ladder.size());

    for (const SizePoint &size : ladder) {
        BPSIM_INFORM("sweeping gshare at n=" << size.gshareIndexBits);
        SchemeCurvePoint point;
        point.size = size;

        // Exhaustive history sweep (paper section 3.1), a campaign
        // grid inside sweepGshare(). The benchmarks carry packed
        // traces, so the whole sweep fuses into one banked replay
        // pass per benchmark. The m == n point doubles as
        // gshare.1PHT.
        const GshareSweepResult sweep =
            sweepGshare(size.gshareIndexBits, benchmarks, 0, workers);
        const GshareSweepPoint &best = sweep.best();
        const GshareSweepPoint &pht1 = sweep.points.back();
        point.bestHistoryBits = best.historyBits;
        point.pht1 = pht1.perBenchmark;
        point.pht1Average = pht1.average;
        point.best = best.perBenchmark;
        point.bestAverage = best.average;

        // The natural bi-mode point at this rung: one campaign of
        // the canonical config over the whole suite. The factory's
        // "bimode:d=<d>" defaults are BiModeConfig::canonical(d).
        Campaign bimodeJobs;
        bimodeJobs.addGrid(
            {"bimode:d=" + std::to_string(size.bimodeDirectionBits)},
            benchmarks);
        const std::vector<JobResult> results =
            bimodeJobs.run(workers, verboseProgress());
        double total = 0.0;
        for (const JobResult &job : results) {
            if (!job.ok())
                BPSIM_FATAL("bi-mode job failed: " << job.error);
            point.bimode.push_back(job.result.mispredictionRate());
            total += job.result.mispredictionRate();
        }
        point.bimodeAverage =
            total / static_cast<double>(benchmarks.size());
        curve.push_back(std::move(point));
    }
    return curve;
}

void
runBreakdownFigure(const ArgParser &args,
                   const std::string &benchmarkName,
                   std::uint64_t divisor, const std::string &figureLabel)
{
    auto spec = findBenchmark(benchmarkName);
    if (!spec)
        BPSIM_FATAL("unknown benchmark '" << benchmarkName << "'");
    spec->dynamicBranches /= divisor;
    TraceCache cache(traceStoreDir(args));
    const MemoryTrace &trace = cache.traceFor(*spec);

    TextTable table;
    table.setColumns({"second level", "scheme", "SNT %", "ST %", "WB %",
                      "total %"});

    // The paper's three size classes: 256, 1K and 32K counters.
    for (unsigned n : {8u, 10u, 15u}) {
        struct Scheme
        {
            std::string label;
            PredictorPtr predictor;
        };
        std::vector<Scheme> schemes;
        schemes.push_back(
            {"gshare(" + std::to_string(n - 6) + ")",
             makePredictor("gshare:n=" + std::to_string(n) +
                           ",h=" + std::to_string(n - 6))});
        schemes.push_back(
            {"gshare(" + std::to_string(n) + ")",
             makePredictor("gshare:n=" + std::to_string(n))});
        schemes.push_back(
            {"bimode(" + std::to_string(n - 1) + ")",
             makePredictor("bimode:d=" + std::to_string(n - 1))});

        const std::string size_label =
            n == 8 ? "256" : n == 10 ? "1K" : "32K";
        for (Scheme &scheme : schemes) {
            auto reader = trace.reader();
            BiasAnalysis analysis(*scheme.predictor, reader);
            analysis.run();
            const MispredictionBreakdown breakdown =
                analysis.breakdown();
            table.addRow({size_label + " counters", scheme.label,
                          TextTable::fixed(breakdown.sntPercent, 2),
                          TextTable::fixed(breakdown.stPercent, 2),
                          TextTable::fixed(breakdown.wbPercent, 2),
                          TextTable::fixed(breakdown.totalPercent(),
                                           2)});
        }
        table.addRule();
    }
    emitTable(args, table,
              figureLabel + ": misprediction by bias class (" +
                  spec->name + ")");
}

void
emitCounterProfile(const ArgParser &args, const CounterProfileView &view)
{
    const CounterProfile &profile = *view.profile;
    std::cout << "\n## " << view.title << " — " << view.schemeLabel
              << "\n\n";
    std::cout << "active counters: " << profile.activeCounters << "\n"
              << "region areas (mean per-counter shares, %):\n"
              << "  dominant     "
              << TextTable::fixed(100 * profile.meanDominantShare, 2)
              << "\n  non-dominant "
              << TextTable::fixed(100 * profile.meanNonDominantShare, 2)
              << "\n  WB           "
              << TextTable::fixed(100 * profile.meanWbShare, 2) << "\n"
              << "traffic-weighted shares (%): dominant "
              << TextTable::fixed(100 * profile.trafficDominantShare, 2)
              << ", non-dominant "
              << TextTable::fixed(100 * profile.trafficNonDominantShare,
                                  2)
              << ", WB "
              << TextTable::fixed(100 * profile.trafficWbShare, 2)
              << "\n";

    TextTable table;
    table.setColumns({"counter (WB-sorted rank)", "traffic",
                      "dominant %", "non-dominant %", "WB %"});
    const std::size_t n = profile.counters.size();
    const std::size_t step =
        view.maxRows == 0 ? 1 : std::max<std::size_t>(1, n / view.maxRows);
    for (std::size_t i = 0; i < n; i += step) {
        const CounterBias &c = profile.counters[i];
        table.addRow({
            std::to_string(i),
            TextTable::grouped(c.total),
            TextTable::fixed(100 * c.dominantShare(), 1),
            TextTable::fixed(100 * c.nonDominantShare(), 1),
            TextTable::fixed(100 * c.wbShare(), 1),
        });
    }
    table.print(std::cout);

    if (args.flag("csv")) {
        TextTable full;
        full.setColumns({"rank", "counterId", "traffic", "dominant",
                         "nonDominant", "wb"});
        for (std::size_t i = 0; i < n; ++i) {
            const CounterBias &c = profile.counters[i];
            full.addRow({std::to_string(i), std::to_string(c.counterId),
                         std::to_string(c.total),
                         TextTable::fixed(c.dominantShare(), 6),
                         TextTable::fixed(c.nonDominantShare(), 6),
                         TextTable::fixed(c.wbShare(), 6)});
        }
        std::cout << "\n[csv] " << view.title << "\n";
        full.printCsv(std::cout);
    }
    std::cout.flush();
}

} // namespace bpsim::bench
