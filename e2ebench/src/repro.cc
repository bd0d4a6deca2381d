/**
 * @file
 * repro-cold: the full paper reproduction in one process, starting
 * from an empty trace store — the grids and analyses of table2,
 * fig2–8, ablation_bimode and scheme_comparison on offlineWorkers()
 * threads. Figures 3 and 4 are per-benchmark views of Figure 2's
 * grids, so in one process those grids run once.
 */

#include <filesystem>
#include <iostream>
#include <memory>

#include "analysis/bias_analysis.hh"
#include "core/bimode.hh"
#include "core/factory.hh"
#include "e2e.hh"
#include "predictors/gshare.hh"
#include "sim/size_ladder.hh"
#include "sim/trace_cache.hh"
#include "trace/trace_store.hh"
#include "workload/generator.hh"

namespace bpsim::e2e
{

namespace
{

/** One job's identity and counts, for the scalar re-run sample. */
struct JobRecord
{
    std::string config;
    std::size_t benchmark = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredictions = 0;
    std::uint64_t taken = 0;
};

/** One reproduction from an empty store. */
class ReproUnit
{
  public:
    ReproUnit(const Options &options, const std::vector<WorkloadSpec> &suite,
              std::string storeDir, Checks &checks)
        : opts(options), suite(suite), storeDir(std::move(storeDir)),
          checks(checks)
    {
    }

    /** Generates, packs and stores every trace; returns seconds. */
    double setup();

    /** The grids and analyses; setup() must have run. */
    void reproduce();

    /** Σ kernel pass time of the scheme comparison's fast kinds at
     *  @p tier, in ns (the sim.auto_tier_regret input). */
    double schemePassNs(KernelTier tier);

    /** Re-runs a seeded sample of jobs unfused on the scalar tier. */
    void checkScalarSample(std::uint64_t seed);

    OfflineTally tally;
    double residentMb = 0.0;

  private:
    std::vector<JobResult> runGrid(const std::vector<std::string> &configs,
                                   const std::vector<std::size_t> &which);
    void table2();
    void fig2();
    void ablation();
    void schemeComparison();
    void analyses();
    std::vector<std::size_t> suiteIndices(const std::string &suiteName) const;

    const Options &opts;
    const std::vector<WorkloadSpec> &suite;
    std::string storeDir;
    Checks &checks;
    std::unique_ptr<TraceCache> cache;
    std::vector<BenchmarkTrace> benchmarks;
    std::vector<JobRecord> jobs;
};

double
ReproUnit::setup()
{
    std::filesystem::remove_all(storeDir);
    const auto start = Clock::now();
    if (!tracer().isEnabled()) {
        // The path every bench binary takes: TraceCache over the store
        // the --trace-cache flag resolves to.
        cache = std::make_unique<TraceCache>(resolveTraceStoreDir(storeDir));
        benchmarks = resolveTraces(*cache, suite);
    } else {
        // The same cold path, decomposed so each layer gets a span:
        // generate, write BBT1, pack, write PBT1.
        const TraceStore store(storeDir);
        benchmarks.clear();
        for (const WorkloadSpec &spec : suite) {
            std::shared_ptr<const MemoryTrace> trace;
            {
                const Tracer::Scope span(tracer(), "workload.generate");
                trace = std::make_shared<const MemoryTrace>(
                    generateWorkloadTrace(spec));
            }
            const std::uint64_t fingerprint = workloadTraceFingerprint(spec);
            std::string why;
            {
                const Tracer::Scope span(tracer(), "trace.store_write");
                checks.expect(store.storeTrace(spec.name, fingerprint, *trace,
                                               why),
                              "store BBT1 " + spec.name + ": " + why);
            }
            std::shared_ptr<const PackedTrace> packed;
            {
                const Tracer::Scope span(tracer(), "trace.pack");
                packed = std::make_shared<const PackedTrace>(*trace);
            }
            {
                const Tracer::Scope span(tracer(), "trace.store_write");
                checks.expect(store.storePacked(spec.name, fingerprint,
                                                *packed, why),
                              "store PBT1 " + spec.name + ": " + why);
            }
            benchmarks.push_back({spec.name, trace, packed});
        }
    }
    const double seconds = secondsSince(start);
    residentMb = 0.0;
    for (const BenchmarkTrace &b : benchmarks)
        residentMb += residentTraceMb(b);
    return seconds;
}

std::vector<std::size_t>
ReproUnit::suiteIndices(const std::string &suiteName) const
{
    std::vector<std::size_t> which;
    for (std::size_t b = 0; b < suite.size(); ++b)
        if (suiteName.empty() || suite[b].suite == suiteName)
            which.push_back(b);
    return which;
}

std::vector<JobResult>
ReproUnit::runGrid(const std::vector<std::string> &configs,
                   const std::vector<std::size_t> &which)
{
    std::vector<BenchmarkTrace> grid;
    for (std::size_t b : which)
        grid.push_back(benchmarks[b]);
    Campaign campaign;
    campaign.addGrid(configs, grid);
    const std::vector<JobResult> results =
        runCampaign(campaign, opts.workers, checks, tally);
    for (const JobResult &job : results) {
        const std::size_t c = job.index / which.size();
        jobs.push_back({configs[c], which[job.index % which.size()],
                        job.result.branches, job.result.mispredictions,
                        job.result.takenBranches});
    }
    return results;
}

void
ReproUnit::table2()
{
    tally.output += traceStatsRows(benchmarks, opts.workers);
}

void
ReproUnit::fig2()
{
    for (const char *suiteName : {"SPEC CINT95", "IBS-Ultrix"}) {
        const std::vector<std::size_t> which = suiteIndices(suiteName);
        const double count = static_cast<double>(which.size());
        for (const SizePoint &size : paperSizeLadder()) {
            // The gshare history sweep of paper §3.1; m == n is
            // gshare.1PHT.
            const unsigned n = size.gshareIndexBits;
            std::vector<std::string> configs;
            for (unsigned m = 0; m <= n; ++m)
                configs.push_back("gshare:n=" + std::to_string(n) +
                                  ",h=" + std::to_string(m));
            const std::vector<JobResult> sweep = runGrid(configs, which);
            std::vector<double> average(configs.size(), 0.0);
            for (const JobResult &job : sweep)
                average[job.index / which.size()] +=
                    job.result.mispredictionRate() / count;
            std::size_t best = 0;
            for (std::size_t m = 1; m < average.size(); ++m)
                if (average[m] < average[best])
                    best = m;

            const std::vector<JobResult> bimode = runGrid(
                {"bimode:d=" + std::to_string(size.bimodeDirectionBits)},
                which);
            double bimodeAverage = 0.0;
            for (const JobResult &job : bimode)
                bimodeAverage += job.result.mispredictionRate() / count;
            tally.output += std::string("fig2 ") + suiteName + " n=" +
                      std::to_string(n) + " 1pht=" + exact(average.back()) +
                      " best=" + exact(average[best]) +
                      " h=" + std::to_string(best) +
                      " bimode=" + exact(bimodeAverage) + "\n";
        }
    }
}

void
ReproUnit::ablation()
{
    const std::string base = "bimode:d=11";
    runGrid({base, base + ",partial=0", base + ",alwayschoice=1",
             base + ",partial=0,alwayschoice=1", base + ",c=10",
             base + ",c=12", base + ",h=9", base + ",h=7"},
            suiteIndices("SPEC CINT95"));
}

/** The scheme comparison's three budget classes (bench/
 *  scheme_comparison.cc). */
const std::vector<std::vector<std::string>> &
schemeBudgets()
{
    static const std::vector<std::vector<std::string>> budgets = {
        {"bimodal:n=12", "gshare:n=12", "gshare:n=12,h=9", "gas:h=8,a=4",
         "pas:h=6,l=9,a=6", "agree:n=12", "filter:n=12", "gskew:n=10",
         "bimode:d=10", "yags:c=11,n=9", "tournament:n=10",
         "perceptron:n=5,h=21"},
        {"bimodal:n=14", "gshare:n=14", "gshare:n=14,h=11", "gas:h=10,a=4",
         "pas:h=8,l=10,a=6", "agree:n=14", "filter:n=14", "gskew:n=12",
         "bimode:d=12", "yags:c=13,n=11", "tournament:n=12",
         "perceptron:n=7,h=21"},
        {"bimodal:n=16", "gshare:n=16", "gshare:n=16,h=13", "gas:h=12,a=4",
         "pas:h=10,l=11,a=6", "agree:n=16", "filter:n=16", "gskew:n=14",
         "bimode:d=14", "yags:c=15,n=13", "tournament:n=14",
         "perceptron:n=9,h=21"},
    };
    return budgets;
}

void
ReproUnit::schemeComparison()
{
    for (const std::vector<std::string> &budget : schemeBudgets())
        runGrid(budget, suiteIndices(""));
}

double
ReproUnit::schemePassNs(KernelTier tier)
{
    SimConfig config;
    config.kernelTier = tier;
    double ns = 0.0;
    for (const std::vector<std::string> &budget : schemeBudgets()) {
        Campaign campaign;
        for (const std::string &text : budget) {
            if (fastReplayKind(text).empty())
                continue;
            for (const BenchmarkTrace &b : benchmarks)
                campaign.addJob(text, b, config);
        }
        for (const JobResult &job : campaign.run(opts.workers))
            ns += static_cast<double>(job.result.wallNanos);
    }
    return ns;
}

void
ReproUnit::analyses()
{
    struct Task
    {
        std::string label;
        std::size_t benchmark;
        std::function<PredictorPtr()> build;
        bool profile;
    };
    std::size_t gcc = 0, go = 0;
    for (std::size_t b = 0; b < suite.size(); ++b) {
        if (suite[b].name == "gcc")
            gcc = b;
        if (suite[b].name == "go")
            go = b;
    }
    std::vector<Task> tasks;
    // Figure 5: history- vs address-indexed 256-counter gshare.
    for (unsigned m : {8u, 2u})
        tasks.push_back({"fig5 m=" + std::to_string(m), gcc,
                         [m] { return std::make_unique<GsharePredictor>(8, m); },
                         true});
    // Figure 6: 128-counter choice + two 128-counter banks.
    tasks.push_back({"fig6", gcc,
                     [] {
                         BiModeConfig cfg;
                         cfg.directionIndexBits = 7;
                         cfg.choiceIndexBits = 7;
                         cfg.historyBits = 7;
                         return std::make_unique<BiModePredictor>(cfg);
                     },
                     true});
    // Figures 7 and 8: bias-class breakdown at 256, 1K, 32K counters.
    for (const auto &[figure, bench] :
         {std::pair<const char *, std::size_t>{"fig7", gcc}, {"fig8", go}}) {
        for (unsigned n : {8u, 10u, 15u}) {
            for (const std::string &config :
                 {"gshare:n=" + std::to_string(n) + ",h=" +
                      std::to_string(n - 6),
                  "gshare:n=" + std::to_string(n),
                  "bimode:d=" + std::to_string(n - 1)}) {
                tasks.push_back({std::string(figure) + " " + config, bench,
                                 [config] { return makePredictor(config); },
                                 false});
            }
        }
    }

    std::vector<std::string> rows(tasks.size());
    parallelFor(tasks.size(), opts.workers, [&](std::size_t t) {
        const Task &task = tasks[t];
        PredictorPtr predictor;
        {
            const Tracer::Scope span(tracer(), "core.build");
            predictor = task.build();
        }
        const Tracer::Scope span(tracer(), "analysis.bias");
        auto reader = benchmarks[task.benchmark].trace->reader();
        BiasAnalysis analysis(*predictor, reader);
        analysis.run();
        std::string row = task.label + " misp=" +
                          std::to_string(analysis.result().mispredictions);
        if (task.profile) {
            const CounterProfile p = analysis.counterProfile();
            row += " active=" + std::to_string(p.activeCounters) +
                   " dom=" + exact(p.meanDominantShare) +
                   " nondom=" + exact(p.meanNonDominantShare) +
                   " wb=" + exact(p.meanWbShare) +
                   " tdom=" + exact(p.trafficDominantShare) +
                   " twb=" + exact(p.trafficWbShare);
        } else {
            const MispredictionBreakdown b = analysis.breakdown();
            row += " snt=" + exact(b.sntPercent) + " st=" + exact(b.stPercent) +
                   " wb=" + exact(b.wbPercent);
        }
        rows[t] = row + "\n";
    });
    for (const std::string &row : rows) {
        tally.output += row;
        checks.expect(!row.empty(), "analysis produced no numbers");
    }
}

void
ReproUnit::reproduce()
{
    {
        const Tracer::Scope span(tracer(), "phase.table2");
        table2();
    }
    {
        const Tracer::Scope span(tracer(), "phase.fig2-4");
        fig2();
    }
    {
        const Tracer::Scope span(tracer(), "phase.ablation");
        ablation();
    }
    {
        const Tracer::Scope span(tracer(), "phase.scheme_comparison");
        schemeComparison();
    }
    {
        const Tracer::Scope span(tracer(), "phase.fig5-8");
        analyses();
    }
}

void
ReproUnit::checkScalarSample(std::uint64_t seed)
{
    // Counts are tier-invariant and fusion-invariant, so an unfused
    // scalar re-run is an independent path to the same numbers.
    Rng rng(seed + 0x5ca1a7);
    std::vector<JobRecord> sample;
    for (int i = 0; i < 8 && !jobs.empty(); ++i)
        sample.push_back(jobs[rng.nextBounded(jobs.size())]);
    Campaign campaign;
    campaign.setFusion(false);
    SimConfig config;
    config.kernelTier = KernelTier::Scalar;
    for (const JobRecord &job : sample)
        campaign.addJob(job.config, benchmarks[job.benchmark], config);
    const std::vector<JobResult> rerun = campaign.run(opts.workers);
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const SimResult &r = rerun[i].result;
        checks.expect(rerun[i].ok() && r.branches == sample[i].branches &&
                          r.mispredictions == sample[i].mispredictions &&
                          r.takenBranches == sample[i].taken,
                      "scalar re-run of " + sample[i].config + " on " +
                          suite[sample[i].benchmark].name +
                          " disagrees with the campaign counts");
    }
}

} // namespace

void
runReproCold(const Options &options, Checks &checks, Measured &m)
{
    const std::vector<WorkloadSpec> suite = seededSuite(options.seed);
    const std::string storeDir = options.workDir + "/repro-store";
    const auto runStart = Clock::now();

    // Extra cold set-ups, so setup_s is a median of several.
    if (!options.trace) {
        for (int i = 0; i < 2; ++i) {
            ReproUnit unit(options, suite, storeDir, checks);
            m.setupSeconds.push_back(unit.setup());
        }
    }

    std::string firstDigest;
    const auto measureStart = Clock::now();
    std::unique_ptr<ReproUnit> last;
    while (true) {
        const double elapsed = secondsSince(measureStart);
        // A traced run spends its first half untraced, for the
        // tracing-overhead comparison.
        const bool traced =
            options.trace &&
            (!m.untracedWallSeconds.empty() && elapsed >= options.seconds / 2);
        const bool done = options.trace
                              ? !m.tracedWallSeconds.empty() &&
                                    elapsed >= options.seconds
                              : !m.wallSeconds.empty() &&
                                    elapsed >= options.seconds;
        if (done)
            break;
        last.reset();
        tracer().setEnabled(traced);
        auto unit =
            std::make_unique<ReproUnit>(options, suite, storeDir, checks);
        const auto unitStart = Clock::now();
        double setup = 0.0;
        {
            const Tracer::Scope root(tracer(), "e2e.unit");
            setup = unit->setup();
            unit->reproduce();
        }
        const double wall = secondsSince(unitStart);
        tracer().setEnabled(false);

        m.setupSeconds.push_back(setup);
        m.wallSeconds.push_back(wall);
        (traced ? m.tracedWallSeconds : m.untracedWallSeconds)
            .push_back(wall);
        const OfflineTally &tally = unit->tally;
        m.addRates(wall - setup, tally.sim.branches, tally.campaigns);
        m.latencyMs.insert(m.latencyMs.end(), tally.jobLatencyMs.begin(),
                           tally.jobLatencyMs.end());
        if (traced) {
            m.sim.merge(tally.sim);
            m.generated += suite.size();
            m.residentMb = unit->residentMb;
        }

        const std::string digest = hexDigest(tally.output);
        std::cerr << "e2e: repro-cold unit " << wall << " s (setup " << setup
                  << " s), digest " << digest << "\n";
        if (firstDigest.empty())
            firstDigest = digest;
        checks.expect(digest == firstDigest,
                      "repro digest changed between units in one run");
        if (options.seed == kDefaultSeed)
            checkPinnedDigest(checks, options.referenceFile,
                              "repro-cold.digest", digest);
        unit->checkScalarSample(options.seed + m.wallSeconds.size());
        last = std::move(unit);
    }

    if (options.trace && last) {
        // Kernel-tier regret of `auto` on the scheme comparison's
        // narrow banks (untimed, after the traced units).
        const double autoNs = last->schemePassNs(KernelTier::Auto);
        double bestNs = 0.0;
        for (KernelTier tier : availableKernelTiers()) {
            const double ns = last->schemePassNs(tier);
            std::cerr << "e2e: scheme pass at " << kernelTierName(tier)
                      << " " << ns / 1e6 << " ms\n";
            if (bestNs == 0.0 || ns < bestNs)
                bestNs = ns;
        }
        m.autoTierRegret = bestNs > 0.0 ? autoNs / bestNs : 0.0;
    }
    m.spans = tracer().spans();
    m.peakRssMb = peakRssMb();
    std::filesystem::remove_all(storeDir);
    std::cerr << "e2e: repro-cold run " << secondsSince(runStart) << " s\n";
}

} // namespace bpsim::e2e
