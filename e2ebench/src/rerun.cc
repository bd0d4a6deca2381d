/**
 * @file
 * rerun-warm: what a user pays to re-run from a trace store primed by
 * an untimed run — the table2 statistics of all fourteen benchmarks,
 * bimode:d=12 and gshare:n=13 over the suite, and one per-branch
 * bimode:d=12 job reduced to an H2P report. The store is reached only
 * through resolveTraceStoreDir(), like every bench binary, so if the
 * store is ever retired the workload still runs by regenerating.
 */

#include <filesystem>
#include <iostream>
#include <sstream>

#include "analysis/h2p.hh"
#include "e2e.hh"
#include "sim/trace_cache.hh"
#include "trace/pc_index.hh"
#include "trace/trace_store.hh"

namespace bpsim::e2e
{

namespace
{

/** The benchmark of the per-branch job. */
constexpr const char *kProbedBenchmark = "gcc";

/** One re-run over the store in @p storeDir. */
struct RerunUnit
{
    OfflineTally tally;
    double setupSeconds = 0.0;
    TraceCache::Stats cacheStats;
    double residentMb = 0.0;

    void
    run(const Options &opts, const std::vector<WorkloadSpec> &suite,
        const std::string &storeDir, Checks &checks)
    {
        const auto start = Clock::now();
        TraceCache cache(resolveTraceStoreDir(storeDir));
        std::vector<BenchmarkTrace> benchmarks;
        for (const WorkloadSpec &spec : suite) {
            const Tracer::Scope span(tracer(), "trace.store_load");
            benchmarks.push_back({spec.name, cache.handleFor(spec),
                                  cache.packedHandleFor(spec)});
        }
        setupSeconds = secondsSince(start);
        cacheStats = cache.stats();
        for (const BenchmarkTrace &b : benchmarks)
            residentMb += residentTraceMb(b);

        tally.output += traceStatsRows(benchmarks, opts.workers);

        Campaign campaign;
        campaign.addGrid({"bimode:d=12", "gshare:n=13"}, benchmarks);
        SimConfig probed;
        probed.trackPerBranch = true;
        const BenchmarkTrace *target = nullptr;
        for (const BenchmarkTrace &b : benchmarks)
            if (b.name == kProbedBenchmark)
                target = &b;
        const std::size_t probedIndex =
            campaign.addJob("bimode:d=12", *target, probed).index;
        const std::vector<JobResult> results =
            runCampaign(campaign, opts.workers, checks, tally);

        if (tracer().isEnabled()) {
            // The index every probed pass builds inside the kernel,
            // timed on its own.
            const Tracer::Scope span(tracer(), "trace.pcindex");
            const PcIndex index(*target->packed);
            checks.expect(index.staticCount() > 0, "empty PcIndex");
        }
        const JobResult &job = results[probedIndex];
        checks.expect(!job.result.perBranch.empty(),
                      "per-branch job returned no per-branch table");
        std::ostringstream h2p;
        {
            const Tracer::Scope span(tracer(), "analysis.h2p");
            writeH2PCsv(h2p, buildH2PReport(job.result));
        }
        tally.output += h2p.str();
    }
};

} // namespace

void
runRerunWarm(const Options &options, Checks &checks, Measured &m)
{
    const std::vector<WorkloadSpec> suite = seededSuite(options.seed);
    const std::string storeDir = options.workDir + "/rerun-store";
    std::filesystem::remove_all(storeDir);

    // Untimed priming run: generates into the empty store and yields
    // the cold output every warm re-run must reproduce byte for byte.
    std::string cold;
    {
        RerunUnit prime;
        prime.run(options, suite, storeDir, checks);
        cold = prime.tally.output;
        std::cerr << "e2e: rerun-warm primed the store in "
                  << prime.setupSeconds << " s\n";
    }

    const auto measureStart = Clock::now();
    while (true) {
        const double elapsed = secondsSince(measureStart);
        const bool traced =
            options.trace &&
            (!m.untracedWallSeconds.empty() && elapsed >= options.seconds / 2);
        const std::size_t units =
            m.untracedWallSeconds.size() + m.tracedWallSeconds.size();
        if (units >= 3 && elapsed >= options.seconds &&
            (!options.trace || !m.tracedWallSeconds.empty()))
            break;

        tracer().setEnabled(traced);
        RerunUnit unit;
        const auto unitStart = Clock::now();
        {
            const Tracer::Scope root(tracer(), "e2e.unit");
            unit.run(options, suite, storeDir, checks);
        }
        const double wall = secondsSince(unitStart);
        tracer().setEnabled(false);

        m.setupSeconds.push_back(unit.setupSeconds);
        m.wallSeconds.push_back(wall);
        (traced ? m.tracedWallSeconds : m.untracedWallSeconds)
            .push_back(wall);
        m.addRates(wall - unit.setupSeconds, unit.tally.sim.branches,
                   unit.tally.campaigns);
        m.latencyMs.insert(m.latencyMs.end(), unit.tally.jobLatencyMs.begin(),
                           unit.tally.jobLatencyMs.end());
        if (traced) {
            m.sim.merge(unit.tally.sim);
            m.generated += unit.cacheStats.generated;
            const double hits =
                static_cast<double>(unit.cacheStats.packedLoads);
            m.storeHitRatio =
                hits / std::max(1.0, hits + static_cast<double>(
                                                unit.cacheStats.generated));
            m.residentMb = unit.residentMb;
        }
        checks.expect(unit.tally.output == cold,
                      "warm re-run output differs from the cold run");
        std::cerr << "e2e: rerun-warm unit " << wall << " s (setup "
                  << unit.setupSeconds << " s)\n";
    }
    m.spans = tracer().spans();
    m.peakRssMb = peakRssMb();
    std::filesystem::remove_all(storeDir);
}

} // namespace bpsim::e2e
