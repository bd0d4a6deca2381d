/**
 * @file
 * Head-to-head wall time of a multi-configuration campaign on the
 * fused banked-replay path versus the classic per-job kernel path.
 * Not a paper figure — this measures the campaign engine itself, and
 * records the single-pass speedup that makes full figure sweeps
 * affordable.
 *
 * Representative campaign shapes run on one worker, so the numbers
 * isolate fusion (one trace pass for the whole group) from
 * thread-level parallelism:
 *
 *   ladder         the fig2 shape: one gshare rung per table size,
 *                  n = 10..17, over one gcc-like trace
 *   sweep          the gshare.best shape (paper §3.1): every history
 *                  length at one table size, n = 12, h = 0..12
 *   bimode-ladder  the fig3 shape: one bi-mode rung per
 *                  direction-bank size, d = 10..15, on the
 *                  two-gather vector path
 *   scheme-comparison  the §3 cross-scheme shape: two sizes of every
 *                  de-aliasing scheme (bimode, agree, gskew, yags,
 *                  filter, tournament) in one grid, so every scheme
 *                  fuses in one campaign: two-lane banks, bi-mode's
 *                  on the vector tiers and the rest on the scalar
 *                  bank
 *
 * Each shape is timed best-of-N with fusion off and then with fusion
 * on once per available kernel tier (sim/simd/kernel_tier.hh), so
 * the report separates the fusion win (one trace pass) from the
 * vectorization win (SIMD lanes within the fused pass). The JSON
 * report (default BENCH_multiconfig.json) records one row per
 * scenario × tier. The binary re-checks that every fused run emits
 * campaign JSON byte-identical to the per-job path and exits
 * non-zero on any divergence, so a stale baseline can never hide a
 * fusion or tier bug. A forced --kernel-tier restricts the fused
 * runs to that tier alone.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/bench_common.hh"
#include "sim/simd/kernel_tier.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

struct Scenario
{
    std::string name;
    std::vector<std::string> configs;
};

struct Timed
{
    std::uint64_t nanos = 0;
    std::vector<JobResult> results;
};

/** Times one single-worker campaign run, best of @p reps. */
Timed
timeCampaign(const std::vector<std::string> &configs,
             const std::vector<BenchmarkTrace> &benchmarks, bool fuse,
             unsigned reps)
{
    Timed best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        Campaign campaign;
        campaign.addGrid(configs, benchmarks);
        campaign.setFusion(fuse);
        const auto start = std::chrono::steady_clock::now();
        std::vector<JobResult> results = campaign.run(1);
        const auto stop = std::chrono::steady_clock::now();
        const std::uint64_t nanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                stop - start)
                .count());
        if (rep == 0 || nanos < best.nanos) {
            best.nanos = nanos;
            best.results = std::move(results);
        }
    }
    return best;
}

std::string
resultsJson(const std::vector<JobResult> &results)
{
    std::ostringstream out;
    writeResultsJson(out, results);
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perf_multiconfig",
                   "Fused banked-replay campaign vs per-job kernel "
                   "campaign wall time.");
    addCommonOptions(args);
    // Larger default than perf_replay: the trace must outgrow the
    // last-level cache for the per-job baseline to pay the per-pass
    // streaming cost it pays on real figure-sized traces.
    args.addOption("branches", "8000000",
                   "dynamic branch count of the timing trace");
    args.addOption("reps", "5", "timed repetitions per path (best-of)");
    args.addOption("out", "BENCH_multiconfig.json",
                   "path of the JSON report");
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);
    const unsigned reps = static_cast<unsigned>(
        std::max<std::uint64_t>(args.getUint("reps"), 1));

    // Fused runs are timed once per tier; a forced --kernel-tier
    // narrows the sweep to that tier alone (the override is already
    // process-wide via applyCommonOptions).
    std::vector<KernelTier> tiers;
    KernelTier forced = KernelTier::Auto;
    parseKernelTier(args.get("kernel-tier"), forced);
    if (forced != KernelTier::Auto)
        tiers.push_back(resolveKernelTier(forced));
    else
        tiers = availableKernelTiers();

    auto spec = findBenchmark("gcc");
    spec->dynamicBranches = std::max<std::uint64_t>(
        args.getUint("branches") / divisor, 50'000);
    TraceCache cache(traceStoreDir(args));
    const std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, {*spec});
    BPSIM_INFORM("timing trace: " << benchmarks[0].packed->size()
                 << " conditionals");

    std::vector<Scenario> scenarios;
    {
        Scenario ladder;
        ladder.name = "ladder";
        for (unsigned n = 10; n <= 17; ++n)
            ladder.configs.push_back("gshare:n=" + std::to_string(n));
        scenarios.push_back(std::move(ladder));

        Scenario sweep;
        sweep.name = "sweep";
        for (unsigned h = 0; h <= 12; ++h)
            sweep.configs.push_back("gshare:n=12,h=" +
                                    std::to_string(h));
        scenarios.push_back(std::move(sweep));

        // The fig3 shape: one bi-mode rung per direction-bank size —
        // the paper's own predictor on the two-gather vector path.
        Scenario bimode;
        bimode.name = "bimode-ladder";
        for (unsigned d = 10; d <= 15; ++d)
            bimode.configs.push_back("bimode:d=" + std::to_string(d));
        scenarios.push_back(std::move(bimode));

        // The §3 cross-scheme shape: two sizes of every de-aliasing
        // scheme in one grid. The campaign fuses each kind into its
        // own two-lane bank; only bi-mode's takes a vector tier.
        Scenario schemes;
        schemes.name = "scheme-comparison";
        schemes.configs = {
            "bimode:d=11",            "bimode:d=12",
            "agree:n=11,h=11,b=11",   "agree:n=12,h=12,b=12",
            "gskew:n=10,h=10",        "gskew:n=11,h=11",
            "yags:c=11,n=9",          "yags:c=12,n=10",
            "filter:n=11,h=9,b=11,k=3", "filter:n=12,h=10,b=12,k=3",
            "tournament:n=11",        "tournament:n=12",
        };
        scenarios.push_back(std::move(schemes));
    }

    TextTable table;
    table.setColumns({"scenario", "tier", "jobs", "per-job ms",
                      "fused ms", "speedup"});

    std::ostringstream json;
    json << "[";
    bool mismatch = false;
    bool first = true;
    for (const Scenario &scenario : scenarios) {
        setKernelTierOverride(KernelTier::Scalar);
        const Timed unfused =
            timeCampaign(scenario.configs, benchmarks, false, reps);
        const std::string unfused_json = resultsJson(unfused.results);

        for (const KernelTier tier : tiers) {
            setKernelTierOverride(tier);
            const Timed fused =
                timeCampaign(scenario.configs, benchmarks, true, reps);

            const bool identical =
                resultsJson(fused.results) == unfused_json;
            if (!identical) {
                mismatch = true;
                BPSIM_WARN("campaign paths DIVERGED for scenario "
                           << scenario.name << " tier "
                           << kernelTierName(tier));
            }

            const double speedup =
                fused.nanos == 0
                    ? 0.0
                    : static_cast<double>(unfused.nanos) /
                          static_cast<double>(fused.nanos);

            table.addRow({scenario.name, kernelTierName(tier),
                          std::to_string(scenario.configs.size()),
                          TextTable::fixed(unfused.nanos / 1e6, 2),
                          TextTable::fixed(fused.nanos / 1e6, 2),
                          TextTable::fixed(speedup, 2)});

            if (!first)
                json << ",";
            first = false;
            json << "\n  {\"scenario\":" << jsonString(scenario.name)
                 << ",\"tier\":"
                 << jsonString(kernelTierName(tier))
                 << ",\"jobs\":" << scenario.configs.size()
                 << ",\"branchesPerJob\":"
                 << benchmarks[0].packed->size()
                 << ",\"perJobNanos\":" << unfused.nanos
                 << ",\"fusedNanos\":" << fused.nanos
                 << ",\"speedup\":" << jsonNumber(speedup)
                 << ",\"identical\":" << (identical ? "true" : "false")
                 << "}";
        }
    }
    json << "\n]\n";
    // Leave the process-wide selection as the user asked for it.
    setKernelTierOverride(forced);

    emitTable(args, table, "Fused vs per-job campaign wall time "
                           "(best of " + std::to_string(reps) + ")");

    const std::string out = args.get("out");
    std::ofstream file(out);
    if (!file) {
        std::cerr << "cannot write " << out << "\n";
        return 1;
    }
    file << json.str();
    std::cout << "\nwrote " << out << "\n";

    return mismatch ? 1 : 0;
}
