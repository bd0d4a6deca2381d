/**
 * @file
 * Head-to-head throughput of the two replay paths: the virtual
 * simulate() loop versus the devirtualized batched kernel behind
 * simulateAny() (sim/replay_kernel.hh). Not a paper figure — this
 * measures the simulator itself, and records the speedup that makes
 * the paper's sweeps affordable.
 *
 * Every kernel-eligible predictor kind is timed on both paths over
 * the same gcc-like trace; the per-kind best-of-N timings land in a
 * JSON report (default BENCH_replay.json) together with the measured
 * speedup. The binary also re-checks the bit-identity contract on
 * every pair and exits non-zero on any mismatch, so a stale baseline
 * can never hide a divergence.
 *
 * A second section times the banked fused kernel
 * (replayKernelBank()) per kernel tier: a 16-lane mixed-size bank of
 * each vector-eligible kind (gshare, bimode) runs once per tier this
 * binary/CPU offers (sim/simd/kernel_tier.hh), reporting
 * lane-throughput (branches x lanes / pass time) with the scalar
 * bank as baseline.
 * Counts must be bit-identical across tiers, enforced the same way.
 *
 * --baseline FILE turns the run into a regression guard: every
 * kernel throughput measured here (all of them on the unprobed
 * NullProbe path, sim/probe.hh) is compared against the same entry
 * of a previous report, and any rate more than --tolerance percent
 * below its baseline fails the run. This is the gate that keeps the
 * probe template parameter compiled out of unprobed kernels.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/bench_common.hh"
#include "core/factory.hh"
#include "sim/replay.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

/** Runs @p body @p reps times and keeps the fastest result — the
 *  usual best-of-N protocol for wall-clock microbenchmarks. */
SimResult
bestOf(unsigned reps, const std::function<SimResult()> &body)
{
    SimResult best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        SimResult result = body();
        if (rep == 0 || result.wallNanos < best.wallNanos)
            best = result;
    }
    return best;
}

/** One banked-throughput scenario: a bank of kMixedBankLanes lanes
 *  cycling through a few realistic sizes of one kind (identical
 *  lanes would share gather indices and flatter the vector path). */
struct BankScenario
{
    std::string kind;
    std::vector<std::string> variants;
};

constexpr std::size_t kMixedBankLanes = 16;

const std::vector<BankScenario> kBankScenarios = {
    // The two kinds with a vectorized bank (simd_bank.hh), at the
    // Figure 2/3 sweep sizes the campaigns actually fuse.
    {"gshare",
     {"gshare:n=10,h=10", "gshare:n=11,h=8", "gshare:n=12,h=12",
      "gshare:n=13,h=9"}},
    {"bimode", {"bimode:d=10", "bimode:d=11", "bimode:d=12",
                "bimode:d=13"}},
};

/** Best-of-N banked pass of @p scenario on @p tier; returns the
 *  per-lane results of the fastest pass (lane 0's branchesPerSec()
 *  is the bank's lane-throughput, see SimResult::wallNanos). */
std::vector<SimResult>
bestBankRun(const BankScenario &scenario, const PackedTrace &packed,
            KernelTier tier, unsigned reps)
{
    std::vector<SimResult> best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::vector<PredictorPtr> owned;
        std::vector<BranchPredictor *> bank;
        for (std::size_t l = 0; l < kMixedBankLanes; ++l) {
            owned.push_back(makePredictor(
                scenario.variants[l % scenario.variants.size()]));
            bank.push_back(owned.back().get());
        }
        SimConfig config;
        config.kernelTier = tier;
        std::vector<SimResult> results;
        if (!replayKernelBankAny(bank, packed, config, results)) {
            BPSIM_FATAL("bank kernel refused kind '" << scenario.kind
                        << "'");
        }
        if (best.empty() || results[0].wallNanos < best[0].wallNanos)
            best = std::move(results);
    }
    return best;
}

/** One measured kernel rate, keyed for baseline comparison: solo
 *  rows use the config text, bank rows "kind@tier". */
struct MeasuredRate
{
    std::string key;
    double branchesPerSec = 0.0;
};

/** Extracts the comparable rates of a previous report: solo entries'
 *  kernelBranchesPerSec under their config, bank entries' per-tier
 *  laneBranchesPerSec under "kind@requestedTier". */
std::unordered_map<std::string, double>
baselineRates(const JsonValue &doc)
{
    std::unordered_map<std::string, double> rates;
    for (const JsonValue &entry : doc.elements()) {
        if (!entry.isObject())
            continue;
        const std::string config = entry.getString("config");
        if (!config.empty()) {
            rates[config] = entry.getNumber("kernelBranchesPerSec");
            continue;
        }
        const std::string bank = entry.getString("bank");
        const JsonValue *tiers = entry.get("tiers");
        if (bank.empty() || tiers == nullptr || !tiers->isArray())
            continue;
        for (const JsonValue &tier : tiers->elements()) {
            rates[bank + "@" + tier.getString("requestedTier")] =
                tier.getNumber("laneBranchesPerSec");
        }
    }
    return rates;
}

/**
 * Compares @p measured against the report at @p path and prints one
 * row per comparable entry. Returns false when any rate fell more
 * than @p tolerancePct percent below its baseline.
 */
bool
guardThroughput(const ArgParser &args, const std::string &path,
                double tolerancePct,
                const std::vector<MeasuredRate> &measured)
{
    std::ifstream file(path);
    if (!file) {
        std::cerr << "cannot read baseline " << path << "\n";
        return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    std::string error;
    const std::optional<JsonValue> doc =
        JsonValue::parse(text.str(), error);
    if (!doc || !doc->isArray()) {
        std::cerr << "baseline " << path << " is not a report array"
                  << (error.empty() ? "" : ": " + error) << "\n";
        return false;
    }
    const std::unordered_map<std::string, double> baseline =
        baselineRates(*doc);

    TextTable table;
    table.setColumns({"kernel", "baseline Mbr/s", "now Mbr/s",
                      "delta (%)", "verdict"});
    bool pass = true;
    std::size_t compared = 0;
    for (const MeasuredRate &rate : measured) {
        const auto it = baseline.find(rate.key);
        if (it == baseline.end() || it->second <= 0.0)
            continue; // new kernel or unusable entry: nothing to guard
        ++compared;
        const double delta =
            100.0 * (rate.branchesPerSec / it->second - 1.0);
        const bool ok = delta >= -tolerancePct;
        pass = pass && ok;
        table.addRow({rate.key,
                      TextTable::fixed(it->second / 1e6, 2),
                      TextTable::fixed(rate.branchesPerSec / 1e6, 2),
                      TextTable::fixed(delta, 2),
                      ok ? "ok" : "REGRESSED"});
    }
    emitTable(args, table,
              "Throughput vs " + path + " (tolerance " +
                  TextTable::fixed(tolerancePct, 1) + "%)");
    if (compared == 0) {
        std::cerr << "baseline " << path
                  << " shares no kernels with this run\n";
        return false;
    }
    return pass;
}

/** Counts-only equality across every lane of two bank runs. */
bool
bankCountsMatch(const std::vector<SimResult> &a,
                const std::vector<SimResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t l = 0; l < a.size(); ++l) {
        if (a[l].branches != b[l].branches ||
            a[l].mispredictions != b[l].mispredictions ||
            a[l].takenBranches != b[l].takenBranches) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perf_replay",
                   "Virtual-loop vs devirtualized-kernel replay "
                   "throughput for every kernel-eligible predictor.");
    addCommonOptions(args);
    args.addOption("branches", "2000000",
                   "dynamic branch count of the timing trace");
    args.addOption("reps", "3", "timed repetitions per path (best-of)");
    args.addOption("out", "BENCH_replay.json",
                   "path of the JSON throughput report");
    args.addOption("baseline", "",
                   "previous report to guard kernel throughput "
                   "against (empty = no guard)");
    args.addOption("tolerance", "2",
                   "max throughput regression vs --baseline, in "
                   "percent");
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);
    const unsigned reps =
        static_cast<unsigned>(std::max<std::uint64_t>(
            args.getUint("reps"), 1));

    auto spec = findBenchmark("gcc");
    spec->dynamicBranches =
        std::max<std::uint64_t>(args.getUint("branches") / divisor,
                                50'000);
    TraceCache cache(traceStoreDir(args));
    const MemoryTrace &trace = cache.traceFor(*spec);
    const PackedTrace &packed = cache.packedFor(*spec);
    BPSIM_INFORM("timing trace: " << trace.size() << " records, "
                 << packed.size() << " conditionals");

    // One representative configuration per kernel-eligible kind; the
    // perceptron's is the scheme comparison's largest.
    const std::vector<std::string> configs = {
        "bimodal:n=12",  "gshare:n=12",      "bimode:d=11",
        "agree:n=12",    "gskew:n=11",       "yags:c=12,n=10",
        "tournament:n=11", "gag:h=12",       "gas:h=9,a=3",
        "pag:h=10,l=10", "pas:h=8,l=10,a=3",
        "filter:n=12,h=8,b=10,k=3", "perceptron:n=9,h=21"};

    TextTable table;
    table.setColumns({"config", "predictor", "virtual Mbr/s",
                      "kernel Mbr/s", "speedup"});

    std::ostringstream json;
    json << "[";
    std::vector<MeasuredRate> measured;
    bool mismatch = false;
    bool first = true;
    for (const std::string &config : configs) {
        const PredictorPtr predictor = makePredictor(config);

        const SimResult virtual_best = bestOf(reps, [&] {
            predictor->reset();
            auto reader = trace.reader();
            return simulate(*predictor, reader);
        });
        // simulateAny() dispatches every one of these configs to the
        // kernel (every registered kind has one).
        const SimResult kernel_best = bestOf(reps, [&] {
            predictor->reset();
            auto reader = trace.reader();
            return simulateAny(*predictor, reader, &packed);
        });

        const bool identical =
            virtual_best.branches == kernel_best.branches &&
            virtual_best.mispredictions == kernel_best.mispredictions &&
            virtual_best.takenBranches == kernel_best.takenBranches;
        if (!identical) {
            mismatch = true;
            BPSIM_WARN("replay paths DIVERGED for " << config);
        }

        const double speedup =
            virtual_best.wallNanos == 0 || kernel_best.wallNanos == 0
                ? 0.0
                : static_cast<double>(virtual_best.wallNanos) /
                      static_cast<double>(kernel_best.wallNanos);

        measured.push_back({config, kernel_best.branchesPerSec()});
        table.addRow({config, virtual_best.predictorName,
                      TextTable::fixed(
                          virtual_best.branchesPerSec() / 1e6, 2),
                      TextTable::fixed(
                          kernel_best.branchesPerSec() / 1e6, 2),
                      TextTable::fixed(speedup, 2)});

        if (!first)
            json << ",";
        first = false;
        json << "\n  {\"config\":" << jsonString(config)
             << ",\"predictor\":"
             << jsonString(virtual_best.predictorName)
             << ",\"branches\":" << virtual_best.branches
             << ",\"mispredictions\":" << virtual_best.mispredictions
             << ",\"virtualNanos\":" << virtual_best.wallNanos
             << ",\"kernelNanos\":" << kernel_best.wallNanos
             << ",\"virtualBranchesPerSec\":"
             << jsonNumber(virtual_best.branchesPerSec())
             << ",\"kernelBranchesPerSec\":"
             << jsonNumber(kernel_best.branchesPerSec())
             << ",\"speedup\":" << jsonNumber(speedup)
             << ",\"identical\":" << (identical ? "true" : "false")
             << "}";
    }
    emitTable(args, table, "Replay-path throughput (best of " +
                               std::to_string(reps) + ")");

    // Banked fused kernel, one row per kind, one column per kernel
    // tier. Tiers are best-first; the trailing Scalar entry is the
    // baseline every speedup is against.
    const std::vector<KernelTier> tiers = availableKernelTiers();
    TextTable bankTable;
    {
        std::vector<std::string> columns = {"bank kind", "lanes"};
        for (const KernelTier tier : tiers)
            columns.push_back(std::string(kernelTierName(tier)) +
                              " Mbr/s");
        columns.push_back("best speedup");
        bankTable.setColumns(columns);
    }

    for (const BankScenario &scenario : kBankScenarios) {
        std::vector<SimResult> scalarRun = bestBankRun(
            scenario, packed, KernelTier::Scalar, reps);
        const double scalarRate = scalarRun[0].branchesPerSec();

        std::vector<std::string> row = {
            scenario.kind, std::to_string(kMixedBankLanes)};
        json << ",\n  {\"bank\":" << jsonString(scenario.kind)
             << ",\"lanes\":" << kMixedBankLanes << ",\"tiers\":[";
        double bestSpeedup = 1.0;
        bool bankIdentical = true;
        bool firstTier = true;
        for (const KernelTier tier : tiers) {
            std::vector<SimResult> run =
                tier == KernelTier::Scalar
                    ? std::move(scalarRun)
                    : bestBankRun(scenario, packed, tier, reps);
            if (tier != KernelTier::Scalar &&
                !bankCountsMatch(run, scalarRun)) {
                bankIdentical = false;
                mismatch = true;
                BPSIM_WARN("bank tiers DIVERGED for "
                           << scenario.kind << " on "
                           << kernelTierName(tier));
            }
            const double rate = run[0].branchesPerSec();
            measured.push_back(
                {scenario.kind + "@" + kernelTierName(tier), rate});
            const double speedup =
                scalarRate == 0.0 ? 0.0 : rate / scalarRate;
            bestSpeedup = std::max(bestSpeedup, speedup);
            row.push_back(TextTable::fixed(rate / 1e6, 2));
            if (!firstTier)
                json << ",";
            firstTier = false;
            json << "{\"tier\":"
                 << jsonString(kernelTierName(run[0].kernelTier))
                 << ",\"requestedTier\":"
                 << jsonString(kernelTierName(tier))
                 << ",\"laneBranchesPerSec\":" << jsonNumber(rate)
                 << ",\"speedupVsScalar\":" << jsonNumber(speedup)
                 << "}";
            if (tier == KernelTier::Scalar)
                scalarRun = std::move(run);
        }
        row.push_back(TextTable::fixed(bestSpeedup, 2));
        bankTable.addRow(row);
        json << "],\"identical\":"
             << (bankIdentical ? "true" : "false") << "}";
    }
    json << "\n]\n";

    emitTable(args, bankTable,
              "Banked kernel lane-throughput per tier (best of " +
                  std::to_string(reps) + ", " +
                  std::to_string(kMixedBankLanes) + " lanes)");

    const std::string out = args.get("out");
    std::ofstream file(out);
    if (!file) {
        std::cerr << "cannot write " << out << "\n";
        return 1;
    }
    file << json.str();
    std::cout << "\nwrote " << out << "\n";

    bool regressed = false;
    if (!args.get("baseline").empty()) {
        regressed = !guardThroughput(args, args.get("baseline"),
                                     args.getDouble("tolerance"),
                                     measured);
    }

    return (mismatch || regressed) ? 1 : 0;
}
