/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries.
 *
 * Every bench binary accepts:
 *   --quick        scale dynamic branch counts down 5x (fast smoke
 *                  runs; the shapes survive, the noise grows)
 *   --csv          also emit each table as CSV after the aligned view
 *   --json         also dump raw per-job campaign results as JSON
 *   --jobs N       campaign worker threads (0 = one per hardware
 *                  thread); results are identical for every N
 *   --timing       include machine-dependent wall time / throughput
 *                  fields in JSON output (off by default so output
 *                  stays byte-identical across machines)
 *   --trace-cache DIR
 *                  persistent trace store directory (default:
 *                  $BPSIM_TRACE_CACHE, then .bpsim-cache; 'none'
 *                  disables persistence). A warmed store turns the
 *                  serial generate-and-pack phase into file loads —
 *                  the packed traces as zero-copy mmap views — so
 *                  repeat figure runs are replay-bound end to end.
 *   --verbose      progress logging to stderr
 */

#ifndef BPSIM_BENCH_COMMON_HH
#define BPSIM_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "analysis/counter_profile.hh"
#include "campaign/campaign.hh"
#include "campaign/emitters.hh"
#include "sim/gshare_sweep.hh"
#include "sim/size_ladder.hh"
#include "sim/trace_cache.hh"
#include "util/args.hh"
#include "util/table.hh"
#include "workload/benchmarks.hh"

namespace bpsim::bench
{

/** Declares the common options on @p args. */
void addCommonOptions(ArgParser &args);

/** Applies --verbose and --kernel-tier; returns the --quick
 *  scale-down. Bench binaries pass --jobs explicitly where they
 *  run work. */
std::uint64_t applyCommonOptions(const ArgParser &args);

/** Resolves --trace-cache through the flag/env/default ladder; ""
 *  when persistence is disabled. Pass to the TraceCache ctor. */
std::string traceStoreDir(const ArgParser &args);

/** A campaign progress hook that logs each completed job when
 *  --verbose is on. */
ProgressFn verboseProgress();

/** Dumps @p results as JSON to stdout when --json was given. */
void maybeEmitJson(const ArgParser &args,
                   const std::vector<JobResult> &results,
                   const std::string &title);

/** Scales a suite's dynamic counts down by @p divisor (>= 1). */
std::vector<WorkloadSpec> scaledSuite(std::vector<WorkloadSpec> specs,
                                      std::uint64_t divisor);

/** Prints the table and, when --csv was given, its CSV form. */
void emitTable(const ArgParser &args, const TextTable &table,
               const std::string &title);

/**
 * Per-size-rung results of the paper's three headline schemes
 * (gshare.1PHT, gshare.best, bi-mode) over one benchmark suite.
 */
struct SchemeCurvePoint
{
    SizePoint size;
    /** gshare.best history length found by the suite-average sweep. */
    unsigned bestHistoryBits = 0;
    /** Misprediction rates per benchmark, suite order. */
    std::vector<double> pht1;
    std::vector<double> best;
    std::vector<double> bimode;
    /** Suite averages. */
    double pht1Average = 0.0;
    double bestAverage = 0.0;
    double bimodeAverage = 0.0;
};

/**
 * Runs the Figure 2/3/4 measurement: for each ladder rung, sweeps
 * gshare history lengths over the suite (paper §3.1), then measures
 * gshare.1PHT, gshare.best and the natural bi-mode point. Both
 * stages run as campaign grids on @p workers threads (the --jobs
 * value; 0 = one per hardware thread); results are identical at any
 * worker count.
 */
std::vector<SchemeCurvePoint>
measureSchemeCurves(TraceCache &cache,
                    const std::vector<WorkloadSpec> &specs,
                    const std::vector<SizePoint> &ladder,
                    unsigned workers);

/**
 * Runs a Figure 7/8 style misprediction breakdown: for second-level
 * sizes of 256, 1K and 32K counters, measures the misprediction
 * contributed by the SNT / ST / WB classes under three schemes —
 * address-indexed gshare (m = n-6), history-indexed gshare (m = n),
 * and the bi-mode point whose second level matches the size class
 * (d = n-1).
 */
void runBreakdownFigure(const ArgParser &args,
                        const std::string &benchmarkName,
                        std::uint64_t divisor,
                        const std::string &figureLabel);

/** Inputs of emitCounterProfile(). */
struct CounterProfileView
{
    std::string title;
    std::string schemeLabel;
    const CounterProfile *profile = nullptr;
    /** Per-counter rows shown in the aligned view (CSV shows all). */
    std::size_t maxRows = 32;
};

/**
 * Prints a Figure 5/6 style per-counter bias profile: the summary
 * areas plus the per-counter decomposition, sorted by WB share as in
 * the paper's x-axis.
 */
void emitCounterProfile(const ArgParser &args,
                        const CounterProfileView &view);

} // namespace bpsim::bench

#endif // BPSIM_BENCH_COMMON_HH
