/**
 * @file
 * Reproduces Figure 2 of the paper: misprediction rate versus
 * predictor size (0.25-32 K bytes of 2-bit counters), averaged over
 * SPEC CINT95 and over IBS-Ultrix, for three schemes:
 *
 *   gshare.1PHT  gshare with full-length history (m = n)
 *   gshare.best  the best history length for the suite average,
 *                found by the paper's exhaustive sweep (§3.1)
 *   bi-mode      the canonical bi-mode point at its natural
 *                1.5x-of-the-smaller-gshare cost
 *
 * The expected shape (paper): bi-mode lowest at every size,
 * gshare.best between, gshare.1PHT highest; bi-mode needs roughly
 * half the hardware of gshare for equal accuracy at >= 4KB.
 *
 * The measurement runs as campaign grids on the --jobs worker pool
 * (traces generated once, simulated many); output is identical at
 * any worker count.
 */

#include <iostream>

#include "common/bench_common.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

void
reportSuite(const ArgParser &args, TraceCache &cache,
            const std::vector<WorkloadSpec> &specs,
            const std::string &label)
{
    const auto curve = measureSchemeCurves(
        cache, specs, paperSizeLadder(), CommonOptions::fromArgs(args).jobs);
    TextTable table;
    table.setColumns({"size (KB)", "gshare.1PHT", "gshare.best",
                      "(best h)", "bi-mode", "(bi-mode KB)"});
    for (const auto &point : curve) {
        table.addRow({
            TextTable::fixed(point.size.gshareKBytes(), 3),
            TextTable::fixed(point.pht1Average, 2),
            TextTable::fixed(point.bestAverage, 2),
            "h=" + std::to_string(point.bestHistoryBits),
            TextTable::fixed(point.bimodeAverage, 2),
            TextTable::fixed(point.size.bimodeKBytes(), 3),
        });
    }
    emitTable(args, table,
              "Figure 2: averaged misprediction rates — " + label);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fig2_avg_curves",
                   "Reproduce Figure 2: averaged misprediction vs "
                   "predictor size for gshare.1PHT, gshare.best and "
                   "bi-mode.");
    addCommonOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);

    TraceCache cache(traceStoreDir(args));
    reportSuite(args, cache, scaledSuite(specCint95Benchmarks(), divisor),
                "SPEC CINT95 average");
    reportSuite(args, cache, scaledSuite(ibsBenchmarks(), divisor),
                "IBS-Ultrix average");
    return 0;
}
