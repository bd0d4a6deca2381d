/**
 * @file
 * Reproduces Figure 4 of the paper: per-benchmark misprediction
 * curves for the eight IBS-Ultrix programs. Same methodology as
 * Figure 3 (gshare.best chosen on the suite average).
 *
 * Runs as campaign grids on the --jobs worker pool; output is
 * identical at any worker count.
 */

#include <iostream>

#include "common/bench_common.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    ArgParser args("fig4_ibs_curves",
                   "Reproduce Figure 4: per-benchmark curves, "
                   "IBS-Ultrix.");
    addCommonOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);

    TraceCache cache(traceStoreDir(args));
    const auto specs = scaledSuite(ibsBenchmarks(), divisor);
    const auto curve = measureSchemeCurves(
        cache, specs, paperSizeLadder(), CommonOptions::fromArgs(args).jobs);

    for (std::size_t b = 0; b < specs.size(); ++b) {
        TextTable table;
        table.setColumns({"size (KB)", "gshare.1PHT", "gshare.best",
                          "(best h)", "bi-mode"});
        for (const auto &point : curve) {
            table.addRow({
                TextTable::fixed(point.size.gshareKBytes(), 3),
                TextTable::fixed(point.pht1[b], 2),
                TextTable::fixed(point.best[b], 2),
                "h=" + std::to_string(point.bestHistoryBits),
                TextTable::fixed(point.bimode[b], 2),
            });
        }
        emitTable(args, table,
                  "Figure 4: misprediction rates — " + specs[b].name);
    }
    return 0;
}
