/**
 * @file
 * Reproduces Figure 3 of the paper: per-benchmark misprediction
 * curves for the six SPEC CINT95 programs.
 *
 * As in the paper, gshare.best is the configuration that minimizes
 * the *suite-average* misprediction at each size (not the per-
 * benchmark optimum), so individual programs can and do invert:
 * compress and xlisp favour gshare.1PHT; go favours multiple PHTs.
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
    ArgParser args("fig3_spec_curves",
                   "Reproduce Figure 3: per-benchmark curves, "
                   "SPEC CINT95.");
    addCommonOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);

    TraceCache cache(traceStoreDir(args));
    const auto specs = scaledSuite(specCint95Benchmarks(), divisor);
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
                  "Figure 3: misprediction rates — " + specs[b].name);
    }
    return 0;
}
