/**
 * @file
 * sweepGshare() — now a campaign grid internally.
 *
 * The sweep is embarrassingly parallel (every history length × trace
 * pair is independent), so it is expressed as a Campaign of
 * `gshare:n=<indexBits>,h=<m>` configs over the given traces and
 * executed on the shared worker pool. The public signature and the
 * result layout are unchanged; per-point averages accumulate in the
 * same benchmark order as the historical serial loop, so results are
 * bit-identical at any worker count.
 */

#include "sim/gshare_sweep.hh"

#include <algorithm>
#include <string>

#include "campaign/campaign.hh"
#include "util/logging.hh"

namespace bpsim
{

const GshareSweepPoint &
GshareSweepResult::best() const
{
    if (points.empty())
        BPSIM_PANIC("empty gshare sweep");
    const auto it = std::min_element(
        points.begin(), points.end(),
        [](const GshareSweepPoint &a, const GshareSweepPoint &b) {
            return a.average < b.average;
        });
    return *it;
}

GshareSweepResult
sweepGshare(unsigned indexBits,
            const std::vector<const MemoryTrace *> &traces,
            unsigned minHistory, unsigned workers)
{
    std::vector<BenchmarkTrace> benchmarks;
    benchmarks.reserve(traces.size());
    for (std::size_t b = 0; b < traces.size(); ++b)
        benchmarks.push_back(
            {"trace" + std::to_string(b), traces[b], {}});
    return sweepGshare(indexBits, benchmarks, minHistory, workers);
}

GshareSweepResult
sweepGshare(unsigned indexBits,
            const std::vector<BenchmarkTrace> &benchmarks,
            unsigned minHistory, unsigned workers)
{
    if (benchmarks.empty())
        BPSIM_PANIC("gshare sweep needs at least one trace");

    std::vector<std::string> configs;
    configs.reserve(indexBits - minHistory + 1);
    for (unsigned m = minHistory; m <= indexBits; ++m)
        configs.push_back("gshare:n=" + std::to_string(indexBits) +
                          ",h=" + std::to_string(m));

    Campaign campaign;
    campaign.addGrid(configs, benchmarks);
    const std::vector<JobResult> jobs = campaign.run(workers);

    GshareSweepResult result;
    result.indexBits = indexBits;
    std::size_t job = 0;
    for (unsigned m = minHistory; m <= indexBits; ++m) {
        GshareSweepPoint point;
        point.historyBits = m;
        double total = 0.0;
        for (std::size_t b = 0; b < benchmarks.size(); ++b, ++job) {
            if (!jobs[job].ok())
                BPSIM_PANIC("internal gshare config rejected: "
                            << jobs[job].error);
            const double rate = jobs[job].result.mispredictionRate();
            point.perBenchmark.push_back(rate);
            total += rate;
        }
        point.average = total / static_cast<double>(benchmarks.size());
        result.points.push_back(std::move(point));
    }
    return result;
}

} // namespace bpsim
