/**
 * @file
 * The paper's gshare.best search (Section 3.1).
 *
 * "To find the best configuration, we exhaustively simulated all
 * pair-wise combinations of history length and address length. ...
 * we present results using the configuration that yields the best
 * accuracy for the average of all the benchmarks studied."
 *
 * At a fixed counter budget 2^n, the pair-wise combinations reduce
 * to the history length m in [0, n] (the remaining n-m index bits
 * are address bits, i.e. 2^(n-m) PHTs). The sweep simulates every m
 * over every benchmark and reports per-m suite averages.
 *
 * Internally the sweep is a campaign grid (campaign/campaign.hh)
 * executed on a pool of worker threads — every m × trace
 * pair is an independent job. All points share one kind ("gshare")
 * and one packed trace per benchmark, so the campaign fuses the whole
 * sweep into one banked kernel pass per benchmark (the dominant cost
 * of the fig2/3/4 drivers before fusion was re-streaming each trace
 * once per history length). Results are deterministic at any worker
 * count. Linking note: the
 * implementation lives in bpsim_campaign, not bpsim_sim.
 */

#ifndef BPSIM_SIM_GSHARE_SWEEP_HH
#define BPSIM_SIM_GSHARE_SWEEP_HH

#include <vector>

#include "campaign/campaign.hh"
#include "sim/simulator.hh"

namespace bpsim
{

/** One history-length candidate of a sweep. */
struct GshareSweepPoint
{
    unsigned historyBits = 0;
    /** Misprediction rate per benchmark, in the order given. */
    std::vector<double> perBenchmark;
    /** Arithmetic mean across benchmarks (the paper's criterion). */
    double average = 0.0;
};

/** Full result of a sweep at one table size. */
struct GshareSweepResult
{
    unsigned indexBits = 0;
    std::vector<GshareSweepPoint> points;

    /** The point with the lowest average misprediction rate. */
    const GshareSweepPoint &best() const;
};

/**
 * Sweeps gshare history lengths m in [minHistory, indexBits] at a
 * 2^indexBits-counter budget over @p benchmarks, in parallel on the
 * campaign engine's worker pool. Each benchmark must carry a packed
 * trace; the whole sweep runs as one banked replay pass per benchmark
 * (campaign fusion).
 *
 * @param workers worker threads, as for Campaign::run(); 0 uses
 *        defaultWorkerCount()
 */
GshareSweepResult sweepGshare(unsigned indexBits,
                              const std::vector<BenchmarkTrace> &benchmarks,
                              unsigned minHistory = 0,
                              unsigned workers = 0);

} // namespace bpsim

#endif // BPSIM_SIM_GSHARE_SWEEP_HH
