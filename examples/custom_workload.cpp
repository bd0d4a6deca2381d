/**
 * @file
 * Building custom workloads with the library API.
 *
 * Demonstrates the two levels of the workload substrate:
 *
 *  1. Spec level — compose a WorkloadSpec from behaviour-family
 *     weights and parameters, then sweep one axis (here: the weakly
 *     biased share) and watch how the predictor ranking responds —
 *     reproducing in miniature why "go" resists de-aliasing.
 *
 *  2. Program level — hand-build a Program (routines, sites,
 *     behaviours) for full control, the way targeted microbenchmarks
 *     are written against the simulator.
 */

#include <iostream>

#include "core/factory.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "trace/trace_store.hh"
#include "util/table.hh"
#include "workload/generator.hh"
#include "workload/program_builder.hh"

using namespace bpsim;

namespace
{

double
mispredictOn(const MemoryTrace &trace, const std::string &config)
{
    const PredictorPtr predictor = makePredictor(config);
    auto reader = trace.reader();
    return simulate(*predictor, reader).mispredictionRate();
}

void
sweepWeakShare()
{
    std::cout << "1) spec-level: sweeping the weakly-biased share\n\n";
    // No flags here, but the store still honours $BPSIM_TRACE_CACHE
    // (set it to 'none' to force regeneration).
    TraceCache cache(resolveTraceStoreDir(""));
    TextTable table;
    table.setColumns({"weak share", "bimodal", "gshare.1PHT", "bi-mode",
                      "bi-mode win vs gshare (pp)"});
    for (double weak : {0.0, 0.15, 0.30, 0.45}) {
        WorkloadSpec spec;
        spec.name = "custom-weak-" + TextTable::fixed(weak, 2);
        spec.suite = "custom";
        spec.staticBranches = 4000;
        spec.dynamicBranches = 700'000;
        spec.seed = 0xabcde;
        spec.mix.stronglyBiased = 0.40 * (1.0 - weak);
        spec.mix.loop = 0.15 * (1.0 - weak);
        spec.mix.globalCorrelated = 0.30 * (1.0 - weak);
        spec.mix.localCorrelated = 0.05 * (1.0 - weak);
        spec.mix.pattern = 0.05 * (1.0 - weak);
        spec.mix.phaseModal = 0.05 * (1.0 - weak);
        spec.mix.weaklyBiased = weak;
        const MemoryTrace &trace = cache.traceFor(spec);
        const double bimodal = mispredictOn(trace, "bimodal:n=12");
        const double gshare = mispredictOn(trace, "gshare:n=12");
        const double bimode = mispredictOn(trace, "bimode:d=11");
        table.addRow({TextTable::fixed(weak, 2),
                      TextTable::fixed(bimodal, 2),
                      TextTable::fixed(gshare, 2),
                      TextTable::fixed(bimode, 2),
                      TextTable::fixed(gshare - bimode, 2)});
    }
    table.print(std::cout);
    std::cout << "\nas the WB share grows every scheme degrades: the "
                 "WB error is a floor that\nno de-aliasing can remove "
                 "— the paper's go effect (section 4.4) in\n"
                 "isolation. The bi-mode margin over gshare persists "
                 "but becomes a shrinking\nfraction of the total "
                 "error.\n\n";
}

void
handBuiltProgram()
{
    std::cout << "2) program-level: a hand-built two-routine program\n\n";

    Program program;
    {
        // Routine 0: a guard (strongly taken), a 4-trip loop, and a
        // branch that repeats the guard's decision (1-deep global
        // correlation; the loop's outcomes sit between them, so the
        // function reads bit 4 of history: guard, then 3 taken + 1
        // not-taken loop outcomes).
        Routine routine;
        BranchSite guard;
        guard.pc = 0x10000;
        guard.takenTarget = 0x10040;
        guard.behavior = std::make_unique<BiasedBehavior>(0.97);
        routine.sites.push_back(std::move(guard));

        BranchSite loop;
        loop.pc = 0x10010;
        loop.takenTarget = 0x10008;
        loop.isLoop = true;
        loop.behavior = std::make_unique<LoopBehavior>(4.0, true);
        routine.sites.push_back(std::move(loop));

        BranchSite echo;
        echo.pc = 0x10020;
        echo.takenTarget = 0x10080;
        echo.behavior = std::make_unique<GlobalCorrelatedBehavior>(
            5, 0.0, /*tableSeed=*/1234);
        routine.sites.push_back(std::move(echo));
        program.addRoutine(std::move(routine));
    }
    {
        // Routine 1: an alternating pattern branch.
        Routine routine;
        BranchSite toggler;
        toggler.pc = 0x20000;
        toggler.takenTarget = 0x20040;
        toggler.behavior = std::make_unique<PatternBehavior>(
            std::vector<bool>{true, false});
        routine.sites.push_back(std::move(toggler));
        program.addRoutine(std::move(routine));
    }

    WorkloadSpec spec;
    spec.name = "hand-built";
    spec.suite = "custom";
    spec.staticBranches = program.siteCount();
    spec.dynamicBranches = 200'000;
    spec.seed = 7;
    TraceGenerator generator(program, spec);
    MemoryTrace trace;
    generator.generate(spec.dynamicBranches, trace);

    TextTable table;
    table.setColumns({"predictor", "mispredict %"});
    for (const char *config :
         {"bimodal:n=10", "gshare:n=10,h=4", "gshare:n=10", "bimode:d=9",
          "pas:h=4,l=6,a=4"}) {
        table.addRow({config,
                      TextTable::fixed(mispredictOn(trace, config), 3)});
    }
    table.print(std::cout);
    std::cout << "\nthe loop and the echo branch need history; the "
                 "guard only needs a counter.\nEvery history scheme "
                 "should approach the guard's 3% noise floor.\n";
}

} // namespace

int
main()
{
    std::cout << "Custom workload construction with the bimode-bp "
                 "library\n\n";
    sweepWeakShare();
    handBuiltProgram();
    return 0;
}
