/**
 * @file
 * Shared pieces of the end-to-end benchmark program (bpsim_e2e): run
 * options, the percentile rule, seeded workload specs, the correctness
 * ledger, the span tracer, the result report and the serve-mix request
 * generator. The three workloads live in repro.cc, rerun.cc and
 * serve_mix.cc; README.md says why each exists and which metric it is
 * meant to move.
 */

#ifndef BPSIM_E2E_E2E_HH
#define BPSIM_E2E_E2E_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "serve/protocol.hh"
#include "util/random.hh"
#include "workload/workload_spec.hh"

namespace bpsim::e2e
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Milliseconds between two instants. */
double millisBetween(Clock::time_point from, Clock::time_point to);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    /** Workload seed; kDefaultSeed keeps the built-in specs. */
    std::uint64_t seed = 0;
    /** Length of the measured phase. */
    double seconds = 10.0;
    /** Separate traced run: print per-layer metrics, not end-to-end. */
    bool trace = false;
    /** Scratch directory inside the checkout (stores, sockets, trace
     *  JSON). */
    std::string workDir = ".bench_build/e2e";
    /** The bpsim_serve binary built beside bpsim_e2e. */
    std::string serveBinary;
    /** Pinned reference digests (e2ebench/reference.json). */
    std::string referenceFile;
    /** Worker threads for offline campaigns (offlineWorkers()). */
    unsigned workers = 1;
};

/**
 * Worker threads of the offline workloads: two, or one on a
 * single-processor host — as many as serve-mix keeps busy. A pool as
 * wide as nproc also times whatever else a shared host runs on those
 * processors.
 */
unsigned offlineWorkers(unsigned nproc);

/** The seed that keeps every built-in WorkloadSpec seed unchanged. */
constexpr std::uint64_t kDefaultSeed = 0;

/** @p spec with its generator seed derived from @p seed
 *  (kDefaultSeed returns @p spec unchanged). */
WorkloadSpec seededSpec(WorkloadSpec spec, std::uint64_t seed);

/**
 * Dynamic-count divisor of every workload: the bench binaries' --quick
 * size (scaledBenchmark()). Full-size runs swung 14–27% between runs on
 * a shared 4-core host; at this size they repeat within a few percent.
 */
constexpr std::uint64_t kSizeDivisor = 5;

/** All fourteen built-in benchmarks at kSizeDivisor, reseeded by
 *  seededSpec(). */
std::vector<WorkloadSpec> seededSuite(std::uint64_t seed);

// ------------------------------------------------------------ statistics

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> values);

/** A tail percentile picked by the ten-beyond rule. */
struct TailStat
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
};

/**
 * The highest of p50, p90, p95, p99, p99.9 and p99.99 (nearest rank)
 * with at least ten samples beyond it. A fixed ladder keeps the
 * percentile the same across runs whose sample counts differ a little.
 * Below twenty samples no percentile qualifies; the maximum is
 * returned at percentile 100 so the value still exists.
 */
TailStat tailPercentile(std::vector<double> values);

// ---------------------------------------------------------- correctness

/** Counts operations and failures; any failure fails the run. */
class Checks
{
  public:
    /** Counts one attempted operation; @p ok false records a failure
     *  and logs @p what to stderr. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attemptedCount; }
    std::uint64_t failed() const { return failedCount; }
    bool correct() const { return failedCount == 0; }

  private:
    std::mutex mu;
    std::uint64_t attemptedCount = 0;
    std::uint64_t failedCount = 0;
};

/** FNV-1a of @p text as 16 lowercase hex digits. */
std::string hexDigest(const std::string &text);

/**
 * The repro-cold gate at the default seed: @p computed must equal the
 * digest pinned in the reference file under @p key. A missing pin is a
 * failure too, so a corrupted or deleted reference fails the run.
 */
void checkPinnedDigest(Checks &checks, const std::string &referenceFile,
                       const std::string &key,
                       const std::string &computed);

// --------------------------------------------------------------- tracing

/**
 * In-memory span recorder for the traced run. Spans nest per thread
 * (a Scope's parent is the innermost open Scope on its thread, or the
 * span a pool task adopted); nothing is recorded while disabled, so
 * untraced runs pay one branch per call site.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::uint32_t id = 0;
        /** 0 for roots. */
        std::uint32_t parent = 0;
        std::uint32_t thread = 0;
    };

    /** Records one span for its lifetime. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *owner = nullptr;
        Span span;
        std::uint32_t previous = 0;
    };

    /** Makes the calling thread's new spans children of @p parent. */
    class Adopt
    {
      public:
        explicit Adopt(std::uint32_t parent);
        ~Adopt();
        Adopt(const Adopt &) = delete;
        Adopt &operator=(const Adopt &) = delete;

      private:
        std::uint32_t previous = 0;
    };

    void setEnabled(bool on) { enabled = on; }
    bool isEnabled() const { return enabled; }

    /** The innermost open span on the calling thread (0 if none). */
    static std::uint32_t current();

    /** Records a finished span between two observed events (a child
     *  of the calling thread's current span). */
    void recordSpan(const char *name, Clock::time_point start,
                    Clock::time_point end);

    std::vector<Span> spans() const;

    /** Writes the spans as Chrome trace-event JSON
     *  (`{"traceEvents":[...]}`), which Perfetto opens offline. */
    void writeChromeJson(std::ostream &os) const;

  private:
    void record(Span span);

    std::atomic<bool> enabled{false};
    mutable std::mutex mu;
    std::vector<Span> recorded;
    std::uint32_t nextId = 1;
    std::map<std::thread::id, std::uint32_t> threadIds;

    friend class Scope;
};

/** The process-wide tracer. */
Tracer &tracer();

/** True for names of layer spans: `<module>.<call>` for the repo's
 *  modules workload, trace, core, sim, campaign, analysis and serve. */
bool isLayerSpan(const std::string &name);

/** Self time per layer-span name, and what no layer span covers. */
struct SpanBreakdown
{
    /** Summed self time (duration minus the part covered by its
     *  child spans) per span name, in ms. */
    std::map<std::string, double> selfMs;
    /** Summed wall time of the root spans named @p rootName. */
    double rootMs = 0.0;
    /** Root time that no descendant layer span covers. */
    double unattributedMs = 0.0;
};

/** Analyses @p spans; roots are the spans named @p rootName. */
SpanBreakdown breakDown(const std::vector<Tracer::Span> &spans,
                        const std::string &rootName);

/**
 * Runs fn(i) for i in [0, n) on up to @p workers threads. Each task
 * adopts the caller's current span as its parent.
 */
void parallelFor(std::size_t n, unsigned workers,
                 const std::function<void(std::size_t)> &fn);

// ---------------------------------------------------------------- report

/** The metrics of one run plus its correctness ledger. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** Human-readable metric table (stderr by convention). */
    void printTable(std::ostream &os) const;

    /** The single result line: correct, attempted, failed, metrics. */
    std::string json(const Checks &checks) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;
};

/** Peak resident set (VmHWM) of @p pid ("self" for this process), MB. */
double peakRssMb(const std::string &pid = "self");

/** utime + stime of @p pid from /proc, in ms. */
double cpuMillis(int pid);

/** Resident bytes of a trace pair (records + packed arrays). */
double residentTraceMb(const BenchmarkTrace &trace);

/** The host record: CPU model, ISA flags, the tier `auto` resolves
 *  to, compiler, build type and nproc, as one JSON object. */
std::string hostJson();

// ----------------------------------------------------- simulated counts

/**
 * Sums SimResults by the replay path that produced them; feeds
 * sim_branches_per_s and the sim.* per-layer metrics.
 */
struct SimTally
{
    std::uint64_t jobs = 0;
    std::uint64_t branches = 0;
    std::uint64_t fusedJobs = 0;
    /** Σ 1 / fusedLanes over fused jobs = number of banks. */
    double banks = 0.0;
    std::uint64_t fusedBranches = 0;
    double bankNs = 0.0;
    double soloNs = 0.0;
    double virtualNs = 0.0;
    double probedNs = 0.0;

    void add(const JobResult &job);
    void merge(const SimTally &other);
    double kernelNs() const { return bankNs + soloNs + virtualNs + probedNs; }
};

/**
 * Everything a workload measured, in the units of BENCHMARK.json.
 * Each workload fills what it measures; per-layer metrics a workload
 * does not exercise stay 0.
 */
struct Measured
{
    std::vector<double> setupSeconds;
    std::vector<double> wallSeconds;
    std::vector<double> latencyMs;
    /** Per unit: simulated branches and campaigns per second of the
     *  unit's time after set-up (medians are reported). */
    std::vector<double> branchRates;
    std::vector<double> campaignRates;
    double peakRssMb = 0.0;

    /** Records one unit's rates. */
    void
    addRates(double seconds, std::uint64_t branches, std::uint64_t campaigns)
    {
        branchRates.push_back(static_cast<double>(branches) / seconds);
        campaignRates.push_back(static_cast<double>(campaigns) / seconds);
    }

    // Traced run only.
    std::vector<double> untracedWallSeconds;
    std::vector<double> tracedWallSeconds;
    SimTally sim;
    /** Spans of the traced units; each unit's root is "e2e.unit". */
    std::vector<Tracer::Span> spans;
    std::uint64_t generated = 0;
    double storeHitRatio = 0.0;
    double residentMb = 0.0;
    double autoTierRegret = 0.0;
    double admitMs = 0.0;
    double firstResultMs = 0.0;
    double streamMs = 0.0;
    double payloadKb = 0.0;
    double fusedBanks = 0.0;
    double daemonCpuMsPerCampaign = 0.0;
};

/** Fills the end-to-end metrics of BENCHMARK.json. */
void reportEndToEnd(const Measured &m, Report &report);

/** Fills the per-layer metrics; checks the unattributed share. */
void reportPerLayer(const Measured &m, Checks &checks, Report &report);

/** Share of a traced unit's wall time that may go unattributed. */
constexpr double kMaxUnattributedShare = 0.05;

// ------------------------------------------------------------ serve mix

/** Client connections and daemon workers of serve-mix. */
struct ServeTopology
{
    unsigned clients = 1;
    unsigned daemonJobs = 1;
};

/**
 * Two clients against a two-worker daemon, shrunk on small hosts so
 * that clients + daemon workers never exceed @p nproc (and neither is
 * ever below one).
 */
ServeTopology serveTopology(unsigned nproc);

/** One drawn serve-mix campaign. */
struct MixDraw
{
    enum class Shape
    {
        Small,
        Ladder,
        PerBranch,
    };
    Shape shape = Shape::Small;
    serve::CampaignRequest request;
    /** Re-run offline after the timed phase and byte-compared. */
    bool verify = false;
};

/**
 * Seeded campaign stream of one serve-mix client. Of every ten
 * campaigns, seven are small 2–6-config × 1–2-benchmark grids over the
 * fast kinds, two are 8–13-rung gshare/bi-mode ladders over three
 * benchmarks (the same trios for every client, so ladders fuse across
 * clients), and one is a per-branch request.
 */
class MixGenerator
{
  public:
    MixGenerator(std::uint64_t seed, unsigned client,
                 std::vector<std::string> benchmarks);

    MixDraw next();

  private:
    template <typename T>
    void
    shuffle(std::vector<T> &deck)
    {
        for (std::size_t i = deck.size(); i > 1; --i)
            std::swap(deck[i - 1], deck[rng.nextBounded(i)]);
    }

    Rng rng;
    unsigned client;
    std::vector<std::string> benchmarks;
    std::uint64_t drawn = 0;
    /** Seeded decks the shapes and benchmarks are dealt from. */
    std::vector<MixDraw::Shape> shapeDeck;
    std::vector<std::string> benchmarkDeck;
};

// -------------------------------------------------------------- workloads

/** Full paper reproduction from an empty trace store. */
void runReproCold(const Options &options, Checks &checks, Measured &m);

/** Re-run from a trace store primed by an untimed run. */
void runRerunWarm(const Options &options, Checks &checks, Measured &m);

/** Closed-loop served campaign mix against bpsim_serve. */
void runServeMix(const Options &options, Checks &checks, Measured &m);

/** What the offline workloads accumulate over their campaigns. */
struct OfflineTally
{
    /** Emitted results and analysis numbers: the digest input. */
    std::string output;
    SimTally sim;
    /** Per job: campaign start until its result arrived. */
    std::vector<double> jobLatencyMs;
    std::uint64_t campaigns = 0;
};

/**
 * Runs @p campaign on @p workers threads the way the bench binaries
 * do — Campaign::run, then writeResultsJson — with layer spans around
 * each call, and records every job in @p tally and @p checks. A traced
 * run also times predictor construction (makePredictor per job).
 */
std::vector<JobResult> runCampaign(const Campaign &campaign,
                                   unsigned workers, Checks &checks,
                                   OfflineTally &tally);

/** Table 2 statistics rows of @p benchmarks, computed in parallel. */
std::string traceStatsRows(const std::vector<BenchmarkTrace> &benchmarks,
                           unsigned workers);

/** Exact text of a double, for digests and byte comparisons. */
std::string exact(double value);

/** Results of @p results as the offline emitter writes them. */
std::string resultsJson(const std::vector<JobResult> &results);

/** Removes the machine-dependent timing members from one result
 *  payload (the served form with "timing":true). */
std::string stripTiming(const std::string &payload);

} // namespace bpsim::e2e

#endif // BPSIM_E2E_E2E_HH
