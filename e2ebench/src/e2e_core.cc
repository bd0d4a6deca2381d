#include "e2e.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "campaign/emitters.hh"
#include "core/factory.hh"
#include "sim/simd/kernel_tier.hh"
#include "trace/branch_record.hh"
#include "trace/codec.hh"
#include "trace/trace_stats.hh"
#include "util/json.hh"
#include "workload/benchmarks.hh"

namespace bpsim::e2e
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

WorkloadSpec
seededSpec(WorkloadSpec spec, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return spec;
    SplitMix64 mix(spec.seed ^ (seed * 0x9e3779b97f4a7c15ULL));
    spec.seed = mix.next();
    return spec;
}

std::vector<WorkloadSpec>
seededSuite(std::uint64_t seed)
{
    std::vector<WorkloadSpec> suite = allBenchmarks();
    for (WorkloadSpec &spec : suite)
        spec = seededSpec(scaledBenchmark(std::move(spec), kSizeDivisor), seed);
    return suite;
}

// ------------------------------------------------------------ statistics

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailStat
tailPercentile(std::vector<double> values)
{
    TailStat tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    // Percentiles in basis points, so the nearest rank
    // ceil(p% of n) is exact integer arithmetic.
    for (std::size_t bp : {9999u, 9990u, 9900u, 9500u, 9000u, 5000u}) {
        const std::size_t rank = (bp * n + 9999) / 10000;
        if (rank >= 1 && n - rank >= 10) {
            tail.value = values[rank - 1];
            tail.percentile = static_cast<double>(bp) / 100.0;
            return tail;
        }
    }
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
}

// ---------------------------------------------------------- correctness

void
Checks::expect(bool ok, const std::string &what)
{
    const std::lock_guard<std::mutex> lock(mu);
    ++attemptedCount;
    if (!ok) {
        ++failedCount;
        std::cerr << "e2e: check failed: " << what << "\n";
    }
}

std::string
hexDigest(const std::string &text)
{
    Fnv1a hash;
    hash.update(reinterpret_cast<const std::uint8_t *>(text.data()),
                text.size());
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash.digest()));
    return buf;
}

void
checkPinnedDigest(Checks &checks, const std::string &referenceFile,
                  const std::string &key, const std::string &computed)
{
    std::ifstream in(referenceFile);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const auto doc = JsonValue::parse(text.str(), error);
    const std::string pinned =
        doc && doc->isObject() ? doc->getString(key, "(none)") : "(none)";
    checks.expect(pinned == computed, "digest " + key + " is " + computed +
                                          ", pinned " + pinned + " in " +
                                          referenceFile);
}

// --------------------------------------------------------------- tracing

namespace
{

thread_local std::uint32_t tlsCurrentSpan = 0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t curStart = 0, curEnd = 0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (end <= start)
            continue;
        if (!open || start > curEnd) {
            if (open)
                total += curEnd - curStart;
            curStart = start;
            curEnd = end;
            open = true;
        } else {
            curEnd = std::max(curEnd, end);
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

} // namespace

Tracer::Scope::Scope(Tracer &tracer, const char *name)
{
    if (!tracer.enabled)
        return;
    owner = &tracer;
    span.name = name;
    span.parent = tlsCurrentSpan;
    {
        const std::lock_guard<std::mutex> lock(tracer.mu);
        span.id = tracer.nextId++;
        const auto [it, inserted] = tracer.threadIds.emplace(
            std::this_thread::get_id(),
            static_cast<std::uint32_t>(tracer.threadIds.size() + 1));
        span.thread = it->second;
    }
    previous = tlsCurrentSpan;
    tlsCurrentSpan = span.id;
    span.startNs = nowNs();
}

Tracer::Scope::~Scope()
{
    if (owner == nullptr)
        return;
    span.endNs = nowNs();
    tlsCurrentSpan = previous;
    owner->record(std::move(span));
}

Tracer::Adopt::Adopt(std::uint32_t parent) : previous(tlsCurrentSpan)
{
    tlsCurrentSpan = parent;
}

Tracer::Adopt::~Adopt()
{
    tlsCurrentSpan = previous;
}

std::uint32_t
Tracer::current()
{
    return tlsCurrentSpan;
}

void
Tracer::recordSpan(const char *name, Clock::time_point start,
                   Clock::time_point end)
{
    if (!enabled)
        return;
    Span span;
    span.name = name;
    span.parent = tlsCurrentSpan;
    span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start.time_since_epoch())
                       .count();
    span.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     end.time_since_epoch())
                     .count();
    const std::lock_guard<std::mutex> lock(mu);
    span.id = nextId++;
    span.thread = threadIds
                      .emplace(std::this_thread::get_id(),
                               static_cast<std::uint32_t>(threadIds.size() + 1))
                      .first->second;
    recorded.push_back(std::move(span));
}

void
Tracer::record(Span span)
{
    const std::lock_guard<std::mutex> lock(mu);
    recorded.push_back(std::move(span));
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    for (const Span &span : all)
        origin = origin == 0 ? span.startNs : std::min(origin, span.startNs);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\":" << jsonString(span.name)
           << ",\"cat\":\"" << (isLayerSpan(span.name) ? "layer" : "bench")
           << "\",\"ph\":\"X\",\"ts\":"
           << jsonNumber(static_cast<double>(span.startNs - origin) / 1e3)
           << ",\"dur\":"
           << jsonNumber(static_cast<double>(span.endNs - span.startNs) /
                         1e3)
           << ",\"pid\":1,\"tid\":" << span.thread
           << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
           << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

bool
isLayerSpan(const std::string &name)
{
    static const std::set<std::string> modules = {
        "workload", "trace", "core", "sim", "campaign", "analysis", "serve"};
    const auto dot = name.find('.');
    return dot != std::string::npos && modules.count(name.substr(0, dot));
}

SpanBreakdown
breakDown(const std::vector<Tracer::Span> &spans, const std::string &rootName)
{
    std::map<std::uint32_t, std::vector<const Tracer::Span *>> children;
    for (const Tracer::Span &span : spans)
        children[span.parent].push_back(&span);

    const auto clip = [](const Tracer::Span &s, const Tracer::Span &within) {
        return std::make_pair(std::max(s.startNs, within.startNs),
                              std::min(s.endNs, within.endNs));
    };

    SpanBreakdown out;
    for (const Tracer::Span &span : spans) {
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (const Tracer::Span *child : children[span.id])
            covered.push_back(clip(*child, span));
        const std::int64_t self =
            (span.endNs - span.startNs) - unionLength(std::move(covered));
        out.selfMs[span.name] += static_cast<double>(self) / 1e6;
    }

    for (const Tracer::Span &root : spans) {
        if (root.name != rootName)
            continue;
        out.rootMs += static_cast<double>(root.endNs - root.startNs) / 1e6;
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        std::vector<const Tracer::Span *> stack = children[root.id];
        while (!stack.empty()) {
            const Tracer::Span *span = stack.back();
            stack.pop_back();
            if (isLayerSpan(span->name))
                covered.push_back(clip(*span, root));
            for (const Tracer::Span *child : children[span->id])
                stack.push_back(child);
        }
        out.unattributedMs +=
            static_cast<double>((root.endNs - root.startNs) -
                                unionLength(std::move(covered))) /
            1e6;
    }
    return out;
}

void
parallelFor(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &fn)
{
    const std::uint32_t parent = Tracer::current();
    std::atomic<std::size_t> next{0};
    std::mutex errorMu;
    std::exception_ptr error;
    const auto body = [&] {
        const Tracer::Adopt adopt(parent);
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(errorMu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    const unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, workers), n));
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(body);
    body();
    for (std::thread &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

// ---------------------------------------------------------------- report

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

namespace
{

/** Shortest round-trip form of @p value; non-finite values print 0. */
std::string
numberText(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

} // namespace

void
Report::printTable(std::ostream &os) const
{
    for (const Metric &metric : metrics) {
        os << "  " << metric.name
           << std::string(metric.name.size() < 36 ? 36 - metric.name.size()
                                                  : 1,
                          ' ')
           << numberText(metric.value) << " " << metric.unit << "\n";
    }
}

std::string
Report::json(const Checks &checks) const
{
    std::ostringstream os;
    os << "{\"correct\":" << (checks.correct() ? "true" : "false")
       << ",\"attempted\":" << checks.attempted()
       << ",\"failed\":" << checks.failed() << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i == 0 ? "" : ",") << jsonString(metrics[i].name)
           << ":{\"value\":" << numberText(metrics[i].value)
           << ",\"unit\":" << jsonString(metrics[i].unit) << "}";
    }
    os << "}}";
    return os.str();
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
cpuMillis(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const auto close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    }
    return 1000.0 * ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
residentTraceMb(const BenchmarkTrace &trace)
{
    double bytes = 0.0;
    if (trace.trace)
        bytes += static_cast<double>(trace.trace->size() *
                                     sizeof(BranchRecord));
    if (trace.packed)
        bytes += static_cast<double>(
            (trace.packed->size() + trace.packed->wordCount()) *
            sizeof(std::uint64_t));
    return bytes / (1024.0 * 1024.0);
}

std::string
hostJson()
{
    std::string model = "unknown";
    std::set<std::string> flags;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = line.substr(0, line.find_first_of("\t :"));
        const std::string value =
            colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model" && line.rfind("model name", 0) == 0 &&
            model == "unknown")
            model = value;
        if ((key == "flags" || key == "Features") && flags.empty()) {
            std::istringstream words(value);
            std::string word;
            while (words >> word)
                flags.insert(word);
        }
    }
    std::string isa;
    for (const char *flag : {"sse4_2", "avx", "avx2", "bmi2", "avx512f",
                             "avx512bw", "avx512dq", "avx512vl", "asimd"}) {
        if (flags.count(flag))
            isa += std::string(isa.empty() ? "" : " ") + flag;
    }
    std::ostringstream os;
    os << "{\"cpu\":" << jsonString(model) << ",\"isa\":" << jsonString(isa)
       << ",\"auto_tier\":"
       << jsonString(kernelTierName(resolveKernelTier(KernelTier::Auto)))
#if defined(__clang__)
       << ",\"compiler\":" << jsonString(std::string("clang ") + __clang_version__)
#else
       << ",\"compiler\":" << jsonString(std::string("gcc ") + __VERSION__)
#endif
       << ",\"build_type\":" << jsonString(E2E_BUILD_TYPE)
       << ",\"nproc\":" << std::thread::hardware_concurrency() << "}";
    return os.str();
}

// ----------------------------------------------------- simulated counts

void
SimTally::add(const JobResult &job)
{
    if (!job.ok())
        return;
    const SimResult &r = job.result;
    ++jobs;
    branches += r.branches;
    const double ns = static_cast<double>(r.wallNanos);
    if (!r.perBranch.empty()) {
        probedNs += ns;
    } else if (r.fusedLanes > 0) {
        ++fusedJobs;
        banks += 1.0 / r.fusedLanes;
        fusedBranches += r.branches;
        bankNs += ns;
    } else if (!fastReplayKind(job.configText).empty()) {
        soloNs += ns;
    } else {
        virtualNs += ns;
    }
}

void
SimTally::merge(const SimTally &other)
{
    jobs += other.jobs;
    branches += other.branches;
    fusedJobs += other.fusedJobs;
    banks += other.banks;
    fusedBranches += other.fusedBranches;
    bankNs += other.bankNs;
    soloNs += other.soloNs;
    virtualNs += other.virtualNs;
    probedNs += other.probedNs;
}

void
reportEndToEnd(const Measured &m, Report &report)
{
    const TailStat tail = tailPercentile(m.latencyMs);
    report.add("setup_s", median(m.setupSeconds), "s");
    report.add("wall_s", median(m.wallSeconds), "s");
    report.add("sim_branches_per_s", median(m.branchRates), "branch/s");
    report.add("latency_p50_ms", median(m.latencyMs), "ms");
    report.add("latency_tail_ms", tail.value, "ms");
    report.add("campaigns_per_s", median(m.campaignRates), "1/s");
    report.add("peak_rss_mb", m.peakRssMb, "MB");
    std::cerr << "e2e: latency_tail_ms is p"
              << std::round(tail.percentile * 100.0) / 100.0 << " of "
              << tail.samples << " samples\n";
}

void
reportPerLayer(const Measured &m, Checks &checks, Report &report)
{
    // Extensive numbers are per traced unit (one reproduction, one
    // re-run, one serve-mix pass), so runs that fit a different number
    // of units compare.
    const double units = std::max<double>(1.0, m.tracedWallSeconds.size());
    const SpanBreakdown spans = breakDown(m.spans, "e2e.unit");
    const auto self = [&](const char *name) {
        const auto it = spans.selfMs.find(name);
        return it == spans.selfMs.end() ? 0.0 : it->second / units;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const SimTally &sim = m.sim;
    const double runMs = self("campaign.run");

    report.add("workload.generate_ms", self("workload.generate"), "ms");
    report.add("workload.generated",
               static_cast<double>(m.generated) / units, "count");
    report.add("trace.pack_ms", self("trace.pack"), "ms");
    report.add("trace.store_write_ms", self("trace.store_write"), "ms");
    report.add("trace.store_load_ms", self("trace.store_load"), "ms");
    report.add("trace.pcindex_ms", self("trace.pcindex"), "ms");
    report.add("trace.store_hit_ratio", m.storeHitRatio, "ratio");
    report.add("trace.resident_mb", m.residentMb, "MB");
    report.add("core.build_ms", self("core.build"), "ms");
    report.add("sim.bank_ms", sim.bankNs / 1e6 / units, "ms");
    report.add("sim.bank_lanes_mean",
               ratio(static_cast<double>(sim.fusedJobs), sim.banks), "lanes");
    report.add("sim.fused_job_share",
               ratio(static_cast<double>(sim.fusedJobs),
                     static_cast<double>(sim.jobs)),
               "ratio");
    report.add("sim.solo_ms", sim.soloNs / 1e6 / units, "ms");
    report.add("sim.virtual_ms", sim.virtualNs / 1e6 / units, "ms");
    report.add("sim.probed_ms", sim.probedNs / 1e6 / units, "ms");
    report.add("sim.lane_branches_per_s",
               ratio(static_cast<double>(sim.fusedBranches),
                     sim.bankNs / 1e9),
               "branch/s");
    report.add("sim.auto_tier_regret", m.autoTierRegret, "ratio");
    report.add("campaign.run_ms", runMs, "ms");
    report.add("campaign.worker_busy_share",
               ratio(sim.kernelNs() / 1e6 / units,
                     runMs * offlineWorkers(std::thread::hardware_concurrency())),
               "ratio");
    report.add("campaign.emit_ms", self("campaign.emit"), "ms");
    report.add("analysis.bias_ms", self("analysis.bias"), "ms");
    report.add("analysis.h2p_ms", self("analysis.h2p"), "ms");
    report.add("serve.admit_ms", m.admitMs, "ms");
    report.add("serve.first_result_ms", m.firstResultMs, "ms");
    report.add("serve.stream_ms", m.streamMs, "ms");
    report.add("serve.payload_kb", m.payloadKb, "KB");
    report.add("serve.fused_banks", m.fusedBanks / units, "count");
    report.add("serve.daemon_cpu_ms_per_campaign", m.daemonCpuMsPerCampaign,
               "ms");
    report.add("tracing_overhead_ms",
               1000.0 * (median(m.tracedWallSeconds) -
                         median(m.untracedWallSeconds)),
               "ms");
    report.add("unattributed_ms", spans.unattributedMs / units, "ms");
    checks.expect(spans.unattributedMs <= kMaxUnattributedShare * spans.rootMs,
                  "unattributed " + std::to_string(spans.unattributedMs) +
                      " ms exceeds " +
                      std::to_string(100 * kMaxUnattributedShare) + "% of " +
                      std::to_string(spans.rootMs) + " ms traced wall");
}

unsigned
offlineWorkers(unsigned nproc)
{
    return std::clamp(nproc, 1u, 2u);
}

// ------------------------------------------------------------ serve mix

ServeTopology
serveTopology(unsigned nproc)
{
    ServeTopology topology;
    topology.clients = std::clamp(nproc / 2, 1u, 2u);
    topology.daemonJobs =
        std::clamp(nproc > topology.clients ? nproc - topology.clients : 1u,
                   1u, 2u);
    return topology;
}

namespace
{

/** Fast-kind configurations around the 1 KB and 4 KB budgets of the
 *  scheme comparison. */
const std::vector<std::string> &
mixConfigPool()
{
    static const std::vector<std::string> pool = {
        "bimodal:n=12",      "bimodal:n=14",     "gshare:n=12",
        "gshare:n=12,h=9",   "gshare:n=14,h=11", "gag:h=12",
        "gas:h=8,a=4",       "gas:h=10,a=4",     "pas:h=6,l=9,a=6",
        "pas:h=8,l=10,a=6",  "agree:n=12",       "agree:n=14",
        "filter:n=12",       "filter:n=14",      "gskew:n=10",
        "gskew:n=12",        "bimode:d=10",      "bimode:d=12",
        "yags:c=11,n=9",     "yags:c=13,n=11",   "tournament:n=10",
        "tournament:n=12"};
    return pool;
}

/** @p k distinct elements of @p from, in draw order. */
std::vector<std::string>
drawDistinct(Rng &rng, const std::vector<std::string> &from, std::size_t k)
{
    std::vector<std::string> left = from;
    std::vector<std::string> out;
    for (std::size_t i = 0; i < k && !left.empty(); ++i) {
        const std::size_t j = rng.nextBounded(left.size());
        out.push_back(left[j]);
        left.erase(left.begin() + static_cast<std::ptrdiff_t>(j));
    }
    return out;
}

} // namespace

MixGenerator::MixGenerator(std::uint64_t seed, unsigned client,
                           std::vector<std::string> benchmarks)
    : rng(SplitMix64(seed * 0x9e3779b97f4a7c15ULL + client + 1).next()),
      client(client), benchmarks(std::move(benchmarks))
{
}

MixDraw
MixGenerator::next()
{
    // Shapes and benchmarks are dealt from seeded shuffles rather than
    // drawn independently, so every seed gets the same shape mix and
    // benchmark coverage and seeds differ only in order and configs.
    if (shapeDeck.empty()) {
        shapeDeck = {MixDraw::Shape::PerBranch, MixDraw::Shape::Ladder,
                     MixDraw::Shape::Ladder};
        shapeDeck.resize(10, MixDraw::Shape::Small);
        shuffle(shapeDeck);
    }
    const MixDraw::Shape shape = shapeDeck.back();
    shapeDeck.pop_back();
    const auto dealBenchmark = [this] {
        if (benchmarkDeck.empty()) {
            benchmarkDeck = benchmarks;
            shuffle(benchmarkDeck);
        }
        std::string name = benchmarkDeck.back();
        benchmarkDeck.pop_back();
        return name;
    };

    MixDraw draw;
    draw.shape = shape;
    serve::CampaignRequest &req = draw.request;
    req.id = "c" + std::to_string(client) + "-" + std::to_string(drawn);
    req.divisor = kSizeDivisor;
    if (shape == MixDraw::Shape::PerBranch) {
        req.perBranch = true;
        req.configs = drawDistinct(rng, mixConfigPool(), 1);
        req.benchmarks = {dealBenchmark()};
    } else if (shape == MixDraw::Shape::Ladder) {
        const bool gshare = rng.nextBool(0.5);
        const unsigned rungs = 8 + static_cast<unsigned>(rng.nextBounded(6));
        for (unsigned i = 0; i < rungs; ++i) {
            req.configs.push_back(gshare ? "gshare:n=" + std::to_string(6 + i)
                                         : "bimode:d=" + std::to_string(5 + i));
        }
        // Two fixed trios shared by every client: concurrent ladders
        // of one kind on one trio fuse across clients.
        const std::size_t trio = 3 * rng.nextBounded(2);
        for (std::size_t b = trio; b < trio + 3 && b < benchmarks.size(); ++b)
            req.benchmarks.push_back(benchmarks[b]);
    } else {
        req.configs =
            drawDistinct(rng, mixConfigPool(), 2 + rng.nextBounded(5));
        req.benchmarks = {dealBenchmark()};
        if (rng.nextBool(0.5)) {
            std::string second = dealBenchmark();
            if (second != req.benchmarks[0])
                req.benchmarks.push_back(std::move(second));
        }
    }
    // The first campaign of each client and a seeded ~6% sample are
    // re-run offline and byte-compared.
    draw.verify = rng.nextBool(0.06) || drawn == 0;
    ++drawn;
    return draw;
}

// ------------------------------------------------------ offline campaigns

std::vector<JobResult>
runCampaign(const Campaign &campaign, unsigned workers, Checks &checks,
            OfflineTally &tally)
{
    if (tracer().isEnabled()) {
        const Tracer::Scope span(tracer(), "core.build");
        for (const Job &job : campaign.jobs())
            checks.expect(tryMakePredictor(job.configText).ok(),
                          "build " + job.configText);
    }
    std::vector<JobResult> results;
    const auto start = Clock::now();
    {
        const Tracer::Scope span(tracer(), "campaign.run");
        results = campaign.run(workers, [&](const CampaignProgress &) {
            tally.jobLatencyMs.push_back(millisBetween(start, Clock::now()));
        });
    }
    {
        const Tracer::Scope span(tracer(), "campaign.emit");
        tally.output += resultsJson(results);
    }
    ++tally.campaigns;
    for (const JobResult &job : results) {
        checks.expect(job.ok(), job.benchmark + " x " + job.configText +
                                    ": " + job.error);
        tally.sim.add(job);
    }
    return results;
}

std::string
traceStatsRows(const std::vector<BenchmarkTrace> &benchmarks,
               unsigned workers)
{
    std::vector<std::string> rows(benchmarks.size());
    parallelFor(benchmarks.size(), workers, [&](std::size_t b) {
        const Tracer::Scope span(tracer(), "trace.stats");
        TraceStats stats;
        auto reader = benchmarks[b].trace->reader();
        stats.observeAll(reader);
        rows[b] = "table2 " + benchmarks[b].name + " " +
                  std::to_string(stats.staticConditional()) + " " +
                  std::to_string(stats.dynamicConditional()) + " " +
                  exact(stats.takenFraction()) + " " +
                  exact(stats.stronglyBiasedDynamicFraction()) + "\n";
    });
    std::string out;
    for (const std::string &row : rows)
        out += row;
    return out;
}

std::string
exact(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

// ------------------------------------------------------------- emitters

std::string
resultsJson(const std::vector<JobResult> &results)
{
    std::ostringstream os;
    writeResultsJson(os, results);
    return os.str();
}

std::string
stripTiming(const std::string &payload)
{
    const auto start = payload.rfind(",\"wallNanos\":");
    if (start == std::string::npos)
        return payload;
    const auto end = payload.find('}', start);
    if (end == std::string::npos)
        return payload;
    return payload.substr(0, start) + payload.substr(end);
}

} // namespace bpsim::e2e
