/**
 * @file
 * serve-mix: a closed loop of seeded campaigns from one load-generator
 * process against a `bpsim_serve --trace-cache none` daemon. An
 * untimed warm-up campaign makes every trace resident first, so the
 * timed phase bypasses trace generation and spends its time in
 * scheduler dispatch, cross-client fusion, the (probed) kernels, JSON
 * emit and socket delivery.
 */

#include <csignal>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "e2e.hh"
#include "serve/client.hh"
#include "sim/trace_cache.hh"
#include "trace/pc_index.hh"
#include "util/json.hh"
#include "workload/benchmarks.hh"

namespace bpsim::e2e
{

namespace
{

/** Campaigns each client sends per timed pass. */
constexpr unsigned kCampaignsPerPass = 16;

/** A bpsim_serve child process; stopped (SIGTERM, reaped) on
 *  destruction. */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &socket, unsigned jobs)
    {
        const std::string log = opts.workDir + "/serve-daemon.log";
        const std::string jobsText = std::to_string(jobs);
        std::vector<const char *> argv = {opts.serveBinary.c_str(),
                                          "--socket",
                                          socket.c_str(),
                                          "--jobs",
                                          jobsText.c_str(),
                                          "--trace-cache",
                                          "none",
                                          nullptr};
        child = ::fork();
        if (child == 0) {
            // Only async-signal-safe calls between fork and exec.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            const int fd =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
            }
            ::execv(argv[0], const_cast<char *const *>(argv.data()));
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return child; }

    /** SIGTERM, then reap; true when the daemon drained and exited 0. */
    bool
    stop()
    {
        if (child <= 0)
            return false;
        ::kill(child, SIGTERM);
        int status = 0;
        while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
        child = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t child = -1;
};

/** Connects to @p socket, retrying while the daemon starts up. */
bool
connectWhenReady(serve::ServeClient &client, const std::string &socket)
{
    std::string error;
    const auto start = Clock::now();
    while (!client.connect(socket, error)) {
        if (secondsSince(start) > 30.0) {
            std::cerr << "e2e: daemon never came up: " << error << "\n";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/** The unsigned member @p key of a result payload (first occurrence,
 *  which is the top-level one for the keys used here). */
std::uint64_t
payloadUint(const std::string &payload, const std::string &key)
{
    const auto at = payload.find("\"" + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(payload.c_str() + at + key.size() + 3, nullptr, 10);
}

/** The timing-bearing fields of a served payload, as a JobResult for
 *  SimTally. */
JobResult
jobFromPayload(const std::string &payload, const std::string &config)
{
    JobResult job;
    job.configText = config;
    job.result.branches = payloadUint(payload, "branches");
    job.result.wallNanos = payloadUint(payload, "wallNanos");
    job.result.fusedLanes =
        static_cast<std::uint32_t>(payloadUint(payload, "fusedLanes"));
    if (payload.find("\"perBranch\":[") != std::string::npos)
        job.result.perBranch.resize(1);
    return job;
}

/** One served campaign as the client saw it. */
struct Served
{
    MixDraw draw;
    std::vector<std::string> payloads;
    Clock::time_point sent, accepted, firstResult, done;
    std::size_t bytes = 0;
    bool ok = false;
    std::string error;
};

/**
 * Sends one campaign and reads its events until "done", stamping each
 * boundary. Result lines are sliced with extractRawPayload() without a
 * full parse, so client-side work stays out of the measured latency.
 */
void
serveOne(serve::ServeClient &client, Served &s)
{
    const serve::CampaignRequest &req = s.draw.request;
    s.sent = Clock::now();
    if (!client.sendLine(serve::campaignRequestLine(req))) {
        s.error = "send failed";
        return;
    }
    for (;;) {
        const auto line = client.readLine();
        const auto now = Clock::now();
        if (!line) {
            s.error = "connection closed mid-campaign";
            return;
        }
        s.bytes += line->size() + 1;
        if (line->rfind("{\"event\":\"result\"", 0) == 0) {
            if (s.payloads.empty())
                s.firstResult = now;
            s.payloads.push_back(serve::extractRawPayload(*line));
            continue;
        }
        const serve::Event event = serve::parseEvent(*line);
        if (event.kind == serve::Event::Kind::Accepted && event.id == req.id) {
            s.accepted = now;
        } else if (event.kind == serve::Event::Kind::Done &&
                   event.id == req.id) {
            s.done = now;
            s.ok = event.jobs == req.jobCount() &&
                   s.payloads.size() == req.jobCount();
            if (!s.ok)
                s.error = "done after " + std::to_string(s.payloads.size()) +
                          " of " + std::to_string(req.jobCount()) + " results";
            return;
        } else if (event.kind != serve::Event::Kind::Stats &&
                   event.kind != serve::Event::Kind::Pong) {
            s.error = "unexpected event: " + *line;
            return;
        }
    }
}

/** The daemon's cumulative fused-bank count, via the stats op. */
double
fusedBanks(serve::ServeClient &client)
{
    const auto reply = client.roundTrip("{\"op\":\"stats\"}");
    std::string error;
    const auto doc = reply ? JsonValue::parse(*reply, error) : std::nullopt;
    return doc ? static_cast<double>(doc->getUint("fusedBanks")) : 0.0;
}

/** Offline re-run of a served campaign through Campaign::run. */
std::string
offlineJson(TraceCache &cache, const serve::CampaignRequest &req,
            unsigned workers)
{
    std::vector<WorkloadSpec> specs;
    for (const std::string &name : req.benchmarks)
        specs.push_back(scaledBenchmark(*findBenchmark(name), req.divisor));
    SimConfig config;
    config.warmupBranches = req.warmup;
    config.trackPerBranch = req.perBranch;
    Campaign campaign;
    campaign.addGrid(req.configs, resolveTraces(cache, specs), config);
    return resultsJson(campaign.run(workers));
}

} // namespace

void
runServeMix(const Options &options, Checks &checks, Measured &m)
{
    const ServeTopology topology =
        serveTopology(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : allBenchmarks())
        names.push_back(spec.name);
    // A short relative path: sun_path holds ~108 bytes and the
    // checkout may sit deep.
    std::filesystem::create_directories(options.workDir);
    const std::string socket =
        std::filesystem::relative(options.workDir + "/serve-" +
                                  std::to_string(::getpid()) + ".sock")
            .string();

    // Set-up: daemon start until every trace is resident. Repeated so
    // setup_s is a median; the last daemon serves the timed phase.
    std::unique_ptr<Daemon> daemon;
    std::vector<serve::ServeClient> clients(topology.clients);
    const int setups = options.trace ? 1 : 5;
    for (int i = 0; i < setups; ++i) {
        clients.clear();
        clients.resize(topology.clients);
        daemon.reset();
        const auto start = Clock::now();
        daemon = std::make_unique<Daemon>(options, socket, topology.daemonJobs);
        bool up = true;
        for (serve::ServeClient &client : clients)
            up = up && connectWhenReady(client, socket);
        checks.expect(up, "bpsim_serve did not accept connections");
        if (!up)
            return;
        Served warm;
        warm.draw.request.id = "warm-up";
        warm.draw.request.configs = {"bimodal:n=4"};
        warm.draw.request.benchmarks = names;
        warm.draw.request.divisor = kSizeDivisor;
        serveOne(clients[0], warm);
        checks.expect(warm.ok, "warm-up campaign failed: " + warm.error);
        m.setupSeconds.push_back(secondsSince(start));
    }

    std::vector<MixGenerator> generators;
    for (unsigned c = 0; c < topology.clients; ++c)
        generators.emplace_back(options.seed, c, names);

    std::vector<Served> verify;
    std::vector<std::string> probedBenchmarks;
    std::vector<double> admit, firstResult, stream;
    std::size_t tracedBytes = 0, tracedCampaigns = 0;
    std::uint64_t campaigns = 0;
    double banksBefore = 0.0, cpuBefore = 0.0;

    const auto measureStart = Clock::now();
    while (true) {
        const double elapsed = secondsSince(measureStart);
        const bool traced =
            options.trace &&
            (!m.untracedWallSeconds.empty() && elapsed >= options.seconds / 2);
        const std::size_t passes =
            m.untracedWallSeconds.size() + m.tracedWallSeconds.size();
        if (passes >= 3 && elapsed >= options.seconds &&
            (!options.trace || !m.tracedWallSeconds.empty()))
            break;
        if (traced && m.tracedWallSeconds.empty()) {
            banksBefore = fusedBanks(clients[0]);
            cpuBefore = cpuMillis(daemon->pid());
        }

        tracer().setEnabled(traced);
        std::vector<std::vector<Served>> served(topology.clients);
        const auto passStart = Clock::now();
        {
            const Tracer::Scope root(tracer(), "e2e.unit");
            const std::uint32_t rootId = Tracer::current();
            std::vector<std::thread> threads;
            for (unsigned c = 0; c < topology.clients; ++c) {
                threads.emplace_back([&, c] {
                    const Tracer::Adopt adopt(rootId);
                    for (unsigned k = 0; k < kCampaignsPerPass; ++k) {
                        Served s;
                        s.draw = generators[c].next();
                        s.draw.request.timing = traced;
                        serveOne(clients[c], s);
                        if (s.ok) {
                            tracer().recordSpan("serve.admit", s.sent,
                                                s.accepted);
                            tracer().recordSpan("serve.first_result",
                                                s.accepted, s.firstResult);
                            tracer().recordSpan("serve.stream", s.firstResult,
                                                s.done);
                        }
                        served[c].push_back(std::move(s));
                        if (!served[c].back().ok)
                            return;
                    }
                });
            }
            for (std::thread &thread : threads)
                thread.join();
        }
        const double wall = secondsSince(passStart);
        tracer().setEnabled(false);

        m.wallSeconds.push_back(wall);
        (traced ? m.tracedWallSeconds : m.untracedWallSeconds)
            .push_back(wall);
        std::uint64_t passBranches = 0, passCampaigns = 0;
        for (std::vector<Served> &perClient : served) {
            for (Served &s : perClient) {
                checks.expect(s.ok, "campaign " + s.draw.request.id + ": " +
                                        s.error);
                if (!s.ok)
                    continue;
                ++passCampaigns;
                m.latencyMs.push_back(millisBetween(s.sent, s.done));
                for (std::size_t j = 0; j < s.payloads.size(); ++j) {
                    const std::string &config =
                        s.draw.request
                            .configs[j / s.draw.request.benchmarks.size()];
                    checks.expect(s.payloads[j].rfind("{\"ok\":true", 0) == 0,
                                  "job failed: " + s.payloads[j]);
                    const JobResult job = jobFromPayload(s.payloads[j], config);
                    passBranches += job.result.branches;
                    if (traced)
                        m.sim.add(job);
                }
                if (traced) {
                    admit.push_back(millisBetween(s.sent, s.accepted));
                    firstResult.push_back(
                        millisBetween(s.accepted, s.firstResult));
                    stream.push_back(millisBetween(s.firstResult, s.done));
                    tracedBytes += s.bytes;
                    ++tracedCampaigns;
                    if (s.draw.request.perBranch)
                        probedBenchmarks.push_back(
                            s.draw.request.benchmarks[0]);
                }
                if (s.draw.verify) {
                    if (traced)
                        for (std::string &payload : s.payloads)
                            payload = stripTiming(payload);
                    verify.push_back(std::move(s));
                }
            }
        }
        m.addRates(wall, passBranches, passCampaigns);
        campaigns += passCampaigns;
        if (checks.failed() > 0)
            break;
    }

    if (options.trace) {
        m.fusedBanks = fusedBanks(clients[0]) - banksBefore;
        m.daemonCpuMsPerCampaign =
            (cpuMillis(daemon->pid()) - cpuBefore) /
            std::max<double>(1.0, static_cast<double>(tracedCampaigns));
        m.admitMs = median(admit);
        m.firstResultMs = median(firstResult);
        m.streamMs = median(stream);
        m.payloadKb = static_cast<double>(tracedBytes) / 1024.0 /
                      std::max<double>(1.0, static_cast<double>(tracedCampaigns));
    }
    m.peakRssMb = peakRssMb(std::to_string(daemon->pid()));
    clients.clear();
    checks.expect(daemon->stop(), "bpsim_serve did not drain and exit 0");
    daemon.reset();

    // Offline checks, after the daemon is gone: every sampled campaign
    // must be byte-identical to Campaign::run + writeResultsJson.
    TraceCache cache;
    for (const Served &s : verify) {
        checks.expect(offlineJson(cache, s.draw.request, options.workers) ==
                          serve::joinResultsJson(s.payloads),
                      "served campaign " + s.draw.request.id +
                          " differs from its offline re-run");
    }
    std::cerr << "e2e: serve-mix verified " << verify.size() << " of "
              << campaigns << " campaigns offline\n";

    if (options.trace) {
        // Resident bytes of the daemon's trace set, from identical
        // copies; and the PcIndex builds its per-branch jobs paid.
        std::vector<WorkloadSpec> specs;
        for (const std::string &name : names)
            specs.push_back(scaledBenchmark(*findBenchmark(name), kSizeDivisor));
        for (const BenchmarkTrace &b : resolveTraces(cache, specs))
            m.residentMb += residentTraceMb(b);
        tracer().setEnabled(true);
        for (const std::string &name : probedBenchmarks) {
            const PackedTrace &packed =
                cache.packedFor(scaledBenchmark(*findBenchmark(name),
                                                kSizeDivisor));
            const Tracer::Scope span(tracer(), "trace.pcindex");
            const PcIndex index(packed);
            checks.expect(index.staticCount() > 0, "empty PcIndex");
        }
        tracer().setEnabled(false);
    }
    m.spans = tracer().spans();
}

} // namespace bpsim::e2e
