/**
 * @file
 * The campaign service daemon.
 *
 * One CampaignServer owns the process-wide experiment machinery —
 * a single CampaignScheduler worker pool and a single TraceCache —
 * and serves any number of concurrent clients over a unix-domain
 * socket speaking the JSON-lines protocol (serve/protocol.hh).
 * Because every client's jobs land in the same scheduler, compatible
 * jobs from *different* clients fuse into the same banked replay
 * sweep, and every client's benchmarks come out of the same shared
 * trace pool: two clients sweeping `go` cost one generated trace and
 * (when their grids overlap in fusion key) one trace pass.
 *
 * Per-session threading: a reader thread parses request lines and
 * submits; scheduler completion callbacks render and write result
 * events. A per-session write mutex serializes the two, and is held
 * across admission so the "accepted" event always precedes the first
 * result. Per-campaign results are re-ordered into index order
 * before emission (completion order is a thread-schedule accident).
 *
 * Robustness policy:
 *   - malformed lines get an error/rejected event; the connection
 *     and the daemon live on;
 *   - admission is all-or-nothing per campaign
 *     (CampaignScheduler::trySubmitAll) and bounded by the
 *     scheduler's maxPending — an overloaded daemon rejects loudly
 *     instead of buffering without bound;
 *   - a client that disconnects mid-campaign has its undispatched
 *     jobs cancelled and its in-flight results dropped (the session
 *     is referenced weakly from callbacks); nobody else notices;
 *   - a write failure marks only that session dead — including a
 *     send timeout (Options::sendTimeoutMs) against a client that
 *     stopped reading, so one full socket buffer cannot stall the
 *     serialized result-delivery path everyone shares;
 *   - stop() drains gracefully: new campaigns are rejected, accepted
 *     ones finish and stream out, then sessions are closed.
 */

#ifndef BPSIM_SERVE_SERVER_HH
#define BPSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/scheduler.hh"
#include "serve/protocol.hh"
#include "sim/trace_cache.hh"
#include "workload/workload_spec.hh"

namespace bpsim::serve
{

/** Maps a benchmark name to its workload spec; nullopt = unknown. */
using ResolveBenchmarkFn =
    std::function<std::optional<WorkloadSpec>(const std::string &)>;

/** The campaign service daemon (one per process). */
class CampaignServer
{
  public:
    struct Options
    {
        /** Filesystem path of the unix-domain listening socket. */
        std::string socketPath;
        /** Scheduler worker threads; 0 = one per hardware thread. */
        unsigned workers = 0;
        /** Cross-client banked fusion (results identical either way). */
        bool fuse = true;
        /** Scheduler admission bound; campaigns that would overflow
         *  it are rejected whole. 0 = unbounded. */
        std::size_t maxPending = 1024;
        /** Hard per-request grid cap (reject absurd requests before
         *  they touch the scheduler). */
        std::size_t maxJobsPerRequest = 4096;
        /** Per-send timeout on client sockets (SO_SNDTIMEO), in
         *  milliseconds. Result delivery runs under the scheduler's
         *  serialized callback section, so a client that stops
         *  reading must fail its write (and be marked dead) rather
         *  than block everyone else's results behind its full socket
         *  buffer. 0 = blocking sends (tests only). */
        int sendTimeoutMs = 10000;
        /** Trace store directory for the shared cache ("" = memory
         *  only; pass through resolveTraceStoreDir() first). */
        std::string traceCacheDir;
        /** Benchmark-name resolver; defaults to the built-in suite
         *  (workload/benchmarks.hh findBenchmark). Tests inject tiny
         *  synthetic specs here. */
        ResolveBenchmarkFn resolveBenchmark;
    };

    /** Daemon-level counters (session lifecycle; scheduler counters
     *  live in CampaignScheduler::Stats). */
    struct Stats
    {
        std::uint64_t sessionsAccepted = 0;
        std::uint64_t campaignsAccepted = 0;
        std::uint64_t campaignsRejected = 0;
        std::uint64_t malformedRequests = 0;
        std::uint64_t disconnectCancelledJobs = 0;
    };

    explicit CampaignServer(Options options);
    ~CampaignServer();

    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /** Binds the socket and starts the accept thread. False with
     *  @p error filled when the socket cannot be created. */
    bool start(std::string &error);

    /**
     * Graceful shutdown: stops accepting connections and campaigns,
     * drains every accepted job (results still stream to their
     * clients), then closes all sessions and joins their threads.
     * Idempotent; called by the destructor. Safe to call from any
     * thread except a session's own.
     */
    void stop();

    /** Blocks until stop() is called (the daemon main's parking
     *  spot while the signal handler decides when to stop). */
    void waitForStop();

    Stats stats() const;
    CampaignScheduler::Stats schedulerStats() const;
    const std::string &socketPath() const { return opts.socketPath; }

  private:
    struct Session;
    struct CampaignState;

    void acceptLoop(int listenFd);
    void sessionLoop(const std::shared_ptr<Session> &session);
    void handleLine(const std::shared_ptr<Session> &session,
                    const std::string &line);
    void handleCampaign(const std::shared_ptr<Session> &session,
                        CampaignRequest &&request);
    void onJobDone(const std::weak_ptr<Session> &weak,
                   const std::shared_ptr<CampaignState> &campaign,
                   JobResult result);
    void closeSession(const std::shared_ptr<Session> &session);
    void reapFinishedSessions();

    Options opts;
    CampaignScheduler scheduler;
    /** Shared by every session; thread-safe and single-flight per
     *  key, so sessions resolve through it without a lock of their
     *  own. */
    TraceCache traceCache;

    mutable std::mutex mu;
    Stats counters;
    std::vector<std::shared_ptr<Session>> sessions;
    std::thread acceptThread;
    int listenFd = -1;
    std::atomic<bool> stopping{false};

    std::mutex stopMu;
    std::condition_variable stopCv;
    bool stopped = false; ///< guarded by @ref stopMu
};

} // namespace bpsim::serve

#endif // BPSIM_SERVE_SERVER_HH
