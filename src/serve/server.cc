#include "serve/server.hh"

#include <map>
#include <sstream>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign/emitters.hh"
#include "serve/socket_io.hh"
#include "util/logging.hh"
#include "workload/benchmarks.hh"

namespace bpsim::serve
{

/**
 * One campaign accepted from one client. The scheduler completes
 * jobs in whatever order the thread schedule produces; results are
 * parked in @ref ready until their turn so the client always sees
 * index order. All mutable state is guarded by the owning session's
 * write mutex.
 */
struct CampaignServer::CampaignState
{
    std::string id;
    std::size_t jobCount = 0;
    bool timing = false;

    /** Next index to emit (the reorder cursor). */
    std::size_t nextEmit = 0;
    std::size_t emitted = 0;
    /** Finished-but-out-of-order payloads, keyed by job index. */
    std::map<std::size_t, std::string> ready;
    /** Scheduler tickets, for cancellation on disconnect. */
    std::vector<CampaignScheduler::Ticket> tickets;
};

/**
 * One connected client. The reader thread parses and submits;
 * scheduler callbacks write results. @ref writeMu serializes every
 * write to @ref fd and guards @ref dead and @ref campaigns.
 */
struct CampaignServer::Session
{
    int fd = -1;
    std::thread reader;
    /** Reader thread has returned; the session can be reaped. */
    std::atomic<bool> finished{false};

    std::mutex writeMu;
    /** Peer gone or write failed; all further output is dropped. */
    bool dead = false;
    std::map<std::string, std::shared_ptr<CampaignState>> campaigns;

    /** Writes one line; requires @ref writeMu. A failure marks the
     *  session dead — only this client's stream is affected. */
    void writeLocked(const std::string &line)
    {
        if (dead)
            return;
        if (!sendAll(fd, line))
            dead = true;
    }

    void write(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(writeMu);
        writeLocked(line);
    }
};

CampaignServer::CampaignServer(Options options)
    : opts(std::move(options)),
      scheduler(CampaignScheduler::Options{opts.workers, opts.fuse,
                                           opts.maxPending, false}),
      traceCache(opts.traceCacheDir)
{
    if (!opts.resolveBenchmark)
        opts.resolveBenchmark = [](const std::string &name) {
            return findBenchmark(name);
        };
}

CampaignServer::~CampaignServer()
{
    stop();
}

bool
CampaignServer::start(std::string &error)
{
    listenFd = listenUnix(opts.socketPath, error);
    if (listenFd < 0)
        return false;
    acceptThread = std::thread([this] { acceptLoop(listenFd); });
    return true;
}

void
CampaignServer::acceptLoop(int fd)
{
    while (!stopping.load()) {
        // Poll with a timeout instead of blocking in accept(): a
        // stop() from another thread must be noticed promptly even
        // when no client ever connects again.
        pollfd pfd{fd, POLLIN, 0};
        const int n = ::poll(&pfd, 1, 200);
        if (n < 0 && errno != EINTR)
            break;
        // Reap on every wakeup, including poll timeouts: an idle
        // daemon must not accumulate the threads and fds of
        // disconnected clients until the next connection arrives.
        reapFinishedSessions();
        if (n <= 0 || (pfd.revents & POLLIN) == 0)
            continue;
        const int clientFd = ::accept(fd, nullptr, nullptr);
        if (clientFd < 0)
            continue;
        if (stopping.load()) {
            closeFd(clientFd);
            break;
        }
        // Bound sends so a non-reading client fails its own stream
        // instead of blocking the shared completion-callback path.
        if (opts.sendTimeoutMs > 0)
            setSendTimeout(clientFd, opts.sendTimeoutMs);
        auto session = std::make_shared<Session>();
        session->fd = clientFd;
        {
            std::lock_guard<std::mutex> lock(mu);
            ++counters.sessionsAccepted;
            sessions.push_back(session);
        }
        session->reader =
            std::thread([this, session] { sessionLoop(session); });
    }
}

void
CampaignServer::sessionLoop(const std::shared_ptr<Session> &session)
{
    LineReader reader(session->fd);
    while (auto line = reader.readLine()) {
        if (line->empty())
            continue;
        handleLine(session, *line);
    }
    closeSession(session);
    session->finished.store(true);
}

void
CampaignServer::handleLine(const std::shared_ptr<Session> &session,
                           const std::string &line)
{
    Request request = parseRequest(line);
    switch (request.op) {
      case Request::Op::Ping:
        session->write(pongEvent());
        return;
      case Request::Op::Stats:
        session->write(statsEvent(scheduler.stats(), traceCache.stats()));
        return;
      case Request::Op::Campaign:
        handleCampaign(session, std::move(request.campaign));
        return;
      case Request::Op::Invalid:
        {
            std::lock_guard<std::mutex> lock(mu);
            ++counters.malformedRequests;
        }
        session->write(errorEvent(request.error));
        return;
    }
}

void
CampaignServer::handleCampaign(const std::shared_ptr<Session> &session,
                               CampaignRequest &&request)
{
    auto reject = [&](const std::string &why) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++counters.campaignsRejected;
        }
        session->write(rejectedEvent(request.id, why));
    };

    if (stopping.load()) {
        reject("server draining");
        return;
    }
    if (request.jobCount() > opts.maxJobsPerRequest) {
        reject("campaign of " + std::to_string(request.jobCount()) +
               " jobs exceeds the per-request cap of " +
               std::to_string(opts.maxJobsPerRequest));
        return;
    }

    // Resolve names and materialize traces before taking the write
    // lock: first-touch trace generation is the slow part and must
    // not stall this session's in-flight result stream. The cache is
    // shared across every session and single-flight per key, so
    // concurrent clients sweeping the same benchmark generate its
    // trace exactly once, and a client whose traces are resident
    // never waits behind another client's cold one.
    std::vector<WorkloadSpec> specs;
    specs.reserve(request.benchmarks.size());
    for (const std::string &name : request.benchmarks) {
        auto spec = opts.resolveBenchmark(name);
        if (!spec) {
            reject("unknown benchmark '" + name + "'");
            return;
        }
        const std::uint64_t fullCount = spec->dynamicBranches;
        *spec = scaledBenchmark(std::move(*spec), request.divisor);
        // The cache is keyed by name and rejects one name with two
        // dynamic counts, so each scaled record count gets its own
        // entry: divisors that scale to one count share it, which
        // bounds a benchmark's entries by the scaling floor.
        // Generation depends only on the spec's parameters, never its
        // name, and jobs still report the plain name.
        if (spec->dynamicBranches != fullCount)
            spec->name += '@' + std::to_string(spec->dynamicBranches);
        specs.push_back(std::move(*spec));
    }
    std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(traceCache, specs, scheduler.workerCount());
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        benchmarks[i].name = request.benchmarks[i];

    // The offline emitter's grid, so streamed output lines up with
    // its array positions.
    SimConfig simConfig;
    simConfig.warmupBranches = request.warmup;
    simConfig.trackPerBranch = request.perBranch;
    Campaign grid;
    grid.addGrid(request.configs, benchmarks, simConfig);

    auto campaign = std::make_shared<CampaignState>();
    campaign->id = request.id;
    campaign->jobCount = grid.jobCount();
    campaign->timing = request.timing;

    // The write lock is held across admission so the "accepted"
    // event reaches the wire before the first result can (the
    // completion callback blocks on this same mutex).
    std::lock_guard<std::mutex> lock(session->writeMu);
    if (session->dead)
        return;
    if (session->campaigns.count(request.id) != 0) {
        {
            std::lock_guard<std::mutex> statsLock(mu);
            ++counters.campaignsRejected;
        }
        session->writeLocked(rejectedEvent(
            request.id, "campaign id '" + request.id +
                            "' is already in flight on this connection"));
        return;
    }

    std::weak_ptr<Session> weak(session);
    auto tickets = scheduler.trySubmitAll(
        grid.jobs(),
        [this, weak, campaign](CampaignScheduler::Ticket,
                               JobResult result) {
            onJobDone(weak, campaign, std::move(result));
        });
    if (!tickets) {
        {
            std::lock_guard<std::mutex> statsLock(mu);
            ++counters.campaignsRejected;
        }
        session->writeLocked(rejectedEvent(
            request.id,
            "server at capacity (" +
                std::to_string(scheduler.pendingJobs()) +
                " jobs pending); retry later"));
        return;
    }

    campaign->tickets = std::move(*tickets);
    session->campaigns.emplace(campaign->id, campaign);
    {
        std::lock_guard<std::mutex> statsLock(mu);
        ++counters.campaignsAccepted;
    }
    session->writeLocked(acceptedEvent(campaign->id, campaign->jobCount));
}

void
CampaignServer::onJobDone(const std::weak_ptr<Session> &weak,
                          const std::shared_ptr<CampaignState> &campaign,
                          JobResult result)
{
    const std::shared_ptr<Session> session = weak.lock();
    if (!session)
        return;

    // Render outside the write lock; the payload bytes are exactly
    // one element of the offline emitter's array.
    std::ostringstream os;
    writeResultJson(os, result, campaign->timing);

    std::lock_guard<std::mutex> lock(session->writeMu);
    if (session->dead)
        return;
    campaign->ready.emplace(result.index, os.str());
    while (true) {
        const auto it = campaign->ready.find(campaign->nextEmit);
        if (it == campaign->ready.end())
            break;
        session->writeLocked(
            resultEvent(campaign->id, campaign->nextEmit, it->second));
        campaign->ready.erase(it);
        ++campaign->nextEmit;
        ++campaign->emitted;
    }
    if (campaign->emitted == campaign->jobCount) {
        session->writeLocked(
            doneEvent(campaign->id, campaign->jobCount));
        session->campaigns.erase(campaign->id);
    }
}

void
CampaignServer::closeSession(const std::shared_ptr<Session> &session)
{
    std::vector<CampaignScheduler::Ticket> toCancel;
    {
        std::lock_guard<std::mutex> lock(session->writeMu);
        session->dead = true;
        for (const auto &entry : session->campaigns) {
            const CampaignState &campaign = *entry.second;
            toCancel.insert(toCancel.end(), campaign.tickets.begin(),
                            campaign.tickets.end());
        }
        session->campaigns.clear();
    }
    // Undispatched jobs of a vanished client are wasted work; shed
    // them. In-flight ones finish and deliver into the dead session,
    // where they are dropped — other clients never notice.
    std::uint64_t cancelled = 0;
    for (const CampaignScheduler::Ticket ticket : toCancel) {
        if (scheduler.cancel(ticket))
            ++cancelled;
    }
    if (cancelled > 0) {
        std::lock_guard<std::mutex> lock(mu);
        counters.disconnectCancelledJobs += cancelled;
    }
    ::shutdown(session->fd, SHUT_RDWR);
}

void
CampaignServer::reapFinishedSessions()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = sessions.begin(); it != sessions.end();) {
        Session &session = **it;
        if (!session.finished.load()) {
            ++it;
            continue;
        }
        if (session.reader.joinable())
            session.reader.join();
        closeFd(session.fd);
        session.fd = -1;
        it = sessions.erase(it);
    }
}

void
CampaignServer::stop()
{
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true)) {
        // Another thread is stopping (or has stopped); wait it out.
        waitForStop();
        return;
    }

    // Graceful drain: every accepted job completes and its results
    // stream to the client before any connection is torn down. New
    // campaigns are already being rejected ("server draining").
    scheduler.drain();

    if (acceptThread.joinable())
        acceptThread.join();
    closeFd(listenFd);
    listenFd = -1;

    // Wake every session reader (EOF) and join.
    std::vector<std::shared_ptr<Session>> remaining;
    {
        std::lock_guard<std::mutex> lock(mu);
        remaining = sessions;
    }
    for (const auto &session : remaining)
        ::shutdown(session->fd, SHUT_RDWR);
    for (const auto &session : remaining) {
        if (session->reader.joinable())
            session->reader.join();
        closeFd(session->fd);
        session->fd = -1;
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        sessions.clear();
    }
    ::unlink(opts.socketPath.c_str());
    scheduler.shutdown();

    {
        std::lock_guard<std::mutex> lock(stopMu);
        stopped = true;
    }
    stopCv.notify_all();
}

void
CampaignServer::waitForStop()
{
    std::unique_lock<std::mutex> lock(stopMu);
    stopCv.wait(lock, [this] { return stopped; });
}

CampaignServer::Stats
CampaignServer::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

CampaignScheduler::Stats
CampaignServer::schedulerStats() const
{
    return scheduler.stats();
}

} // namespace bpsim::serve
