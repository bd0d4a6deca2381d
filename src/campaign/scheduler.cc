#include "campaign/scheduler.hh"

#include <exception>
#include <utility>

#include "core/factory.hh"
#include "sim/replay.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

/**
 * Upper bound on fused lanes per bank. Batches wider than this
 * split: beyond a point more lanes stop amortizing anything (the
 * trace pass is already shared) and only grow the bank's working set
 * past the cache levels the single-lane tables were sized for, while
 * smaller chunks keep the worker pool fed.
 */
constexpr std::size_t kMaxBankLanes = 32;

/**
 * Runs one batch of jobs sharing a bank key (takeBatch()), a batch of
 * one included: constructs every job's predictor and banks them
 * through replayKernelBankAny(). Unbound traces and construction
 * errors land in their own job's result without affecting the
 * others.
 */
std::vector<JobResult>
runBatch(const std::vector<const Job *> &jobs)
{
    std::vector<JobResult> results(jobs.size());
    std::vector<PredictorPtr> owned;
    std::vector<BranchPredictor *> bank;
    std::vector<std::size_t> laneSlot;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const Job &job = *jobs[k];
        JobResult &result = results[k];
        result.index = job.index;
        result.benchmark = job.benchmark;
        result.configText = job.configText;
        if (job.packed == nullptr) {
            result.error = "job has no trace bound";
            continue;
        }
        PredictorResult made = tryMakePredictor(job.configText);
        if (!made.ok()) {
            result.error = std::move(made.error);
            continue;
        }
        bank.push_back(made.predictor.get());
        owned.push_back(std::move(made.predictor));
        laneSlot.push_back(k);
    }
    if (bank.empty())
        return results;

    const Job &first = *jobs[laneSlot.front()];
    std::vector<SimResult> sims;
    if (!replayKernelBankAny(bank, *first.packed, first.simConfig, sims))
        BPSIM_PANIC("registered predictor kind without a replay kernel: "
                    << first.configText);
    for (std::size_t lane = 0; lane < sims.size(); ++lane) {
        JobResult &result = results[laneSlot[lane]];
        result.result = std::move(sims[lane]);
        result.result.benchmark = result.benchmark;
        result.result.configText = result.configText;
    }
    return results;
}

} // namespace

JobResult
runJob(const Job &job)
{
    return std::move(runBatch({&job}).front());
}

CampaignScheduler::CampaignScheduler() : CampaignScheduler(Options{}) {}

CampaignScheduler::CampaignScheduler(Options options) : opts(options)
{
    resolvedWorkers =
        opts.workers == 0 ? defaultWorkerCount() : opts.workers;
    paused = opts.paused;
    pool.reserve(resolvedWorkers);
    for (unsigned t = 0; t < resolvedWorkers; ++t)
        pool.emplace_back([this] { workerLoop(); });
}

CampaignScheduler::~CampaignScheduler()
{
    shutdown();
}

std::optional<CampaignScheduler::Ticket>
CampaignScheduler::admit(Job &&job, CompletionFn &&done, bool blocking)
{
    // Classify for fusion outside the lock (fastReplayKind parses
    // the config text).
    std::string kind;
    if (opts.fuse && job.packed != nullptr)
        kind = fastReplayKind(job.configText);

    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        if (stopping)
            return std::nullopt;
        if (opts.maxPending == 0 || queue.size() < opts.maxPending)
            break;
        if (!blocking)
            return std::nullopt;
        spaceCv.wait(lock);
    }
    Pending pending;
    const Ticket ticket = nextTicket++;
    pending.ticket = ticket;
    pending.job = std::move(job);
    pending.fuseKind = std::move(kind);
    pending.done = std::move(done);
    queue.push_back(std::move(pending));
    ++counters.submitted;
    workCv.notify_one();
    return ticket;
}

std::optional<CampaignScheduler::Ticket>
CampaignScheduler::submit(Job job, CompletionFn done)
{
    return admit(std::move(job), std::move(done), /*blocking=*/true);
}

std::optional<CampaignScheduler::Ticket>
CampaignScheduler::trySubmit(Job job, CompletionFn done)
{
    return admit(std::move(job), std::move(done), /*blocking=*/false);
}

std::optional<std::vector<CampaignScheduler::Ticket>>
CampaignScheduler::trySubmitAll(std::vector<Job> jobs, CompletionFn done)
{
    std::vector<std::string> kinds(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &job = jobs[i];
        if (opts.fuse && job.packed != nullptr)
            kinds[i] = fastReplayKind(job.configText);
    }

    std::unique_lock<std::mutex> lock(mu);
    if (stopping)
        return std::nullopt;
    if (opts.maxPending != 0 &&
        queue.size() + jobs.size() > opts.maxPending) {
        return std::nullopt;
    }
    std::vector<Ticket> tickets;
    tickets.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        Pending pending;
        pending.ticket = nextTicket++;
        pending.job = std::move(jobs[i]);
        pending.fuseKind = std::move(kinds[i]);
        pending.done = done;
        tickets.push_back(pending.ticket);
        queue.push_back(std::move(pending));
        ++counters.submitted;
    }
    workCv.notify_all();
    return tickets;
}

bool
CampaignScheduler::cancel(Ticket ticket)
{
    const std::lock_guard<std::mutex> lock(mu);
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->ticket != ticket)
            continue;
        queue.erase(it);
        ++counters.cancelled;
        spaceCv.notify_all();
        if (queue.empty() && inFlight == 0)
            drainCv.notify_all();
        return true;
    }
    return false;
}

void
CampaignScheduler::pause()
{
    const std::lock_guard<std::mutex> lock(mu);
    paused = true;
}

void
CampaignScheduler::resume()
{
    const std::lock_guard<std::mutex> lock(mu);
    if (!paused)
        return;
    paused = false;
    workCv.notify_all();
}

void
CampaignScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    if (paused) {
        paused = false;
        workCv.notify_all();
    }
    drainCv.wait(lock,
                 [this] { return queue.empty() && inFlight == 0; });
}

void
CampaignScheduler::shutdown()
{
    // Exactly one caller performs the joins; concurrent callers
    // block here until it is done (joining an already-joined
    // std::thread throws), then see the empty pool and return.
    const std::lock_guard<std::mutex> shutdownLock(shutdownMu);
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (stopping && pool.empty())
            return;
        stopping = true;
        paused = false;
        workCv.notify_all();
        spaceCv.notify_all();
    }
    // Workers finish the remaining queue before exiting, so joining
    // doubles as the final drain.
    for (std::thread &thread : pool)
        thread.join();
    pool.clear();
    const std::lock_guard<std::mutex> lock(mu);
    drainCv.notify_all();
}

CampaignScheduler::Stats
CampaignScheduler::stats() const
{
    const std::lock_guard<std::mutex> lock(mu);
    Stats snapshot = counters;
    snapshot.pending = queue.size();
    snapshot.inFlight = inFlight;
    return snapshot;
}

std::size_t
CampaignScheduler::pendingJobs() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return queue.size();
}

std::vector<CampaignScheduler::Pending>
CampaignScheduler::takeBatch(std::unique_lock<std::mutex> &lock)
{
    (void)lock; // held by contract; the queue sweep below needs it
    std::vector<Pending> batch;
    batch.push_back(std::move(queue.front()));
    queue.pop_front();
    // The bank key is copied out rather than referenced through
    // batch.front(): the push_backs below may reallocate the batch,
    // which would dangle any reference into it.
    const std::string headKind = batch.front().fuseKind;
    const auto *headPacked = batch.front().job.packed.get();
    const auto headWarmup =
        batch.front().job.simConfig.warmupBranches;
    const auto headTier = batch.front().job.simConfig.kernelTier;
    const bool headPerBranch =
        batch.front().job.simConfig.trackPerBranch;
    if (!headKind.empty()) {
        // Dispatch-time fusion: sweep the pending queue, in order,
        // for jobs sharing the head's bank key. Submitter identity
        // is irrelevant — this is where jobs from different clients
        // merge into one trace pass.
        for (auto it = queue.begin();
             it != queue.end() && batch.size() < kMaxBankLanes;) {
            // kernelTier is part of the bank key: a bank runs on one
            // tier, so jobs forcing different tiers (the tier-matrix
            // tests, A/B timing runs) must not fuse.
            // trackPerBranch is too: the bank probes all lanes or
            // none, so tracked and untracked jobs run separate
            // passes and the untracked ones keep the unprobed
            // kernels and their SIMD tiers.
            if (it->fuseKind == headKind &&
                it->job.packed.get() == headPacked &&
                it->job.simConfig.warmupBranches == headWarmup &&
                it->job.simConfig.kernelTier == headTier &&
                it->job.simConfig.trackPerBranch == headPerBranch) {
                batch.push_back(std::move(*it));
                it = queue.erase(it);
            } else {
                ++it;
            }
        }
    }
    inFlight += batch.size();
    if (batch.size() >= 2)
        ++counters.fusedBanks;
    spaceCv.notify_all();
    return batch;
}

void
CampaignScheduler::workerLoop()
{
    for (;;) {
        std::unique_lock<std::mutex> lock(mu);
        workCv.wait(lock, [this] {
            return stopping || (!paused && !queue.empty());
        });
        if (queue.empty()) {
            if (stopping)
                return;
            continue;
        }
        std::vector<Pending> batch = takeBatch(lock);
        lock.unlock();

        std::vector<const Job *> jobs;
        jobs.reserve(batch.size());
        for (const Pending &pending : batch)
            jobs.push_back(&pending.job);
        std::vector<JobResult> results = runBatch(jobs);

        {
            // One callback at a time, scheduler-wide: completion
            // hooks never race each other (and Campaign::run()'s
            // progress contract rides on this).
            const std::lock_guard<std::mutex> callbacks(callbackMu);
            for (std::size_t k = 0; k < batch.size(); ++k)
                deliver(batch[k], std::move(results[k]));
        }

        lock.lock();
        inFlight -= batch.size();
        counters.completed += batch.size();
        if (queue.empty() && inFlight == 0)
            drainCv.notify_all();
    }
}

void
CampaignScheduler::deliver(const Pending &pending, JobResult result)
{
    if (!pending.done)
        return;
    // A throwing callback fails only its own ticket's delivery. The
    // worker pool, the other lanes of this batch, and every other
    // submitter's stream are unaffected (an escaped exception would
    // std::terminate the process).
    try {
        pending.done(pending.ticket, std::move(result));
    } catch (const std::exception &e) {
        const std::lock_guard<std::mutex> lock(mu);
        ++counters.callbackExceptions;
        BPSIM_WARN("completion callback for ticket "
                   << pending.ticket << " threw (" << e.what()
                   << "); result dropped for that ticket only");
    } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        ++counters.callbackExceptions;
        BPSIM_WARN("completion callback for ticket "
                   << pending.ticket
                   << " threw; result dropped for that ticket only");
    }
}

} // namespace bpsim
