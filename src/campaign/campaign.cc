#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <system_error>
#include <thread>
#include <utility>

#include "campaign/scheduler.hh"
#include "util/logging.hh"

namespace bpsim
{

unsigned
defaultWorkerCount()
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

Job &
Campaign::addJob(Job job)
{
    job.index = jobList.size();
    jobList.push_back(std::move(job));
    return jobList.back();
}

Job &
Campaign::addJob(std::string configText, const BenchmarkTrace &benchmark,
                 const SimConfig &simConfig)
{
    Job job;
    job.configText = std::move(configText);
    job.benchmark = benchmark.name;
    job.packed = benchmark.packed;
    job.simConfig = simConfig;
    return addJob(std::move(job));
}

void
Campaign::addGrid(const std::vector<std::string> &configs,
                  const std::vector<BenchmarkTrace> &benchmarks,
                  const SimConfig &simConfig)
{
    for (const std::string &config : configs)
        for (const BenchmarkTrace &benchmark : benchmarks)
            addJob(config, benchmark, simConfig);
}

std::vector<JobResult>
Campaign::run(unsigned workers, const ProgressFn &progress) const
{
    std::vector<JobResult> results(jobList.size());
    if (jobList.empty())
        return results;

    if (workers == 0)
        workers = defaultWorkerCount();
    if (jobList.size() < workers)
        workers = static_cast<unsigned>(jobList.size());

    // The blocking API is a wrapper over the incremental scheduler:
    // submit everything into a paused queue first, so the fusion
    // sweep sees the whole grid (the same banks the historical
    // up-front grouping planned), then release the pool and drain.
    CampaignScheduler::Options options;
    options.workers = workers;
    options.fuse = fuseJobs;
    options.paused = true;
    CampaignScheduler scheduler(options);

    std::size_t completed = 0;
    bool progress_disabled = false;
    // The scheduler serializes completion callbacks, so the shared
    // captures need no extra locking; drain() below orders every
    // callback's writes before the return.
    const auto on_done = [&](CampaignScheduler::Ticket,
                             JobResult result) {
        // Results land in their job's slot, so the returned ordering
        // never depends on the thread schedule (or on how jobs were
        // batched).
        const std::size_t i = result.index;
        results[i] = std::move(result);
        ++completed;
        // An exception escaping into a worker thread would
        // std::terminate the process; a broken progress hook must
        // not take the campaign down, so swallow and disable it.
        if (progress && !progress_disabled) {
            try {
                progress({completed, jobList.size(), &results[i]});
            } catch (const std::exception &e) {
                progress_disabled = true;
                BPSIM_WARN("campaign progress callback threw ("
                           << e.what()
                           << "); progress reporting disabled");
            } catch (...) {
                progress_disabled = true;
                BPSIM_WARN("campaign progress callback threw; "
                           << "progress reporting disabled");
            }
        }
    };

    for (const Job &job : jobList)
        scheduler.submit(job, on_done);
    scheduler.drain();
    return results;
}

std::vector<BenchmarkTrace>
resolveTraces(TraceCache &cache, const std::vector<WorkloadSpec> &specs,
              unsigned workers)
{
    std::vector<BenchmarkTrace> benchmarks(specs.size());
    const auto resolve = [&](std::size_t i) {
        // Pack once per benchmark; every job on the benchmark then
        // shares both forms through owning handles.
        benchmarks[i] = {specs[i].name, cache.handleFor(specs[i]),
                         cache.packedHandleFor(specs[i])};
    };

    if (workers == 0)
        workers = defaultWorkerCount();
    std::size_t missing = 0;
    if (workers > 1) {
        for (const WorkloadSpec &spec : specs)
            missing += cache.resident(spec) ? 0 : 1;
    }
    const std::size_t threads = std::min<std::size_t>(workers, missing);
    if (threads <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            resolve(i);
        return benchmarks;
    }

    // Largest first, so the longest generation starts at once and the
    // small ones fill in around it.
    std::vector<std::size_t> order(specs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return specs[a].dynamicBranches >
                                specs[b].dynamicBranches;
                     });
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errorMu;
    std::exception_ptr error;
    const auto work = [&] {
        try {
            for (std::size_t k = next++; k < order.size() && !failed;
                 k = next++)
                resolve(order[k]);
        } catch (...) {
            failed = true;
            const std::lock_guard<std::mutex> lock(errorMu);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    try {
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // The threads that did start share the rest of the work.
    }
    work();
    for (std::thread &helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
    return benchmarks;
}

} // namespace bpsim
