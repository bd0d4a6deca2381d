/**
 * @file
 * End-to-end tests of the campaign service daemon: a real
 * CampaignServer on a real unix-domain socket, driven by real
 * ServeClient connections. The invariants under test are the
 * service's contract:
 *
 *   - streamed results are byte-identical to the offline emitter,
 *     including when several clients share benchmarks and fuse into
 *     the same banked sweeps;
 *   - per-client result ordering is index order, always;
 *   - malformed requests, unknown benchmarks, over-budget campaigns
 *     and mid-campaign disconnects hurt only the client involved;
 *   - graceful stop drains every accepted job with zero lost or
 *     duplicated results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/emitters.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "workload/benchmarks.hh"

namespace bpsim::serve
{
namespace
{

/** Tiny synthetic specs so a whole stress run stays sub-second. */
std::optional<WorkloadSpec>
tinyBenchmark(const std::string &name)
{
    static const std::map<std::string, std::uint64_t> seeds = {
        {"tiny_a", 101}, {"tiny_b", 202}, {"tiny_c", 303}};
    const auto it = seeds.find(name);
    if (it == seeds.end())
        return std::nullopt;
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = "test";
    spec.staticBranches = 150;
    spec.dynamicBranches = 20'000;
    spec.seed = it->second;
    return spec;
}

/** A deliberately heavy spec: a job over it runs for milliseconds
 *  while the daemon's reader loop turns around in microseconds, so
 *  tests that need earlier work still in flight (duplicate ids,
 *  disconnect shedding) resolve their races deterministically. */
std::optional<WorkloadSpec>
slowBenchmark(const std::string &name)
{
    if (name != "slow_a")
        return std::nullopt;
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = "test";
    spec.staticBranches = 400;
    spec.dynamicBranches = 1'500'000;
    spec.seed = 404;
    return spec;
}

std::string
uniqueSocketPath(const std::string &tag)
{
    static std::atomic<unsigned> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("bpsim-test-" + tag + "-" + std::to_string(::getpid()) +
             "-" + std::to_string(counter++) + ".sock"))
        .string();
}

CampaignServer::Options
testOptions(const std::string &tag)
{
    CampaignServer::Options opts;
    opts.socketPath = uniqueSocketPath(tag);
    opts.workers = 4;
    opts.maxPending = 4096;
    opts.resolveBenchmark = tinyBenchmark;
    return opts;
}

/** The offline reference for a request: Campaign::run() + emitter. */
std::string
offlineReference(const CampaignRequest &request, unsigned workers,
                 bool fused = true)
{
    TraceCache cache;
    std::vector<WorkloadSpec> specs;
    for (const std::string &name : request.benchmarks) {
        auto spec = tinyBenchmark(name);
        EXPECT_TRUE(spec.has_value()) << name;
        specs.push_back(
            scaledBenchmark(std::move(*spec), request.divisor));
    }
    Campaign campaign;
    campaign.setFusion(fused);
    SimConfig simConfig;
    simConfig.warmupBranches = request.warmup;
    campaign.addGrid(request.configs, resolveTraces(cache, specs),
                     simConfig);
    std::ostringstream os;
    writeResultsJson(os, campaign.run(workers), request.timing);
    return os.str();
}

std::string
runServed(ServeClient &client, const CampaignRequest &request)
{
    std::string error;
    const auto payloads = client.runCampaign(request, error);
    EXPECT_TRUE(payloads.has_value()) << error;
    if (!payloads)
        return "";
    return joinResultsJson(*payloads);
}

class ServeTest : public ::testing::Test
{
  protected:
    void startServer(CampaignServer::Options opts)
    {
        server = std::make_unique<CampaignServer>(std::move(opts));
        std::string error;
        ASSERT_TRUE(server->start(error)) << error;
    }

    ServeClient connectClient()
    {
        ServeClient client;
        std::string error;
        EXPECT_TRUE(client.connect(server->socketPath(), error))
            << error;
        return client;
    }

    void TearDown() override
    {
        if (server)
            server->stop();
    }

    std::unique_ptr<CampaignServer> server;
};

TEST_F(ServeTest, PingPong)
{
    startServer(testOptions("ping"));
    ServeClient client = connectClient();
    EXPECT_TRUE(client.ping());
}

TEST_F(ServeTest, StreamedResultsMatchOfflineByteForByte)
{
    startServer(testOptions("offline"));
    ServeClient client = connectClient();

    CampaignRequest request;
    request.id = "c1";
    request.configs = {"gshare:n=8", "bimode:d=7", "bimodal:n=7"};
    request.benchmarks = {"tiny_a", "tiny_b"};
    EXPECT_EQ(runServed(client, request), offlineReference(request, 2));

    // Divisor and warm-up request fields reach the jobs.
    request.id = "c2";
    request.divisor = 2;
    request.warmup = 1'000;
    EXPECT_EQ(runServed(client, request), offlineReference(request, 2));
}

TEST_F(ServeTest, TwoClientsFusedSweepsMatchSoloUnfusedRuns)
{
    // Satellite 4: two clients submit the same benchmark × same
    // fast-replay kind concurrently — their jobs are candidates for
    // the same banked sweep — and each client's stream must still be
    // byte-identical to a solo *unfused* offline run, at one worker
    // and at many.
    for (const unsigned workers : {1u, 4u}) {
        auto opts = testOptions("fused");
        opts.workers = workers;
        startServer(std::move(opts));

        CampaignRequest requestA;
        requestA.id = "clientA";
        requestA.configs = {"gshare:n=7", "gshare:n=8", "gshare:n=9",
                            "gshare:n=10"};
        requestA.benchmarks = {"tiny_a"};
        CampaignRequest requestB = requestA;
        requestB.id = "clientB";
        requestB.configs = {"gshare:n=8", "gshare:n=9", "gshare:n=11",
                            "gshare:n=12"};

        const std::string expectA =
            offlineReference(requestA, 1, /*fused=*/false);
        const std::string expectB =
            offlineReference(requestB, 1, /*fused=*/false);

        std::string gotA;
        std::string gotB;
        std::thread threadA([&] {
            ServeClient client = connectClient();
            gotA = runServed(client, requestA);
        });
        std::thread threadB([&] {
            ServeClient client = connectClient();
            gotB = runServed(client, requestB);
        });
        threadA.join();
        threadB.join();

        EXPECT_EQ(gotA, expectA) << "workers=" << workers;
        EXPECT_EQ(gotB, expectB) << "workers=" << workers;

        server->stop();
        server.reset();
    }
}

TEST_F(ServeTest, MalformedLinesGetErrorsAndTheConnectionSurvives)
{
    startServer(testOptions("malformed"));
    ServeClient client = connectClient();

    for (const std::string &bad :
         {std::string("this is not json"), std::string("{\"op\":42}"),
          std::string("{\"op\":\"campaign\"}"),
          std::string("{\"op\":\"campaign\",\"id\":\"x\","
                      "\"configs\":\"notalist\","
                      "\"benchmarks\":[\"tiny_a\"]}")}) {
        const auto reply = client.roundTrip(bad);
        ASSERT_TRUE(reply.has_value());
        const Event event = parseEvent(*reply);
        EXPECT_TRUE(event.kind == Event::Kind::Error ||
                    event.kind == Event::Kind::Rejected)
            << *reply;
    }

    // The daemon: unharmed. The same connection: still good.
    CampaignRequest request;
    request.id = "after-garbage";
    request.configs = {"gshare:n=8"};
    request.benchmarks = {"tiny_a"};
    EXPECT_EQ(runServed(client, request), offlineReference(request, 1));
    EXPECT_GE(server->stats().malformedRequests, 2u);
}

TEST_F(ServeTest, UnknownBenchmarkAndBadConfigArePerClientFailures)
{
    startServer(testOptions("reject"));
    ServeClient client = connectClient();

    CampaignRequest request;
    request.id = "nope";
    request.configs = {"gshare:n=8"};
    request.benchmarks = {"no_such_benchmark"};
    std::string error;
    EXPECT_FALSE(client.runCampaign(request, error).has_value());
    EXPECT_NE(error.find("unknown benchmark"), std::string::npos)
        << error;

    // A bad *config* is not a rejection: the job completes with
    // "ok":false in its payload, same as offline.
    request.id = "badcfg";
    request.configs = {"gshare:n=8", "no-such-predictor:x=1"};
    request.benchmarks = {"tiny_a"};
    EXPECT_EQ(runServed(client, request), offlineReference(request, 1));
}

TEST_F(ServeTest, OutOfRangeSpecsFailTheirJobsNotTheDaemon)
{
    startServer(testOptions("range"));
    ServeClient client = connectClient();

    // Every spec parses and passes its kind's schema, but its
    // constructor refuses it: each must fail its own job only.
    CampaignRequest request;
    request.id = "range";
    request.configs = {"bimode:d=8,h=9",     "bimode:d=29",
                       "bimodal:n=40",       "tournament:n=29",
                       "perceptron:n=5,h=64", "yags:c=11,n=9,t=17",
                       "filter:n=10,k=9",    "gshare:n=8,w=9",
                       "gshare:n=8,w=0",     "gag:h=70"};
    request.benchmarks = {"tiny_a"};
    std::string error;
    const auto payloads = client.runCampaign(request, error);
    ASSERT_TRUE(payloads.has_value()) << error;
    ASSERT_EQ(payloads->size(), request.configs.size());
    for (const std::string &payload : *payloads)
        EXPECT_NE(payload.find("\"ok\":false"), std::string::npos)
            << payload;

    // The same daemon then serves a valid campaign.
    request.id = "valid";
    request.configs = {"gshare:n=8", "bimode:d=7"};
    EXPECT_EQ(runServed(client, request), offlineReference(request, 1));
}

TEST_F(ServeTest, OversizedAndOverCapacityCampaignsAreRejectedWhole)
{
    auto opts = testOptions("capacity");
    opts.maxJobsPerRequest = 4;
    opts.maxPending = 2;
    startServer(std::move(opts));
    ServeClient client = connectClient();

    CampaignRequest request;
    request.id = "toobig";
    request.configs = {"gshare:n=6", "gshare:n=7", "gshare:n=8"};
    request.benchmarks = {"tiny_a", "tiny_b"}; // 6 > cap of 4
    std::string error;
    EXPECT_FALSE(client.runCampaign(request, error).has_value());
    EXPECT_NE(error.find("exceeds"), std::string::npos) << error;

    // 3 jobs > maxPending 2: backpressure rejects all-or-nothing —
    // never a half-accepted grid.
    request.id = "overflow";
    request.benchmarks = {"tiny_a"};
    EXPECT_FALSE(client.runCampaign(request, error).has_value());
    EXPECT_NE(error.find("capacity"), std::string::npos) << error;
    EXPECT_EQ(server->stats().campaignsRejected, 2u);

    // Within both bounds: accepted and correct.
    request.id = "fits";
    request.configs = {"gshare:n=6", "gshare:n=7"};
    EXPECT_EQ(runServed(client, request), offlineReference(request, 1));
}

TEST_F(ServeTest, DuplicateInFlightCampaignIdIsRejected)
{
    auto opts = testOptions("dup");
    opts.workers = 1; // keep the first campaign in flight a while
    // Heavy jobs: the first campaign is reliably still in flight
    // when the reader reaches the duplicate line.
    opts.resolveBenchmark = slowBenchmark;
    startServer(std::move(opts));
    ServeClient client = connectClient();

    // Both campaign lines land in one write, so the daemon's reader
    // processes the duplicate immediately after accepting the first
    // — while the single worker is still chewing on its jobs.
    CampaignRequest request;
    request.id = "same";
    request.benchmarks = {"slow_a"};
    for (unsigned n = 6; n <= 13; ++n)
        request.configs.push_back("gshare:n=" + std::to_string(n));
    const std::string line = campaignRequestLine(request);
    ASSERT_TRUE(client.sendLine(line + line));

    // Scan the stream: the duplicate's rejection must show up; the
    // first campaign must still run to completion unharmed. Stop at
    // a second "done" too — were the duplicate wrongly accepted
    // (first campaign already finished), the stream would hold two
    // full campaigns and no rejection, and waiting for one would
    // block forever.
    bool sawRejection = false;
    std::size_t results = 0;
    unsigned dones = 0;
    while (!(sawRejection && dones >= 1) && dones < 2) {
        const auto reply = client.readLine();
        ASSERT_TRUE(reply.has_value()) << "stream ended early";
        const Event event = parseEvent(*reply);
        if (event.kind == Event::Kind::Rejected) {
            sawRejection = true;
            EXPECT_NE(event.error.find("already in flight"),
                      std::string::npos)
                << event.error;
        } else if (event.kind == Event::Kind::Result) {
            if (dones == 0) {
                EXPECT_EQ(event.index, results);
                ++results;
            }
        } else if (event.kind == Event::Kind::Done) {
            ++dones;
        }
    }
    EXPECT_TRUE(sawRejection)
        << "duplicate id was accepted (first campaign finished "
           "before the duplicate was processed)";
    EXPECT_EQ(results, request.jobCount());
}

TEST_F(ServeTest, MidCampaignDisconnectDoesNotDisturbOtherClients)
{
    auto opts = testOptions("disconnect");
    opts.workers = 1; // one worker: the grid cannot finish instantly
    // Fusion off so the doomed grid dispatches one heavy job at a
    // time: when the disconnect lands, undispatched jobs are still
    // queued and must be shed. (Fused, one bank could swallow the
    // whole grid before the disconnect is even noticed.)
    opts.fuse = false;
    opts.resolveBenchmark =
        [](const std::string &name) -> std::optional<WorkloadSpec> {
        if (auto slow = slowBenchmark(name))
            return slow;
        return tinyBenchmark(name);
    };
    startServer(std::move(opts));

    // Client A: a wide campaign, then vanish right after acceptance.
    {
        ServeClient clientA = connectClient();
        CampaignRequest wide;
        wide.id = "doomed";
        wide.benchmarks = {"slow_a"};
        for (unsigned n = 6; n <= 15; ++n)
            wide.configs.push_back("gshare:n=" + std::to_string(n));
        const auto reply =
            clientA.roundTrip(campaignRequestLine(wide));
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(parseEvent(*reply).kind, Event::Kind::Accepted);
        clientA.disconnect();
    }

    // Client B on a fresh connection: full, correct service.
    ServeClient clientB = connectClient();
    CampaignRequest request;
    request.id = "healthy";
    request.configs = {"gshare:n=8", "bimode:d=7"};
    request.benchmarks = {"tiny_a"};
    EXPECT_EQ(runServed(clientB, request),
              offlineReference(request, 1));

    // The daemon sheds the dead client's undispatched work instead
    // of burning the pool on it (the exact count is a race between
    // the worker and the disconnect; shedding at all is the point).
    server->stop();
    EXPECT_GT(server->stats().disconnectCancelledJobs, 0u);
}

/** The daemon's stats event, parsed. */
std::optional<JsonValue>
statsOf(ServeClient &client)
{
    const auto reply = client.roundTrip("{\"op\":\"stats\"}");
    if (!reply)
        return std::nullopt;
    std::string error;
    return JsonValue::parse(*reply, error);
}

TEST_F(ServeTest, DivisorsThatScaleToOneCountShareOneTrace)
{
    // tiny_a holds 20,000 records, below the 50,000-record floor of
    // scaledBenchmark(), so divisors 60 and 1000 both scale it to
    // 50,000: one cache entry, one generation. Jobs still report the
    // plain name, so both streams match their offline runs.
    startServer(testOptions("divisors"));
    ServeClient client = connectClient();
    CampaignRequest request;
    request.configs = {"gshare:n=8", "bimode:d=7"};
    request.benchmarks = {"tiny_a"};
    for (const std::uint64_t divisor : {60u, 1000u}) {
        request.id = "div" + std::to_string(divisor);
        request.divisor = divisor;
        EXPECT_EQ(runServed(client, request), offlineReference(request, 1))
            << "divisor " << divisor;
    }

    const auto stats = statsOf(client);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->getUint("generated"), 1u);
    EXPECT_EQ(stats->getUint("packedBuilt"), 1u);
    EXPECT_EQ(stats->getUint("traceLoads"), 0u);
    EXPECT_EQ(stats->getUint("residentTraceBytes"),
              50'000u * sizeof(BranchRecord) +
                  (50'000u + (50'000u + 63) / 64) * 8);
}

TEST_F(ServeTest, ColdTraceOfOneClientDoesNotDelayAnotherClient)
{
    // Client A's campaign needs a cold trace of 3M records; client B's
    // only a resident one. B's whole campaign must complete while A's
    // trace is still generating, i.e. before A's "accepted" arrives:
    // the cache is single-flight per key, so nothing serializes B's
    // lookup behind A's generation.
    std::promise<void> coldRequested;
    std::atomic<bool> signalled{false};
    auto opts = testOptions("cold");
    opts.resolveBenchmark =
        [&](const std::string &name) -> std::optional<WorkloadSpec> {
        if (name != "cold_big")
            return tinyBenchmark(name);
        if (!signalled.exchange(true))
            coldRequested.set_value();
        WorkloadSpec spec;
        spec.name = name;
        spec.suite = "test";
        spec.staticBranches = 400;
        spec.dynamicBranches = 3'000'000;
        spec.seed = 505;
        return spec;
    };
    startServer(std::move(opts));

    ServeClient clientB = connectClient();
    CampaignRequest warm;
    warm.id = "warm";
    warm.configs = {"bimodal:n=6"};
    warm.benchmarks = {"tiny_a"};
    ASSERT_FALSE(runServed(clientB, warm).empty());

    std::atomic<unsigned> sequence{0};
    unsigned acceptedAt = 0;
    ServeClient clientA = connectClient();
    CampaignRequest cold;
    cold.id = "cold";
    cold.configs = {"bimodal:n=6"};
    cold.benchmarks = {"cold_big"};
    ASSERT_TRUE(clientA.sendLine(campaignRequestLine(cold)));
    std::thread readerA([&] {
        const auto reply = clientA.readLine();
        acceptedAt = ++sequence;
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(parseEvent(*reply).kind, Event::Kind::Accepted)
            << *reply;
    });

    // A's reader thread is now inside its request: B goes.
    coldRequested.get_future().wait();
    CampaignRequest hot;
    hot.id = "hot";
    hot.configs = {"gshare:n=8", "bimode:d=7"};
    hot.benchmarks = {"tiny_a"};
    EXPECT_EQ(runServed(clientB, hot), offlineReference(hot, 1));
    const unsigned doneAt = ++sequence;
    // Timing-free form of the same claim: B is done while A's trace
    // has still not been generated (only tiny_a has).
    const auto stats = statsOf(clientB);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->getUint("generated"), 1u)
        << "client B's campaign finished only after client A's cold "
           "trace was generated";
    readerA.join();
    EXPECT_LT(doneAt, acceptedAt)
        << "client B's campaign waited for client A's cold trace";
}

TEST_F(ServeTest, GracefulStopDrainsAcceptedCampaigns)
{
    auto opts = testOptions("drain");
    opts.workers = 2;
    startServer(std::move(opts));

    // Stop the server while the campaign is in flight; drain
    // semantics say the accepted campaign must still deliver every
    // result and its done event before teardown.
    ServeClient client = connectClient();
    CampaignRequest request;
    request.id = "draining";
    request.benchmarks = {"tiny_a", "tiny_b", "tiny_c"};
    for (unsigned n = 6; n <= 13; ++n)
        request.configs.push_back("gshare:n=" + std::to_string(n));
    const std::string expected = offlineReference(request, 2);

    // Wait for acceptance first — a stop() that wins the race to the
    // admission check would just reject ("server draining").
    const auto accepted =
        client.roundTrip(campaignRequestLine(request));
    ASSERT_TRUE(accepted.has_value());
    ASSERT_EQ(parseEvent(*accepted).kind, Event::Kind::Accepted);

    std::thread stopper([&] { server->stop(); });
    std::vector<std::string> payloads;
    for (;;) {
        const auto reply = client.readLine();
        ASSERT_TRUE(reply.has_value()) << "stream ended early";
        const Event event = parseEvent(*reply);
        if (event.kind == Event::Kind::Result) {
            ASSERT_EQ(event.index, payloads.size());
            payloads.push_back(event.payload);
        } else if (event.kind == Event::Kind::Done) {
            EXPECT_EQ(event.jobs, payloads.size());
            break;
        }
    }
    EXPECT_EQ(joinResultsJson(payloads), expected);
    stopper.join();

    // After stop: no new connections.
    ServeClient late;
    std::string error;
    EXPECT_FALSE(late.connect(server->socketPath(), error));
}

TEST_F(ServeTest, NonReadingClientCannotStallOtherClients)
{
    // Result delivery runs inside the scheduler's serialized
    // callback section. A client that submits a large campaign and
    // then never reads lets its socket buffer fill; without a send
    // timeout the blocked write would stall every other client's
    // results and hang stop()'s drain forever. With the timeout the
    // stalled session is marked dead and only its own stream dies.
    auto opts = testOptions("stall");
    opts.workers = 2;
    opts.sendTimeoutMs = 200;
    startServer(std::move(opts));

    ServeClient stalled = connectClient();
    CampaignRequest big;
    big.id = "never-read";
    big.benchmarks = {"tiny_a", "tiny_b", "tiny_c"};
    big.divisor = 20; // tiny jobs; the *result bytes* are the load
    for (unsigned n = 0; n < 700; ++n)
        big.configs.push_back("gshare:n=" + std::to_string(4 + n % 8));
    ASSERT_TRUE(stalled.sendLine(campaignRequestLine(big)));

    // A well-behaved client served concurrently must still get
    // complete, ordered, offline-identical results.
    ServeClient good = connectClient();
    CampaignRequest request;
    request.id = "good";
    request.configs = {"gshare:n=8", "bimodal:n=8"};
    request.benchmarks = {"tiny_a", "tiny_b"};
    EXPECT_EQ(runServed(good, request), offlineReference(request, 2));

    // And the daemon must drain cleanly despite the stalled session.
    server->stop();
    const auto sched = server->schedulerStats();
    EXPECT_EQ(sched.pending, 0u);
    EXPECT_EQ(sched.inFlight, 0u);
}

TEST_F(ServeTest, StressManyConcurrentMixedCampaigns)
{
    // The acceptance bar: hundreds of concurrent mixed campaigns
    // across many clients — per-client ordering intact, every
    // result bit-identical to the offline reference, clean drain
    // with zero lost or duplicated results.
    constexpr unsigned kClients = 8;
    constexpr unsigned kCampaignsPerClient = 25; // 200 campaigns

    auto opts = testOptions("stress");
    opts.workers = 4;
    startServer(std::move(opts));

    // A small palette of request shapes; every campaign is one of
    // these, so the offline references are computed once. The
    // palette mixes fusable sweeps, mixed kinds, failing configs,
    // divisors and warm-up.
    std::vector<CampaignRequest> palette;
    {
        CampaignRequest r;
        r.configs = {"gshare:n=7", "gshare:n=8", "gshare:n=9"};
        r.benchmarks = {"tiny_a"};
        palette.push_back(r);
        r.configs = {"bimode:d=7", "gshare:n=8", "bimodal:n=7"};
        r.benchmarks = {"tiny_b", "tiny_c"};
        palette.push_back(r);
        r.configs = {"gshare:n=8", "broken-config"};
        r.benchmarks = {"tiny_a", "tiny_b"};
        palette.push_back(r);
        r.configs = {"gshare:n=10"};
        r.benchmarks = {"tiny_c"};
        r.divisor = 2;
        palette.push_back(r);
        r.configs = {"bimode:d=8"};
        r.benchmarks = {"tiny_a", "tiny_c"};
        r.divisor = 1;
        r.warmup = 2'000;
        palette.push_back(r);
    }
    std::vector<std::string> references;
    references.reserve(palette.size());
    for (const CampaignRequest &request : palette)
        references.push_back(offlineReference(request, 2));

    std::atomic<unsigned> mismatches{0};
    std::atomic<unsigned> failures{0};
    std::atomic<unsigned> completed{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client;
            std::string error;
            if (!client.connect(server->socketPath(), error)) {
                ++failures;
                return;
            }
            for (unsigned i = 0; i < kCampaignsPerClient; ++i) {
                const std::size_t shape =
                    (c * kCampaignsPerClient + i) % palette.size();
                CampaignRequest request = palette[shape];
                request.id = "client" + std::to_string(c) + "-" +
                             std::to_string(i);
                // runCampaign() verifies per-campaign index order
                // and exact result counts (no loss, no duplicates).
                const auto payloads =
                    client.runCampaign(request, error);
                if (!payloads) {
                    ++failures;
                    continue;
                }
                if (joinResultsJson(*payloads) != references[shape])
                    ++mismatches;
                ++completed;
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(completed.load(), kClients * kCampaignsPerClient);

    const auto stats = server->stats();
    EXPECT_EQ(stats.campaignsAccepted,
              kClients * kCampaignsPerClient);
    EXPECT_EQ(stats.campaignsRejected, 0u);

    // Clean drain: accepted == completed jobs, nothing stuck.
    server->stop();
    const auto sched = server->schedulerStats();
    EXPECT_EQ(sched.submitted, sched.completed + sched.cancelled);
    EXPECT_EQ(sched.pending, 0u);
    EXPECT_EQ(sched.inFlight, 0u);
    EXPECT_EQ(sched.cancelled, 0u);
    EXPECT_EQ(sched.callbackExceptions, 0u);
}

} // namespace
} // namespace bpsim::serve
