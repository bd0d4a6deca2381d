/** @file Tests for the campaign service wire protocol. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace bpsim::serve
{
namespace
{

TEST(Protocol, ParsesCampaignRequest)
{
    const Request request = parseRequest(
        "{\"op\":\"campaign\",\"id\":\"sweep1\","
        "\"configs\":[\"gshare:n=10\",\"bimode:d=9\"],"
        "\"benchmarks\":[\"go\",\"compress\"],"
        "\"divisor\":5,\"warmup\":100,\"timing\":true}");
    ASSERT_EQ(request.op, Request::Op::Campaign);
    EXPECT_EQ(request.campaign.id, "sweep1");
    ASSERT_EQ(request.campaign.configs.size(), 2u);
    EXPECT_EQ(request.campaign.configs[1], "bimode:d=9");
    ASSERT_EQ(request.campaign.benchmarks.size(), 2u);
    EXPECT_EQ(request.campaign.divisor, 5u);
    EXPECT_EQ(request.campaign.warmup, 100u);
    EXPECT_TRUE(request.campaign.timing);
    EXPECT_EQ(request.campaign.jobCount(), 4u);
}

TEST(Protocol, RequestDefaultsAreFullSizeNoWarmupNoTiming)
{
    const Request request = parseRequest(
        "{\"op\":\"campaign\",\"id\":\"x\","
        "\"configs\":[\"gshare:n=8\"],\"benchmarks\":[\"go\"]}");
    ASSERT_EQ(request.op, Request::Op::Campaign);
    EXPECT_EQ(request.campaign.divisor, 1u);
    EXPECT_EQ(request.campaign.warmup, 0u);
    EXPECT_FALSE(request.campaign.timing);
}

TEST(Protocol, RejectsMalformedRequests)
{
    EXPECT_EQ(parseRequest("not json").op, Request::Op::Invalid);
    EXPECT_EQ(parseRequest("[1,2]").op, Request::Op::Invalid);
    EXPECT_EQ(parseRequest("{\"op\":\"nope\"}").op,
              Request::Op::Invalid);
    // Campaign without an id.
    EXPECT_EQ(parseRequest("{\"op\":\"campaign\","
                           "\"configs\":[\"a\"],"
                           "\"benchmarks\":[\"b\"]}")
                  .op,
              Request::Op::Invalid);
    // Empty grid axes.
    EXPECT_EQ(parseRequest("{\"op\":\"campaign\",\"id\":\"x\","
                           "\"configs\":[],\"benchmarks\":[\"b\"]}")
                  .op,
              Request::Op::Invalid);
    // Wrongly-typed axes.
    const Request request =
        parseRequest("{\"op\":\"campaign\",\"id\":\"x\","
                     "\"configs\":[1],\"benchmarks\":[\"b\"]}");
    EXPECT_EQ(request.op, Request::Op::Invalid);
    EXPECT_FALSE(request.error.empty());
}

TEST(Protocol, ParsesPingAndStats)
{
    EXPECT_EQ(parseRequest("{\"op\":\"ping\"}").op, Request::Op::Ping);
    EXPECT_EQ(parseRequest("{\"op\":\"stats\"}").op,
              Request::Op::Stats);
}

TEST(Protocol, EventsRoundTrip)
{
    Event event = parseEvent(acceptedEvent("c1", 42));
    EXPECT_EQ(event.kind, Event::Kind::Accepted);
    EXPECT_EQ(event.id, "c1");
    EXPECT_EQ(event.jobs, 42u);

    event = parseEvent(rejectedEvent("c2", "server at capacity"));
    EXPECT_EQ(event.kind, Event::Kind::Rejected);
    EXPECT_EQ(event.error, "server at capacity");

    event = parseEvent(doneEvent("c3", 7));
    EXPECT_EQ(event.kind, Event::Kind::Done);
    EXPECT_EQ(event.jobs, 7u);

    event = parseEvent(errorEvent("bad line"));
    EXPECT_EQ(event.kind, Event::Kind::Error);
    EXPECT_EQ(event.error, "bad line");

    EXPECT_EQ(parseEvent(pongEvent()).kind, Event::Kind::Pong);

    CampaignScheduler::Stats stats;
    stats.submitted = 5;
    stats.fusedBanks = 2;
    TraceCache::Stats traces;
    traces.generated = 14;
    traces.traceLoads = 3;
    traces.packedLoads = 4;
    traces.packedBuilt = 11;
    traces.invalidFiles = 1;
    traces.residentBytes = 123'456'789;
    const std::string line = statsEvent(stats, traces);
    event = parseEvent(line);
    EXPECT_EQ(event.kind, Event::Kind::Stats);

    // Every scheduler field keeps its name, and the trace-cache
    // counters follow them.
    std::string error;
    const auto doc = JsonValue::parse(line, error);
    ASSERT_TRUE(doc.has_value()) << error;
    const std::vector<std::string> keys = {
        "event",       "submitted",   "completed",   "cancelled",
        "callbackExceptions",         "fusedBanks",  "pending",
        "inFlight",    "generated",   "traceLoads",  "packedLoads",
        "packedBuilt", "invalidFiles", "residentTraceBytes"};
    EXPECT_EQ(doc->keys(), keys);
    EXPECT_EQ(doc->getUint("submitted"), 5u);
    EXPECT_EQ(doc->getUint("fusedBanks"), 2u);
    EXPECT_EQ(doc->getUint("generated"), 14u);
    EXPECT_EQ(doc->getUint("traceLoads"), 3u);
    EXPECT_EQ(doc->getUint("packedLoads"), 4u);
    EXPECT_EQ(doc->getUint("packedBuilt"), 11u);
    EXPECT_EQ(doc->getUint("invalidFiles"), 1u);
    EXPECT_EQ(doc->getUint("residentTraceBytes"), 123'456'789u);
}

TEST(Protocol, ResultPayloadSurvivesByteExactly)
{
    // Payload extraction must never round-trip through the parser —
    // this number formatting has to come back byte-for-byte.
    const std::string payload =
        "{\"ok\":true,\"result\":{\"mispredictionRate\":"
        "21.102196384345014,\"note\":\"has \\\"quotes\\\" and "
        "\\u00e9\"}}";
    const std::string line = resultEvent("c1", 3, payload);
    const Event event = parseEvent(line);
    ASSERT_EQ(event.kind, Event::Kind::Result);
    EXPECT_EQ(event.id, "c1");
    EXPECT_EQ(event.index, 3u);
    EXPECT_EQ(event.payload, payload);
}

TEST(Protocol, PayloadMarkerInsideIdDoesNotConfuseExtraction)
{
    // A hostile id trying to smuggle the payload marker: its quotes
    // are escaped on the wire, so extraction still finds the real
    // payload member.
    const std::string id = "x\",\"payload\":\"fake";
    const std::string payload = "{\"ok\":false}";
    const std::string line = resultEvent(id, 0, payload);
    EXPECT_EQ(extractRawPayload(line), payload);
    const Event event = parseEvent(line);
    ASSERT_EQ(event.kind, Event::Kind::Result);
    EXPECT_EQ(event.id, id);
    EXPECT_EQ(event.payload, payload);
}

TEST(Protocol, CampaignRequestLineRoundTrips)
{
    CampaignRequest request;
    request.id = "sweep \"q\"";
    request.configs = {"gshare:n=10", "bimode:d=9"};
    request.benchmarks = {"go"};
    request.divisor = 5;
    request.warmup = 10;
    request.timing = true;

    const Request parsed = parseRequest(campaignRequestLine(request));
    ASSERT_EQ(parsed.op, Request::Op::Campaign);
    EXPECT_EQ(parsed.campaign.id, request.id);
    EXPECT_EQ(parsed.campaign.configs, request.configs);
    EXPECT_EQ(parsed.campaign.benchmarks, request.benchmarks);
    EXPECT_EQ(parsed.campaign.divisor, 5u);
    EXPECT_EQ(parsed.campaign.warmup, 10u);
    EXPECT_TRUE(parsed.campaign.timing);
}

TEST(Protocol, JoinResultsJsonMatchesOfflineFraming)
{
    EXPECT_EQ(joinResultsJson({}), "[\n]\n");
    EXPECT_EQ(joinResultsJson({"{\"a\":1}"}), "[\n  {\"a\":1}\n]\n");
    EXPECT_EQ(joinResultsJson({"{\"a\":1}", "{\"b\":2}"}),
              "[\n  {\"a\":1},\n  {\"b\":2}\n]\n");
}

} // namespace
} // namespace bpsim::serve
