/**
 * @file
 * Wire protocol of the campaign service: JSON lines over a
 * unix-domain stream socket.
 *
 * Requests (client -> daemon), one JSON object per line:
 *
 *   {"op":"campaign","id":"sweep1",
 *    "configs":["gshare:n=10","bimode:d=9"],
 *    "benchmarks":["go","compress"],
 *    "divisor":5,"warmup":0,"timing":false,"perBranch":false}
 *       Submits the config × benchmark grid (config-major order,
 *       exactly Campaign::addGrid()). "id" is the client's campaign
 *       handle, echoed on every event; "divisor" optionally scales
 *       dynamic branch counts (the --quick mechanism); "timing"
 *       selects machine-dependent fields in result payloads;
 *       "perBranch" runs every job with per-branch accounting
 *       (SimConfig::trackPerBranch), adding the "perBranch" array to
 *       each payload — the raw material for client-side H2P reports
 *       (analysis/h2p.hh).
 *   {"op":"ping"}    liveness probe
 *   {"op":"stats"}   scheduler and trace-cache counters snapshot
 *
 * Events (daemon -> client), one JSON object per line:
 *
 *   {"event":"accepted","id":...,"jobs":N}
 *       The whole grid was admitted (all-or-nothing); N results
 *       will follow. Always precedes this campaign's first result.
 *   {"event":"rejected","id":...,"error":"..."}
 *       Nothing was admitted: malformed request, unknown benchmark,
 *       server at capacity (backpressure), or daemon draining.
 *   {"event":"result","id":...,"index":i,"payload":{...}}
 *       One finished job. "payload" is byte-for-byte the element the
 *       offline emitter (campaign/emitters.hh writeResultJson())
 *       would place at position i of its JSON array — clients
 *       reassemble offline-identical output by joining payloads.
 *       Results for one campaign are always delivered in index
 *       order; "payload" is always the final key of the line.
 *   {"event":"done","id":...,"jobs":N}   after the N-th result
 *   {"event":"error","error":"..."}      malformed line (no id known)
 *   {"event":"pong"}
 *   {"event":"stats","submitted":N,...,"inFlight":N,"generated":N,
 *    "traceLoads":N,"packedLoads":N,"packedBuilt":N,"invalidFiles":N,
 *    "residentTraceBytes":N}
 *       Scheduler counters (CampaignScheduler::Stats), then the
 *       shared trace cache's (TraceCache::Stats).
 *
 * Parsing failures never terminate the daemon; the reply is a
 * rejected/error event and the connection stays usable.
 */

#ifndef BPSIM_SERVE_PROTOCOL_HH
#define BPSIM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/scheduler.hh"
#include "sim/trace_cache.hh"

namespace bpsim::serve
{

/** A parsed "op":"campaign" request. */
struct CampaignRequest
{
    std::string id;
    std::vector<std::string> configs;
    std::vector<std::string> benchmarks;
    /** Dynamic-branch-count divisor (1 = full size). */
    std::uint64_t divisor = 1;
    /** SimConfig::warmupBranches for every job of the grid. */
    std::uint64_t warmup = 0;
    /** Include machine-dependent timing fields in payloads. */
    bool timing = false;
    /** Run every job with per-branch accounting
     *  (SimConfig::trackPerBranch); payloads then carry the
     *  "perBranch" array. */
    bool perBranch = false;

    std::size_t jobCount() const
    {
        return configs.size() * benchmarks.size();
    }
};

/** One request line, parsed. Op::Invalid carries the error text. */
struct Request
{
    enum class Op
    {
        Campaign,
        Ping,
        Stats,
        Invalid,
    };

    Op op = Op::Invalid;
    CampaignRequest campaign;
    std::string error;
};

/** Parses one request line; never throws, never fatals. */
Request parseRequest(const std::string &line);

/** @name Event renderers (each returns one complete line with '\n').
 *  @{ */
std::string acceptedEvent(const std::string &id, std::size_t jobs);
std::string rejectedEvent(const std::string &id,
                          const std::string &error);
std::string errorEvent(const std::string &error);
std::string resultEvent(const std::string &id, std::size_t index,
                        const std::string &payload);
std::string doneEvent(const std::string &id, std::size_t jobs);
std::string pongEvent();
std::string statsEvent(const CampaignScheduler::Stats &stats,
                       const TraceCache::Stats &traces);
/** @} */

/** One event line, parsed (client side). */
struct Event
{
    enum class Kind
    {
        Accepted,
        Rejected,
        Result,
        Done,
        Error,
        Pong,
        Stats,
        Invalid,
    };

    Kind kind = Kind::Invalid;
    std::string id;
    std::size_t index = 0;
    std::size_t jobs = 0;
    std::string error;
    /** Raw payload bytes of a result event (see extractRawPayload). */
    std::string payload;
};

/** Parses one event line; Kind::Invalid carries the error text. */
Event parseEvent(const std::string &line);

/**
 * Slices the verbatim bytes of the "payload" member out of a result
 * event line. Re-serializing a parsed tree could reformat numbers,
 * so byte-identity with the offline emitter requires never
 * round-tripping the payload through a parser. Relies on "payload"
 * being the final key — any literal `,"payload":` inside a preceding
 * string value is impossible, since its quote characters would be
 * escaped. Empty when the marker is missing.
 */
std::string extractRawPayload(const std::string &line);

} // namespace bpsim::serve

#endif // BPSIM_SERVE_PROTOCOL_HH
