#include "serve/protocol.hh"

#include <sstream>

#include "util/json.hh"

namespace bpsim::serve
{

namespace
{

Request
invalidRequest(std::string error)
{
    Request request;
    request.op = Request::Op::Invalid;
    request.error = std::move(error);
    return request;
}

/** Reads a JSON array of strings into @p out; false on shape error. */
bool
readStringList(const JsonValue *value, std::vector<std::string> &out,
               const char *what, std::string &error)
{
    if (value == nullptr || !value->isArray()) {
        error = std::string(what) + " must be an array of strings";
        return false;
    }
    for (const JsonValue &element : value->elements()) {
        if (!element.isString()) {
            error = std::string(what) + " must be an array of strings";
            return false;
        }
        out.push_back(element.asString());
    }
    return true;
}

} // namespace

Request
parseRequest(const std::string &line)
{
    std::string parseError;
    const auto doc = JsonValue::parse(line, parseError);
    if (!doc)
        return invalidRequest("malformed JSON: " + parseError);
    if (!doc->isObject())
        return invalidRequest("request must be a JSON object");

    const std::string op = doc->getString("op");
    if (op == "ping") {
        Request request;
        request.op = Request::Op::Ping;
        return request;
    }
    if (op == "stats") {
        Request request;
        request.op = Request::Op::Stats;
        return request;
    }
    if (op != "campaign")
        return invalidRequest("unknown op '" + op + "'");

    Request request;
    request.op = Request::Op::Campaign;
    CampaignRequest &campaign = request.campaign;
    campaign.id = doc->getString("id");
    if (campaign.id.empty())
        return invalidRequest("campaign request needs a non-empty id");

    std::string shapeError;
    if (!readStringList(doc->get("configs"), campaign.configs,
                        "configs", shapeError) ||
        !readStringList(doc->get("benchmarks"), campaign.benchmarks,
                        "benchmarks", shapeError)) {
        return invalidRequest(shapeError);
    }
    if (campaign.configs.empty() || campaign.benchmarks.empty())
        return invalidRequest("configs and benchmarks must be non-empty");

    campaign.divisor = doc->getUint("divisor", 1);
    if (campaign.divisor == 0)
        campaign.divisor = 1;
    campaign.warmup = doc->getUint("warmup", 0);
    campaign.timing = doc->getBool("timing", false);
    campaign.perBranch = doc->getBool("perBranch", false);
    return request;
}

std::string
acceptedEvent(const std::string &id, std::size_t jobs)
{
    return "{\"event\":\"accepted\",\"id\":" + jsonString(id) +
           ",\"jobs\":" + std::to_string(jobs) + "}\n";
}

std::string
rejectedEvent(const std::string &id, const std::string &error)
{
    return "{\"event\":\"rejected\",\"id\":" + jsonString(id) +
           ",\"error\":" + jsonString(error) + "}\n";
}

std::string
errorEvent(const std::string &error)
{
    return "{\"event\":\"error\",\"error\":" + jsonString(error) +
           "}\n";
}

std::string
resultEvent(const std::string &id, std::size_t index,
            const std::string &payload)
{
    // "payload" last, so extractRawPayload() can slice it verbatim.
    return "{\"event\":\"result\",\"id\":" + jsonString(id) +
           ",\"index\":" + std::to_string(index) +
           ",\"payload\":" + payload + "}\n";
}

std::string
doneEvent(const std::string &id, std::size_t jobs)
{
    return "{\"event\":\"done\",\"id\":" + jsonString(id) +
           ",\"jobs\":" + std::to_string(jobs) + "}\n";
}

std::string
pongEvent()
{
    return "{\"event\":\"pong\"}\n";
}

std::string
statsEvent(const CampaignScheduler::Stats &stats,
           const TraceCache::Stats &traces)
{
    std::ostringstream os;
    os << "{\"event\":\"stats\",\"submitted\":" << stats.submitted
       << ",\"completed\":" << stats.completed
       << ",\"cancelled\":" << stats.cancelled
       << ",\"callbackExceptions\":" << stats.callbackExceptions
       << ",\"fusedBanks\":" << stats.fusedBanks
       << ",\"pending\":" << stats.pending
       << ",\"inFlight\":" << stats.inFlight
       << ",\"generated\":" << traces.generated
       << ",\"traceLoads\":" << traces.traceLoads
       << ",\"packedLoads\":" << traces.packedLoads
       << ",\"packedBuilt\":" << traces.packedBuilt
       << ",\"invalidFiles\":" << traces.invalidFiles
       << ",\"residentTraceBytes\":" << traces.residentBytes << "}\n";
    return os.str();
}

Event
parseEvent(const std::string &line)
{
    Event event;
    std::string parseError;
    const auto doc = JsonValue::parse(line, parseError);
    if (!doc || !doc->isObject()) {
        event.kind = Event::Kind::Invalid;
        event.error = doc ? "event must be a JSON object"
                          : "malformed JSON: " + parseError;
        return event;
    }

    const std::string kind = doc->getString("event");
    event.id = doc->getString("id");
    event.jobs = static_cast<std::size_t>(doc->getUint("jobs"));
    event.index = static_cast<std::size_t>(doc->getUint("index"));
    event.error = doc->getString("error");

    if (kind == "accepted") {
        event.kind = Event::Kind::Accepted;
    } else if (kind == "rejected") {
        event.kind = Event::Kind::Rejected;
    } else if (kind == "result") {
        event.kind = Event::Kind::Result;
        event.payload = extractRawPayload(line);
    } else if (kind == "done") {
        event.kind = Event::Kind::Done;
    } else if (kind == "error") {
        event.kind = Event::Kind::Error;
    } else if (kind == "pong") {
        event.kind = Event::Kind::Pong;
    } else if (kind == "stats") {
        event.kind = Event::Kind::Stats;
    } else {
        event.kind = Event::Kind::Invalid;
        event.error = "unknown event '" + kind + "'";
    }
    return event;
}

std::string
extractRawPayload(const std::string &line)
{
    static const std::string marker = ",\"payload\":";
    const auto at = line.find(marker);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + marker.size();
    // The payload runs to the event object's closing brace.
    auto end = line.find_last_of('}');
    if (end == std::string::npos || end <= begin)
        return "";
    return line.substr(begin, end - begin);
}

} // namespace bpsim::serve
