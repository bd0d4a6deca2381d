#include "core/factory.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/registry.hh"
#include "util/logging.hh"

namespace bpsim
{

ParseResult
PredictorSpec::tryParse(const std::string &text)
{
    ParseResult result;
    PredictorSpec &spec = result.spec;
    const auto colon = text.find(':');
    spec.kind = text.substr(0, colon);
    if (spec.kind.empty()) {
        result.error = "empty predictor kind in '" + text + "'";
        return result;
    }
    if (colon == std::string::npos)
        return result;

    std::string rest = text.substr(colon + 1);
    std::size_t start = 0;
    while (start <= rest.size()) {
        auto comma = rest.find(',', start);
        if (comma == std::string::npos)
            comma = rest.size();
        const std::string pair = rest.substr(start, comma - start);
        if (!pair.empty()) {
            const auto eq = pair.find('=');
            if (eq == std::string::npos || eq == 0) {
                result.error = "bad parameter '" + pair + "' in '" +
                               text + "' (expected key=value)";
                return result;
            }
            const std::string key = pair.substr(0, eq);
            const std::string value_text = pair.substr(eq + 1);
            // strtoul happily wraps negatives ("d=-1" parses as
            // 2^64-1) and a cast would truncate >32-bit values, so
            // both must be rejected before conversion.
            if (value_text.find('-') != std::string::npos) {
                result.error = "parameter " + key + "='" + value_text +
                               "' in '" + text +
                               "' must be non-negative";
                return result;
            }
            char *end = nullptr;
            errno = 0;
            const unsigned long long value =
                std::strtoull(value_text.c_str(), &end, 0);
            if (end == value_text.c_str() || *end != '\0') {
                result.error = "parameter " + key + "='" + value_text +
                               "' in '" + text + "' is not a number";
                return result;
            }
            if (errno == ERANGE || value > UINT_MAX) {
                result.error = "parameter " + key + "='" + value_text +
                               "' in '" + text +
                               "' is out of range (max " +
                               std::to_string(UINT_MAX) + ")";
                return result;
            }
            const bool inserted =
                spec.params
                    .emplace(key, static_cast<unsigned>(value))
                    .second;
            if (!inserted) {
                result.error = "duplicate parameter " + key + " in '" +
                               text + "'";
                return result;
            }
        }
        start = comma + 1;
    }
    return result;
}

PredictorSpec
PredictorSpec::parse(const std::string &text)
{
    ParseResult result = tryParse(text);
    if (!result.ok())
        BPSIM_FATAL(result.error);
    return std::move(result.spec);
}

unsigned
PredictorSpec::get(const std::string &key, unsigned def) const
{
    const auto it = params.find(key);
    return it == params.end() ? def : it->second;
}

namespace
{

/**
 * Registry fold replacing the old hand-written if-chain: the first
 * entry whose kind matches validates the spec against its schema and
 * builds. Throws ConfigError on unknown kinds, unknown or missing
 * parameter keys, and configurations the constructor rejects.
 */
PredictorPtr
build(const PredictorSpec &spec)
{
    PredictorPtr predictor;
    bool matched = false;
    forEachPredictorEntry([&]<typename Entry>() {
        if (matched || spec.kind != Entry::kind)
            return;
        matched = true;
        validateSpecParams<Entry>(spec);
        predictor = Entry::build(spec);
    });
    if (!matched)
        throw ConfigError("unknown predictor kind '" + spec.kind + "'");
    return predictor;
}

} // namespace

PredictorResult
tryMakePredictor(const PredictorSpec &spec)
{
    try {
        return {build(spec), {}};
    } catch (const ConfigError &err) {
        return {nullptr, err.what()};
    }
}

PredictorResult
tryMakePredictor(const std::string &configText)
{
    ParseResult parsed = PredictorSpec::tryParse(configText);
    if (!parsed.ok())
        return {nullptr, std::move(parsed.error)};
    return tryMakePredictor(parsed.spec);
}

PredictorPtr
makePredictor(const std::string &configText)
{
    PredictorResult result = tryMakePredictor(configText);
    if (!result.ok())
        BPSIM_FATAL(result.error);
    return std::move(result.predictor);
}

PredictorPtr
makePredictor(const PredictorSpec &spec)
{
    PredictorResult result = tryMakePredictor(spec);
    if (!result.ok())
        BPSIM_FATAL(result.error);
    return std::move(result.predictor);
}

std::vector<std::string>
knownPredictorKinds()
{
    std::vector<std::string> kinds;
    kinds.reserve(PredictorRegistry::size);
    forEachPredictorEntry(
        [&]<typename Entry>() { kinds.push_back(Entry::kind); });
    return kinds;
}

std::vector<PredictorKindInfo>
predictorKindInfos()
{
    std::vector<PredictorKindInfo> infos;
    infos.reserve(PredictorRegistry::size);
    forEachPredictorEntry([&]<typename Entry>() {
        PredictorKindInfo info;
        info.kind = Entry::kind;
        info.description = Entry::doc;
        info.example = Entry::example;
        for (const ParamSpec &param : Entry::params)
            info.params.push_back(
                {param.key, param.required, param.doc});
        infos.push_back(std::move(info));
    });
    return infos;
}

std::string
predictorGrammarHelp()
{
    std::ostringstream os;
    os << "predictor config grammar: kind[:key=value[,key=value...]]\n";
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        os << "  " << info.example << "\n      " << info.description
           << "\n";
        for (const ParamInfo &param : info.params) {
            os << "      " << param.key << "  " << param.doc;
            if (param.required)
                os << " (required)";
            os << "\n";
        }
    }
    return os.str();
}

std::string
fastReplayKind(const std::string &configText)
{
    ParseResult parsed = PredictorSpec::tryParse(configText);
    if (!parsed.ok())
        return {};
    bool known = false;
    forEachPredictorEntry([&]<typename Entry>() {
        known = known || parsed.spec.kind == Entry::kind;
    });
    return known ? std::move(parsed.spec.kind) : std::string{};
}

} // namespace bpsim
