/**
 * @file
 * Construction of predictors from configuration strings.
 *
 * Grammar: `kind[:key=value[,key=value...]]`. The kinds, their
 * parameter schemas and their builders all live in the compile-time
 * registry (core/registry.hh); this block mirrors the registry's
 * documented examples (predictorKindInfos() exposes them at
 * runtime, predictorGrammarHelp() renders the full schema):
 *
 *   bimodal:n=12
 *   gag:h=12 | gas:h=8,a=4 | pag:h=10,l=10 | pas:h=8,l=10,a=2
 *   gshare:n=12,h=12
 *   bimode:d=11,c=11,h=11
 *   agree:n=12,h=12,b=12
 *   gskew:n=11,h=11
 *   yags:c=12,n=10,t=6,h=10
 *   tournament:n=12
 *   perceptron:n=8,h=24
 *   filter:n=12,h=12,b=12,k=6
 *
 * Every example and benchmark binary accepts these strings, making
 * any predictor in the library reachable from the command line.
 * Parameter keys are validated against the kind's schema: a
 * misspelled key (`gshare:hist=12`) is a construction error naming
 * the accepted keys, never a silent fall-back to a default.
 *
 * Two error-handling flavours are provided. The try-APIs
 * (PredictorSpec::tryParse(), tryMakePredictor()) report syntax and
 * configuration errors — the constructors' range checks included
 * (predictors/config_error.hh) — through a result object and never
 * terminate; batch drivers such as the campaign engine and the
 * service daemon use them to surface per-job errors without killing
 * a whole run. The classic APIs
 * (PredictorSpec::parse(), makePredictor()) are thin wrappers that
 * fatal() on the same errors, for interactive tools where dying with
 * a message is the right behaviour.
 */

#ifndef BPSIM_CORE_FACTORY_HH
#define BPSIM_CORE_FACTORY_HH

#include <map>
#include <string>
#include <vector>

#include "predictors/predictor.hh"

namespace bpsim
{

struct ParseResult;

/** Parsed form of a predictor configuration string. */
struct PredictorSpec
{
    std::string kind;
    std::map<std::string, unsigned> params;

    /**
     * Parses `kind:k=v,...` without aborting. Syntax errors (missing
     * kind, malformed pairs, non-numeric values, duplicate keys) are
     * reported in ParseResult::error.
     */
    static ParseResult tryParse(const std::string &text);

    /** Parses `kind:k=v,...`; fatal() on syntax errors. */
    static PredictorSpec parse(const std::string &text);

    /** Parameter lookup with a default. */
    unsigned get(const std::string &key, unsigned def) const;

    /** Parameter lookup that fatal()s when the key is missing. */
    unsigned require(const std::string &key) const;
};

/** Outcome of PredictorSpec::tryParse(). */
struct ParseResult
{
    PredictorSpec spec;
    /** Empty on success; a human-readable message otherwise. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Outcome of tryMakePredictor(). */
struct PredictorResult
{
    /** Null when construction failed. */
    PredictorPtr predictor;
    /** Empty on success; a human-readable message otherwise. */
    std::string error;

    bool ok() const { return predictor != nullptr; }
};

/**
 * Instantiates a predictor from a configuration string without
 * aborting: parse errors, unknown kinds, missing required parameters
 * and out-of-range values all come back in PredictorResult::error.
 */
PredictorResult tryMakePredictor(const std::string &configText);

/** Instantiates a predictor from a parsed spec without aborting. */
PredictorResult tryMakePredictor(const PredictorSpec &spec);

/** Instantiates a predictor from a configuration string; fatal() on
 *  any error. */
PredictorPtr makePredictor(const std::string &configText);

/** Instantiates a predictor from a parsed spec; fatal() on any
 *  error. */
PredictorPtr makePredictor(const PredictorSpec &spec);

/** The list of recognized predictor kinds (for help texts), in
 *  registry order. */
std::vector<std::string> knownPredictorKinds();

/** Runtime view of one schema parameter (see core/registry.hh). */
struct ParamInfo
{
    std::string key;
    /** True when the key has no default and must be given. */
    bool required = false;
    std::string doc;
};

/** Runtime view of one registry entry, for help texts, docs and the
 *  registry-driven tests. */
struct PredictorKindInfo
{
    std::string kind;
    /** One-line description of the scheme. */
    std::string description;
    /** A documented, always-constructible example config string. */
    std::string example;
    std::vector<ParamInfo> params;
};

/** One entry per registered kind, in registry order — the runtime
 *  projection of the compile-time registry (core/registry.hh). */
std::vector<PredictorKindInfo> predictorKindInfos();

/** The full config grammar with per-kind parameter schemas, rendered
 *  from the registry for --help texts. */
std::string predictorGrammarHelp();

/**
 * The kind of @p configText, or "" when the config does not parse or
 * names no registered kind. Every registered kind has a
 * devirtualized replay kernel (core/registry.hh).
 *
 * This is the campaign engine's grouping key: jobs on the same trace
 * whose configs share a non-empty fastReplayKind() can be fused into
 * one banked replay pass (sim/replay.hh, replayKernelBankAny()).
 * Config strings that fail to parse return "" and take the per-job
 * path, which is where their error is reported.
 */
std::string fastReplayKind(const std::string &configText);

} // namespace bpsim

#endif // BPSIM_CORE_FACTORY_HH
