/** @file Registry-driven construction and schema tests.
 *
 * These tests enumerate the compile-time registry through its runtime
 * projection (predictorKindInfos()) instead of hand-maintained kind
 * lists: registering a new predictor automatically subjects it to
 * every check here, and a registry entry with a broken documented
 * example cannot land.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/factory.hh"

namespace bpsim
{
namespace
{

/** A spread of pcs wide enough to touch several table entries. */
std::vector<std::uint64_t>
probePcs()
{
    std::vector<std::uint64_t> pcs;
    for (std::uint64_t i = 0; i < 64; ++i)
        pcs.push_back(0x1000 + i * 4);
    return pcs;
}

TEST(Registry, KindInfosMatchKnownKinds)
{
    const auto infos = predictorKindInfos();
    const auto kinds = knownPredictorKinds();
    ASSERT_EQ(infos.size(), kinds.size());
    for (std::size_t i = 0; i < infos.size(); ++i)
        EXPECT_EQ(infos[i].kind, kinds[i]);
}

TEST(Registry, EveryEntryIsDocumented)
{
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        EXPECT_FALSE(info.description.empty()) << info.kind;
        EXPECT_FALSE(info.example.empty()) << info.kind;
        // The example must be an instance of its own kind.
        EXPECT_EQ(info.example.substr(0, info.example.find(':')),
                  info.kind);
        for (const ParamInfo &param : info.params) {
            EXPECT_FALSE(param.key.empty()) << info.kind;
            EXPECT_FALSE(param.doc.empty())
                << info.kind << ":" << param.key;
        }
    }
}

TEST(Registry, DocumentedExampleBuildsEveryKind)
{
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        const PredictorResult result = tryMakePredictor(info.example);
        ASSERT_TRUE(result.ok())
            << info.kind << ": " << result.error;
        EXPECT_FALSE(result.predictor->name().empty()) << info.kind;
        // The paper's cost convention can only narrow the storage
        // accounting, never exceed it.
        EXPECT_GE(result.predictor->storageBits(),
                  result.predictor->counterBits())
            << info.kind;
    }
}

TEST(Registry, ResetRestoresThePowerOnState)
{
    const auto pcs = probePcs();
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        const PredictorPtr trained = makePredictor(info.example);
        const PredictorPtr fresh = makePredictor(info.example);

        // Drive the predictor away from the power-on state with a
        // pattern that flips directions.
        for (int round = 0; round < 4; ++round) {
            for (const std::uint64_t pc : pcs)
                trained->step(pc, (pc >> 2 ^ round) & 1);
        }
        trained->reset();

        // After reset, predictions must match a never-used instance,
        // and a second reset must change nothing (idempotence).
        std::vector<bool> after_first;
        for (const std::uint64_t pc : pcs) {
            const bool taken = (pc >> 3 & 1) != 0;
            after_first.push_back(trained->step(pc, taken));
            EXPECT_EQ(after_first.back(), fresh->step(pc, taken))
                << info.kind << " pc=" << pc;
        }
        trained->reset();
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            EXPECT_EQ(trained->step(pcs[i], (pcs[i] >> 3 & 1) != 0),
                      after_first[i])
                << info.kind;
        }
    }
}

TEST(Registry, RequiredParamsAreEnforced)
{
    // Stripping the parameters off an example must fail construction
    // for exactly the kinds whose schema has a required key.
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        const bool has_required = std::any_of(
            info.params.begin(), info.params.end(),
            [](const ParamInfo &param) { return param.required; });
        const PredictorResult bare = tryMakePredictor(info.kind);
        EXPECT_EQ(bare.ok(), !has_required) << info.kind;
        if (has_required) {
            EXPECT_NE(bare.error.find("requires parameter"),
                      std::string::npos)
                << info.kind << ": " << bare.error;
        }
    }
}

TEST(Registry, UnknownParamKeyIsRejectedForEveryKind)
{
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        const PredictorResult result =
            tryMakePredictor(info.example + (info.params.empty()
                                                 ? ":bogus=1"
                                                 : ",bogus=1"));
        ASSERT_FALSE(result.ok()) << info.kind;
        EXPECT_NE(result.error.find("unknown parameter 'bogus'"),
                  std::string::npos)
            << info.kind << ": " << result.error;
        // The error must teach the accepted schema.
        for (const ParamInfo &param : info.params) {
            EXPECT_NE(result.error.find(param.key), std::string::npos)
                << info.kind << ": " << result.error;
        }
        if (info.params.empty()) {
            EXPECT_NE(result.error.find("takes no parameters"),
                      std::string::npos)
                << info.kind << ": " << result.error;
        }
    }
}

TEST(Registry, GrammarHelpCoversEveryKindAndKey)
{
    const std::string help = predictorGrammarHelp();
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        EXPECT_NE(help.find(info.example), std::string::npos)
            << info.kind;
        EXPECT_NE(help.find(info.description), std::string::npos)
            << info.kind;
    }
}

} // namespace
} // namespace bpsim
