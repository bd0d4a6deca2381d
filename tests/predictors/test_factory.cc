/** @file Tests for the predictor factory and spec parsing. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/factory.hh"

namespace bpsim
{
namespace
{

TEST(PredictorSpec, ParsesKindOnly)
{
    const PredictorSpec spec = PredictorSpec::parse("gshare");
    EXPECT_EQ(spec.kind, "gshare");
    EXPECT_TRUE(spec.params.empty());
}

TEST(PredictorSpec, ParsesParams)
{
    const PredictorSpec spec = PredictorSpec::parse("gshare:n=12,h=8");
    EXPECT_EQ(spec.kind, "gshare");
    EXPECT_EQ(spec.params.at("n"), 12u);
    EXPECT_EQ(spec.params.at("h"), 8u);
}

TEST(PredictorSpec, GetWithDefault)
{
    const PredictorSpec spec = PredictorSpec::parse("bimode:d=10");
    EXPECT_EQ(spec.get("d", 0), 10u);
    EXPECT_EQ(spec.get("c", 99), 99u);
}

TEST(PredictorSpec, HexValues)
{
    const PredictorSpec spec = PredictorSpec::parse("bimodal:n=0x0c");
    EXPECT_EQ(spec.params.at("n"), 12u);
}

TEST(PredictorSpecTryParse, GoodSpecParses)
{
    const ParseResult result =
        PredictorSpec::tryParse("gshare:n=12,h=8");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.spec.kind, "gshare");
    EXPECT_EQ(result.spec.get("n", 0), 12u);
    EXPECT_EQ(result.spec.get("h", 0), 8u);
}

TEST(PredictorSpecTryParse, MalformedPairReturnsError)
{
    const ParseResult result = PredictorSpec::tryParse("gshare:n12");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("expected key=value"),
              std::string::npos);
}

TEST(PredictorSpecTryParse, EmptyValueReturnsError)
{
    const ParseResult result = PredictorSpec::tryParse("gshare:n=");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("not a number"), std::string::npos);
}

TEST(PredictorSpecTryParse, DuplicateKeyReturnsError)
{
    const ParseResult result =
        PredictorSpec::tryParse("gshare:n=4,n=5");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("duplicate parameter"),
              std::string::npos);
}

TEST(PredictorSpecTryParse, EmptyKindReturnsError)
{
    const ParseResult result = PredictorSpec::tryParse(":n=4");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("empty predictor kind"),
              std::string::npos);
}

TEST(FactoryTry, UnknownKindReturnsError)
{
    const PredictorResult result = tryMakePredictor("bogus:");
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.predictor, nullptr);
    EXPECT_NE(result.error.find("unknown predictor kind"),
              std::string::npos);
}

TEST(FactoryTry, MissingRequiredParamReturnsError)
{
    const PredictorResult result = tryMakePredictor("gshare:h=8");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("requires parameter"),
              std::string::npos);
}

TEST(FactoryTry, MisspelledParamKeyReturnsErrorNamingValidKeys)
{
    // "hist" is not a gshare key; it used to parse and silently fall
    // back to the default history length. The registry schema now
    // rejects it, naming the keys that would have been accepted.
    const PredictorResult result = tryMakePredictor("gshare:hist=12");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error.find("unknown parameter 'hist'"),
              std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("accepted keys"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("n, h"), std::string::npos)
        << result.error;
}

/** Specs that parse and pass the schema but that a constructor
 *  rejects: out-of-range widths and contradictory parameters. */
const char *const kRejectedByConstructor[] = {
    "bimode:d=8,h=9",    "bimode:d=29",         "bimodal:n=40",
    "tournament:n=29",   "perceptron:n=5,h=64", "yags:c=11,n=9,t=17",
    "filter:n=10,k=9",   "gshare:n=8,w=9",      "gshare:n=8,w=0",
    "gag:h=70",          "gas:h=4294967295,a=1", "pag:h=8,l=40",
    "gskew:n=8,h=65",    "agree:n=8,b=30",
};

TEST(FactoryTry, ConstructorRejectionsReturnErrors)
{
    for (const char *spec : kRejectedByConstructor) {
        const PredictorResult result = tryMakePredictor(spec);
        EXPECT_FALSE(result.ok()) << spec;
        EXPECT_FALSE(result.error.empty()) << spec;
    }
    const PredictorResult history = tryMakePredictor("bimode:d=8,h=9");
    EXPECT_NE(history.error.find("cannot exceed"), std::string::npos)
        << history.error;
    const PredictorResult width = tryMakePredictor("gshare:n=8,w=9");
    EXPECT_NE(width.error.find("counter width 9"), std::string::npos)
        << width.error;
}

TEST(FactoryTry, ParseErrorPropagates)
{
    const PredictorResult result = tryMakePredictor("gshare:n=");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("not a number"), std::string::npos);
}

TEST(FactoryTry, GoodConfigBuilds)
{
    const PredictorResult result = tryMakePredictor("gshare:n=10");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.error.empty());
    EXPECT_EQ(result.predictor->name(), "gshare(n=10,h=10)");
}

TEST(PredictorSpecDeath, MalformedPairIsFatal)
{
    EXPECT_EXIT(PredictorSpec::parse("gshare:n12"),
                ::testing::ExitedWithCode(1), "expected key=value");
}

TEST(PredictorSpecDeath, NonNumericValueIsFatal)
{
    EXPECT_EXIT(PredictorSpec::parse("gshare:n=abc"),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(PredictorSpecTryParse, NegativeValueReturnsError)
{
    // strtoul wraps negatives, so "d=-1" used to parse as 2^64-1 and
    // then truncate; it must be rejected outright.
    const ParseResult result = PredictorSpec::tryParse("bimode:d=-1");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error.find("non-negative"), std::string::npos)
        << result.error;
}

TEST(PredictorSpecTryParse, ValueAboveUintMaxReturnsError)
{
    // 2^32 would silently truncate to 0 through the unsigned cast.
    const ParseResult just_over =
        PredictorSpec::tryParse("bimode:d=4294967296");
    ASSERT_FALSE(just_over.ok());
    EXPECT_NE(just_over.error.find("out of range"), std::string::npos)
        << just_over.error;

    // Far past 2^64: strtoull itself clamps and reports ERANGE.
    const ParseResult huge =
        PredictorSpec::tryParse("bimode:d=99999999999999999999999");
    ASSERT_FALSE(huge.ok());
    EXPECT_NE(huge.error.find("out of range"), std::string::npos);
}

TEST(PredictorSpecTryParse, UintMaxItselfStillParses)
{
    const ParseResult result =
        PredictorSpec::tryParse("bimode:d=4294967295");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.spec.get("d", 0), 4294967295u);
}

TEST(Factory, BuildsEveryKnownKind)
{
    // The registry's documented examples enumerate every kind — no
    // hand-maintained list to fall out of sync.
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        const PredictorPtr predictor = makePredictor(info.example);
        ASSERT_NE(predictor, nullptr) << info.example;
        // Every predictor must answer the whole interface.
        predictor->step(0x1000, true);
        predictor->reset();
        EXPECT_FALSE(predictor->name().empty()) << info.example;
    }
}

TEST(Factory, GshareHistoryDefaultsToIndexWidth)
{
    const PredictorPtr predictor = makePredictor("gshare:n=10");
    EXPECT_EQ(predictor->name(), "gshare(n=10,h=10)");
}

TEST(Factory, BimodeDefaultsAreCanonical)
{
    const PredictorPtr predictor = makePredictor("bimode:d=9");
    EXPECT_EQ(predictor->name(), "bimode(d=9,c=9,h=9)");
}

TEST(Factory, BimodeAblationFlags)
{
    const PredictorPtr full = makePredictor("bimode:d=6,partial=0");
    EXPECT_NE(full->name().find("full-update"), std::string::npos);
    const PredictorPtr choice = makePredictor("bimode:d=6,alwayschoice=1");
    EXPECT_NE(choice->name().find("always-choice"), std::string::npos);
}

TEST(Factory, WideCounterParameter)
{
    const PredictorPtr predictor = makePredictor("bimodal:n=6,w=3");
    EXPECT_EQ(predictor->storageBits(), 64u * 3);
}

TEST(FactoryDeath, UnknownKindIsFatal)
{
    EXPECT_EXIT(makePredictor("tage:n=10"),
                ::testing::ExitedWithCode(1), "unknown predictor kind");
}

TEST(FactoryDeath, UnknownParamKeyIsFatal)
{
    EXPECT_EXIT(makePredictor("gshare:hist=12"),
                ::testing::ExitedWithCode(1), "unknown parameter");
}

TEST(FactoryDeath, EmptyKindIsFatal)
{
    EXPECT_EXIT(makePredictor(":n=4"), ::testing::ExitedWithCode(1),
                "empty predictor kind");
}

} // namespace
} // namespace bpsim
