/**
 * @file
 * Tests of the benchmark's own code: operation tallies (fail_ratio),
 * the tail-percentile rule of the span summaries, the
 * equivalence-based verdict comparator and the counterexample replay.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "perfbench/checks.hh"
#include "perfbench/tracer.hh"
#include "recap/infer/equivalence.hh"
#include "recap/policy/factory.hh"

namespace perfbench
{
namespace
{

using recap::infer::LevelOutcome;
using recap::infer::LevelReport;

TEST(OpTally, CountsEveryOperationOnce)
{
    OpTally t;
    EXPECT_EQ(t.attempted(), 0u);
    EXPECT_EQ(t.failRatio(), 0.0);
    t.pass();
    t.record(true, "unused");
    t.record(false, "cell A");
    t.fail("level B");
    EXPECT_EQ(t.attempted(), 4u);
    EXPECT_EQ(t.failed(), 2u);
    EXPECT_DOUBLE_EQ(t.failRatio(), 0.5);
    EXPECT_EQ(t.failures(), (std::vector<std::string>{"cell A", "level B"}));
}

TEST(TailPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_FALSE(tailPercentileFor(0));
    EXPECT_FALSE(tailPercentileFor(19));
    EXPECT_EQ(tailPercentileFor(20), 50.0);
    EXPECT_EQ(tailPercentileFor(99), 50.0); // p90 rank 90 leaves 9
    EXPECT_EQ(tailPercentileFor(100), 90.0);
    EXPECT_EQ(tailPercentileFor(999), 90.0);
    EXPECT_EQ(tailPercentileFor(1000), 99.0);
    EXPECT_EQ(tailPercentileFor(10000), 99.9);
    EXPECT_EQ(tailPercentileFor(100000), 99.99);
}

TEST(TailPercentile, SummaryUsesNearestRank)
{
    std::vector<double> ms(100);
    std::iota(ms.begin(), ms.end(), 1.0); // 1..100
    const SpanSummary s = summarize(ms);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.totalMs, 5050.0);
    EXPECT_DOUBLE_EQ(s.medianMs, 50.0);
    ASSERT_TRUE(s.tailPercentile);
    EXPECT_EQ(*s.tailPercentile, 90.0);
    EXPECT_DOUBLE_EQ(s.tailMs, 90.0);

    const SpanSummary few = summarize({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(few.medianMs, 2.0);
    EXPECT_FALSE(few.tailPercentile);
}

LevelReport
searched(const std::string& spec)
{
    LevelReport lvl;
    lvl.verdict = spec;
    lvl.survivors = {spec};
    return lvl;
}

recap::hw::CacheLevelSpec
truth(const std::string& spec, unsigned ways,
      const std::string& specB = "")
{
    recap::hw::CacheLevelSpec level{};
    level.name = "L";
    level.capacityBytes = 64 * 64 * ways;
    level.ways = ways;
    level.hitLatency = 1;
    level.policySpec = spec;
    level.policySpecB = specB;
    return level;
}

/** verdictMatchesTruth() without the reason. */
Match
judge(const LevelReport& lvl, const recap::hw::CacheLevelSpec& level)
{
    std::string why;
    return verdictMatchesTruth(lvl, level, why);
}

constexpr Match kEq = Match::kEquivalent;
constexpr Match kDiff = Match::kDifferent;

TEST(VerdictComparator, PermutationNamesMapToSpecs)
{
    LevelReport lvl;
    lvl.isPermutation = true;
    lvl.verdict = "LRU";
    EXPECT_EQ(judge(lvl, truth("lru", 8)), kEq);
    std::string why;
    EXPECT_EQ(verdictMatchesTruth(lvl, truth("fifo", 8), why), kDiff);
    EXPECT_NE(why.find("not equivalent"), std::string::npos);

    lvl.verdict = "Permutation(k=8)";
    EXPECT_TRUE(verdictSpecs(lvl).empty());
    EXPECT_EQ(judge(lvl, truth("lru", 8)), kDiff);
}

TEST(VerdictComparator, AcceptsEquivalentSpecsNotJustEqualNames)
{
    // Equivalent at 4 ways under different names, proven exhaustively.
    EXPECT_EQ(judge(searched("qlru:H0,M2,R0,U2"), truth("srrip", 4)), kEq);
    EXPECT_EQ(judge(searched("qlru:H0,M0,R0,U2"), truth("nru", 4)), kEq);
    EXPECT_EQ(judge(searched("qlru:H1,M1,R0,U2"), truth("srrip", 4)),
              kDiff);
}

TEST(VerdictComparator, IvyBridgeAlternativeVerdictIsNotDistinguished)
{
    // Other probe seeds report this form of the 12-way truth. Proving
    // it equivalent takes minutes, so within the cap it is unverified,
    // while a truly different 12-way policy is caught.
    EXPECT_EQ(compareSpecs("qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2", 12),
              Match::kDifferent);
    std::string why;
    EXPECT_EQ(verdictMatchesTruth(searched("qlru:H1,M2,R0,U0"),
                                  truth("qlru:H1,M3,R0,U2", 12), why),
              Match::kUnverified);
    EXPECT_NE(why.find("not proven equivalent"), std::string::npos);
}

TEST(Counterexample, ReplayDistinguishesOnItsLastAccess)
{
    const auto lru = recap::policy::makePolicy("lru", 2);
    const auto fifo = recap::policy::makePolicy("fifo", 2);
    // Fill A B, hit A, miss C: LRU evicts B, FIFO evicts A.
    EXPECT_TRUE(distinguishes(*lru, *fifo, {0, 1, 0, 2, 0}));
    EXPECT_FALSE(distinguishes(*lru, *fifo, {0, 1, 0, 2}));    // no split
    EXPECT_FALSE(distinguishes(*lru, *fifo, {0, 1, 0, 2, 0, 1})); // late
    EXPECT_FALSE(distinguishes(*lru, *lru, {0, 1, 0, 2, 0}));

    const auto result = recap::infer::checkEquivalence(*lru, *fifo);
    ASSERT_FALSE(result.equivalent);
    EXPECT_TRUE(distinguishes(*lru, *fifo, result.counterexample));
}

TEST(VerdictComparator, RejectsNonVerdicts)
{
    LevelReport undetermined = searched("srrip");
    undetermined.outcome = LevelOutcome::kUndetermined;
    EXPECT_EQ(judge(undetermined, truth("srrip", 4)), kDiff);

    LevelReport ambiguous = searched("srrip");
    ambiguous.verdict = "SRRIP (ambiguous: 2 candidates left)";
    EXPECT_EQ(judge(ambiguous, truth("srrip", 4)), kDiff);

    LevelReport learned = searched("srrip");
    learned.learned = true;
    EXPECT_EQ(judge(learned, truth("srrip", 4)), kDiff);
}

TEST(VerdictComparator, SetDuelingMatchesEitherOrder)
{
    LevelReport lvl;
    lvl.adaptive = true;
    lvl.adaptiveSelected = "qlru:H1,M3,R0,U2";
    lvl.adaptiveUnselected = "qlru:H1,M1,R0,U2";
    const std::string m1 = "qlru:H1,M1,R0,U2";
    const std::string m3 = "qlru:H1,M3,R0,U2";
    EXPECT_EQ(judge(lvl, truth(m1, 4, m3)), kEq);
    EXPECT_EQ(judge(lvl, truth(m3, 4, m1)), kEq);
    EXPECT_EQ(judge(lvl, truth(m1, 4, "lru")), kDiff);
    // A static truth never matches a two-policy verdict.
    EXPECT_EQ(judge(lvl, truth(m3, 4)), kDiff);
    lvl.adaptiveUnselected.clear();
    EXPECT_EQ(judge(lvl, truth(m1, 4, m3)), kDiff);
}

TEST(Digest, DependsOnEveryLineAndItsBoundaries)
{
    const std::string d = digestOf({"a", "bc"});
    EXPECT_EQ(d.size(), 16u);
    EXPECT_EQ(d, digestOf({"a", "bc"}));
    EXPECT_NE(d, digestOf({"ab", "c"}));
    EXPECT_NE(d, digestOf({"a", "bd"}));
}

} // namespace
} // namespace perfbench
