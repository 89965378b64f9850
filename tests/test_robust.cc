/**
 * @file
 * Tests for the robust measurement primitives: the confidence-driven
 * sequential vote (and its fixed-N-majority equivalence in the
 * zero-noise limit), the incremental per-position SequenceVote with
 * abstentions, and the robust statistics behind latency-fence
 * calibration.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/infer/robust.hh"

namespace
{

using namespace recap;
using infer::AdaptiveVoteConfig;
using infer::adaptiveVote;
using infer::SequenceVote;
using infer::Verdict;
using infer::VoteOutcome;

/** Replays a scripted outcome stream (repeating the last element). */
std::function<bool()>
scripted(std::vector<bool> outcomes)
{
    auto index = std::make_shared<std::size_t>(0);
    return [outcomes = std::move(outcomes), index] {
        const std::size_t i =
            std::min(*index, outcomes.size() - 1);
        ++*index;
        return outcomes[i];
    };
}

TEST(AdaptiveVote, UnanimousReadingsSettleAtInitialRepeats)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 3;
    cfg.settleMargin = 3;
    const VoteOutcome yes = adaptiveVote(cfg, [] { return true; });
    EXPECT_EQ(yes.verdict, Verdict::kYes);
    EXPECT_TRUE(yes.determined());
    EXPECT_TRUE(yes.value());
    EXPECT_DOUBLE_EQ(yes.confidence, 1.0);
    EXPECT_EQ(yes.samples, 3u);

    const VoteOutcome no = adaptiveVote(cfg, [] { return false; });
    EXPECT_EQ(no.verdict, Verdict::kNo);
    EXPECT_FALSE(no.value());
    EXPECT_EQ(no.samples, 3u);
}

// In the zero-noise limit (a deterministic experiment) the adaptive
// vote and a fixed-N majority vote agree for every N — the property
// that makes enabling adaptive voting safe on clean machines.
TEST(AdaptiveVote, MatchesFixedNMajorityInTheZeroNoiseLimit)
{
    for (const bool truth : {false, true}) {
        for (unsigned initial : {1u, 3u, 5u, 9u}) {
            for (unsigned margin : {1u, 2u, 3u, 5u}) {
                AdaptiveVoteConfig cfg;
                cfg.initialRepeats = initial;
                cfg.settleMargin = margin;
                const VoteOutcome vote =
                    adaptiveVote(cfg, [truth] { return truth; });
                // Fixed-N majority of a constant stream is the
                // constant, for any odd N.
                EXPECT_TRUE(vote.determined());
                EXPECT_EQ(vote.value(), truth);
                EXPECT_DOUBLE_EQ(vote.confidence, 1.0);
                // And it never burns more than the initial batch.
                EXPECT_LE(vote.samples,
                          std::max(initial, margin));
            }
        }
    }
}

TEST(AdaptiveVote, EscalatesOnContradiction)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 3;
    cfg.escalationStep = 4;
    cfg.maxRepeats = 31;
    cfg.settleMargin = 3;
    // First three readings contradict (2 yes / 1 no): must escalate
    // beyond the initial batch, then settle on the true majority.
    const VoteOutcome vote = adaptiveVote(
        cfg, scripted({true, false, true, true, true, true}));
    EXPECT_EQ(vote.verdict, Verdict::kYes);
    EXPECT_GT(vote.samples, 3u);
    EXPECT_LE(vote.samples, cfg.maxRepeats);
    EXPECT_LT(vote.confidence, 1.0);
    EXPECT_GE(vote.confidence, 0.5);
}

TEST(AdaptiveVote, ContradictoryStreamIsUndetermined)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 4;
    cfg.escalationStep = 4;
    cfg.maxRepeats = 20;
    cfg.settleMargin = 8;
    cfg.minConfidence = 0.65;
    // A perfectly alternating stream never forms a quorum.
    auto flip = std::make_shared<bool>(false);
    const VoteOutcome vote = adaptiveVote(cfg, [flip] {
        *flip = !*flip;
        return *flip;
    });
    EXPECT_EQ(vote.verdict, Verdict::kUndetermined);
    EXPECT_FALSE(vote.determined());
    EXPECT_EQ(vote.samples, cfg.maxRepeats);
    EXPECT_LT(vote.confidence, cfg.minConfidence);
}

TEST(AdaptiveVote, BudgetExhaustionWithClearMajoritySettles)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 5;
    cfg.escalationStep = 5;
    cfg.maxRepeats = 10;
    cfg.settleMargin = 100; // unreachable: force budget exhaustion
    cfg.minConfidence = 0.65;
    // 8/10 yes: exhausted but confident enough to settle.
    const VoteOutcome vote = adaptiveVote(
        cfg, scripted({true, false, true, true, false, true, true,
                       true, true, true}));
    EXPECT_EQ(vote.verdict, Verdict::kYes);
    EXPECT_EQ(vote.samples, 10u);
    EXPECT_DOUBLE_EQ(vote.confidence, 0.8);
}

TEST(AdaptiveVote, SampleCountIsDeterministic)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 3;
    cfg.maxRepeats = 31;
    // The same (deterministic) outcome stream must consume the exact
    // same number of samples on every run.
    for (int run = 0; run < 3; ++run) {
        Rng rng(99);
        const VoteOutcome vote = adaptiveVote(
            cfg, [&rng] { return rng.nextBool(0.8); });
        static unsigned pinnedSamples = 0;
        if (run == 0)
            pinnedSamples = vote.samples;
        EXPECT_EQ(vote.samples, pinnedSamples);
    }
}

TEST(SequenceVote, SettlesEveryPositionIndependently)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 3;
    cfg.settleMargin = 3;
    cfg.maxRepeats = 31;
    SequenceVote vote(cfg, 3);
    EXPECT_FALSE(vote.done());
    // Position 0 always true, 1 always false, 2 alternates.
    bool flip = false;
    while (!vote.done()) {
        vote.addReplay({true, false, flip});
        flip = !flip;
    }
    const auto outcomes = vote.outcomes();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].verdict, Verdict::kYes);
    EXPECT_EQ(outcomes[1].verdict, Verdict::kNo);
    EXPECT_EQ(outcomes[2].verdict, Verdict::kUndetermined);
    // The contradictory position forced the full budget.
    EXPECT_EQ(vote.replays(), cfg.maxRepeats);
}

TEST(SequenceVote, CleanSequencesSettleAfterTheInitialBatch)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 3;
    cfg.settleMargin = 3;
    SequenceVote vote(cfg, 4);
    while (!vote.done())
        vote.addReplay({true, true, false, true});
    EXPECT_EQ(vote.replays(), 3u);
    for (const auto& outcome : vote.outcomes()) {
        EXPECT_TRUE(outcome.determined());
        EXPECT_DOUBLE_EQ(outcome.confidence, 1.0);
    }
}

TEST(SequenceVote, AbstentionsDoNotCountTowardTheQuorum)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 3;
    cfg.settleMargin = 3;
    cfg.maxRepeats = 9;
    cfg.minConfidence = 0.65;
    SequenceVote vote(cfg, 2);
    // Position 1 abstains on every replay (outlier readings): it must
    // end undetermined while position 0 settles normally.
    while (!vote.done())
        vote.addReplay({true, true}, {true, false});
    const auto outcomes = vote.outcomes();
    EXPECT_EQ(outcomes[0].verdict, Verdict::kYes);
    EXPECT_EQ(outcomes[1].verdict, Verdict::kUndetermined);
    EXPECT_EQ(outcomes[1].samples, 0u);
}

// Timed probing votes one class per level: the top class wins, a
// tie goes to the lower (innermost) class, and abstentions do not
// count.
TEST(SequenceVote, CountsClassesWithTiesToTheLowerClass)
{
    AdaptiveVoteConfig cfg;
    cfg.initialRepeats = 4;
    cfg.maxRepeats = 4;
    cfg.settleMargin = 3;
    cfg.minConfidence = 0.65;
    SequenceVote vote(cfg, 3, 3);
    vote.addClassReplay({2, 1, 1}, {});
    vote.addClassReplay({2, 2, 1}, {});
    vote.addClassReplay({2, 1, 0}, {true, true, false});
    vote.addClassReplay({2, 2, 1}, {});
    EXPECT_TRUE(vote.done());
    const auto outcomes = vote.outcomes();
    EXPECT_EQ(outcomes[0].winner, 2u);
    EXPECT_TRUE(outcomes[0].determined());
    EXPECT_DOUBLE_EQ(outcomes[0].confidence, 1.0);
    EXPECT_EQ(outcomes[1].winner, 1u); // 2-2 tie between 1 and 2
    EXPECT_FALSE(outcomes[1].determined());
    EXPECT_DOUBLE_EQ(outcomes[1].confidence, 0.5);
    EXPECT_EQ(outcomes[2].winner, 1u);
    EXPECT_EQ(outcomes[2].samples, 3u);
    EXPECT_TRUE(outcomes[2].determined());
    EXPECT_THROW(vote.addClassReplay({3, 0, 0}, {}), UsageError);
}

// Fixed-N majority is a schedule of the same test: N rounded up to
// odd repetitions (0 reads as 1), no early exit even on a unanimous
// stream, and every vote decided.
TEST(FixedSchedule, RunsExactlyNOddRepetitionsAndAlwaysDecides)
{
    const std::pair<unsigned, unsigned> expected[] = {
        {0, 1}, {1, 1}, {2, 3}, {3, 3}, {8, 9}, {9, 9}};
    for (const auto& [repeats, n] : expected) {
        const AdaptiveVoteConfig cfg = infer::fixedSchedule(repeats);
        unsigned calls = 0;
        const VoteOutcome unanimous =
            adaptiveVote(cfg, [&] { ++calls; return true; });
        EXPECT_EQ(calls, n) << repeats;
        EXPECT_EQ(unanimous.samples, n) << repeats;
        EXPECT_EQ(unanimous.verdict, Verdict::kYes) << repeats;
    }
    // One dissent in three: still decided, at two-thirds confidence.
    const VoteOutcome split = adaptiveVote(
        infer::fixedSchedule(3), scripted({true, false, false}));
    EXPECT_EQ(split.verdict, Verdict::kNo);
    EXPECT_DOUBLE_EQ(split.confidence, 2.0 / 3.0);

    SequenceVote seq(infer::fixedSchedule(2), 2);
    while (!seq.done())
        seq.addReplay({true, seq.replays() == 0});
    EXPECT_EQ(seq.replays(), 3u);
    const auto outcomes = seq.outcomes();
    EXPECT_EQ(outcomes[0].verdict, Verdict::kYes);
    EXPECT_EQ(outcomes[1].verdict, Verdict::kNo);
    EXPECT_TRUE(outcomes[1].determined());
}

TEST(RobustStats, MedianAndMadOfCleanSamples)
{
    const auto stats =
        infer::robustStats({10, 10, 10, 10, 10, 10, 10});
    EXPECT_EQ(stats.median, 10u);
    EXPECT_EQ(stats.mad, 0u);
}

TEST(RobustStats, MedianResistsOutliers)
{
    // Five clean L1 readings and two page-walk outliers: the median
    // and MAD must ignore the outliers entirely.
    const auto stats =
        infer::robustStats({12, 11, 12, 13, 12, 400, 380});
    EXPECT_EQ(stats.median, 12u);
    EXPECT_LE(stats.mad, 2u);
}

TEST(RobustStats, EmptyInputIsZero)
{
    const auto stats = infer::robustStats({});
    EXPECT_EQ(stats.median, 0u);
    EXPECT_EQ(stats.mad, 0u);
}

TEST(OutlierFence, FloorsTheFenceForTightSamples)
{
    // MAD 0 (all readings equal): the fence is median + floor, so a
    // tight distribution still tolerates modest jitter.
    infer::RobustStats stats;
    stats.median = 10;
    stats.mad = 0;
    EXPECT_EQ(infer::outlierFence(stats, 6.0, 24), 34u);
}

TEST(OutlierFence, ScalesWithTheMad)
{
    infer::RobustStats stats;
    stats.median = 100;
    stats.mad = 10;
    EXPECT_EQ(infer::outlierFence(stats, 6.0, 24), 160u);
}

} // namespace
