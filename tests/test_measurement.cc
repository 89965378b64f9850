/**
 * @file
 * Tests for the measurement context and the majority-voting helper.
 */

#include <gtest/gtest.h>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/infer/measurement.hh"

namespace
{

using namespace recap;
using infer::MeasurementContext;
using infer::majorityVote;

TEST(Measurement, TimedLevelClassifies)
{
    hw::Machine machine(hw::catalogMachine("core2-e6300"));
    MeasurementContext ctx(machine);
    EXPECT_EQ(ctx.depth(), 2u);
    EXPECT_EQ(ctx.timedReading(0).level, 2u); // cold: memory
    EXPECT_EQ(ctx.timedReading(0).level, 0u); // hot: L1
}

TEST(Measurement, CountedHitDelta)
{
    hw::Machine machine(hw::catalogMachine("core2-e6300"));
    MeasurementContext ctx(machine);
    EXPECT_FALSE(ctx.countedHit(0, 0));
    EXPECT_TRUE(ctx.countedHit(0, 0));
    EXPECT_THROW(ctx.countedHit(7, 0), UsageError);
}

TEST(Measurement, ObserveAtLevelReached)
{
    hw::Machine machine(hw::catalogMachine("core2-e6300"));
    MeasurementContext ctx(machine);
    ctx.access(0); // cold fill of all levels
    // A hot line hits L1 and never reaches L2.
    const auto obs = ctx.observeAtLevel(1, 0);
    EXPECT_FALSE(obs.reached);
    EXPECT_FALSE(obs.hit);
}

TEST(Measurement, FlushResetsContents)
{
    hw::Machine machine(hw::catalogMachine("core2-e6300"));
    MeasurementContext ctx(machine);
    ctx.access(0);
    ctx.flush();
    EXPECT_FALSE(ctx.countedHit(0, 0));
}

TEST(Measurement, ExperimentCounter)
{
    hw::Machine machine(hw::catalogMachine("core2-e6300"));
    MeasurementContext ctx(machine);
    EXPECT_EQ(ctx.experimentsRun(), 0u);
    ctx.beginExperiment();
    ctx.beginExperiment();
    EXPECT_EQ(ctx.experimentsRun(), 2u);
}

TEST(MajorityVote, UnanimousAndSplit)
{
    int calls = 0;
    EXPECT_TRUE(majorityVote(5, [&] { ++calls; return true; }));
    EXPECT_EQ(calls, 5);
    EXPECT_FALSE(majorityVote(5, [] { return false; }));

    // 2 of 5 true -> false; 3 of 5 -> true.
    int i = 0;
    EXPECT_FALSE(majorityVote(5, [&] { return ++i <= 2; }));
    i = 0;
    EXPECT_TRUE(majorityVote(5, [&] { return ++i <= 3; }));
}

TEST(MajorityVote, EvenRepeatsRoundedUp)
{
    int calls = 0;
    majorityVote(4, [&] { ++calls; return true; });
    EXPECT_EQ(calls, 5);
}

TEST(MajorityVote, SingleRepeatTrustsOneRun)
{
    int calls = 0;
    EXPECT_TRUE(majorityVote(1, [&] { ++calls; return true; }));
    EXPECT_EQ(calls, 1);
    EXPECT_THROW(majorityVote(0, [] { return true; }), UsageError);
}

TEST(MajorityVote, DefeatsMinorityNoise)
{
    // A 20%-flaky observation voted 9 times: the majority answer is
    // essentially always the true one for a fixed error pattern.
    Rng rng(4);
    int wrong = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const bool voted = majorityVote(9, [&] {
            return rng.nextBool(0.2) ? false : true;
        });
        if (!voted)
            ++wrong;
    }
    EXPECT_LE(wrong, 4);
}

} // namespace
