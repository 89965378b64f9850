/**
 * @file
 * Tests for the predictability metrics (state-space analysis): the
 * classic results must be reproduced — LRU's bounds are tight, PLRU
 * admits unbounded adversarial survival for k >= 4.
 */

#include <gtest/gtest.h>

#include "recap/eval/predictability.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;
using eval::evictBound;
using eval::missTurnover;
using eval::PredictabilityConfig;

TEST(MissTurnover, LruIsExactlyK)
{
    for (unsigned k : {2u, 4u, 8u}) {
        const auto r = missTurnover(*policy::makePolicy("lru", k));
        ASSERT_TRUE(r.value.has_value()) << "k=" << k;
        EXPECT_EQ(*r.value, k) << "k=" << k;
    }
}

TEST(MissTurnover, FifoIsExactlyK)
{
    for (unsigned k : {2u, 4u, 8u}) {
        const auto r = missTurnover(*policy::makePolicy("fifo", k));
        ASSERT_TRUE(r.value.has_value());
        EXPECT_EQ(*r.value, k);
    }
}

TEST(MissTurnover, PlruIsExactlyKUnderPureMisses)
{
    // Consecutive fills tour all tree leaves: no state stretches the
    // pure-miss turnover beyond k.
    for (unsigned k : {2u, 4u, 8u}) {
        const auto r = missTurnover(*policy::makePolicy("plru", k));
        ASSERT_TRUE(r.value.has_value()) << "k=" << k;
        EXPECT_EQ(*r.value, k) << "k=" << k;
    }
}

TEST(MissTurnover, NruBounded)
{
    const auto r = missTurnover(*policy::makePolicy("nru", 4));
    ASSERT_TRUE(r.value.has_value());
    EXPECT_GE(*r.value, 4u);
    EXPECT_LE(*r.value, 8u);
}

TEST(MissTurnover, LipNeverCompletes)
{
    // LIP inserts at the LRU end: a miss stream keeps replacing the
    // same way, so the original content is never fully displaced.
    const auto r = missTurnover(*policy::makePolicy("lip", 4));
    EXPECT_TRUE(r.unbounded);
}

TEST(EvictBound, LruIsKMinusOne)
{
    for (unsigned k : {2u, 4u, 8u}) {
        const auto r = evictBound(*policy::makePolicy("lru", k));
        ASSERT_TRUE(r.value.has_value()) << "k=" << k;
        EXPECT_EQ(*r.value, k - 1) << "k=" << k;
    }
}

TEST(EvictBound, FifoIsKMinusOne)
{
    for (unsigned k : {2u, 4u}) {
        const auto r = evictBound(*policy::makePolicy("fifo", k));
        ASSERT_TRUE(r.value.has_value());
        EXPECT_EQ(*r.value, k - 1);
    }
}

TEST(EvictBound, PlruTwoWaysEqualsLru)
{
    const auto r = evictBound(*policy::makePolicy("plru", 2));
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value, 1u);
}

TEST(EvictBound, PlruUnboundedAtFourWays)
{
    // The classic predictability result: with k >= 4 an adversary
    // can keep re-pointing the PLRU tree away from a victim line
    // forever (hit a protected neighbour, then miss safely).
    const auto r = evictBound(*policy::makePolicy("plru", 4));
    EXPECT_TRUE(r.unbounded);
}

TEST(EvictBound, PlruUnboundedAtEightWays)
{
    const auto r = evictBound(*policy::makePolicy("plru", 8));
    EXPECT_TRUE(r.unbounded);
}

TEST(EvictBound, NruFinite)
{
    const auto r = evictBound(*policy::makePolicy("nru", 4));
    ASSERT_FALSE(r.unbounded);
    ASSERT_TRUE(r.value.has_value());
    EXPECT_GE(*r.value, 3u);
}

TEST(EvictBound, BudgetExhaustionIsReportedNotWrong)
{
    PredictabilityConfig cfg;
    cfg.maxStates = 5;
    const auto r = evictBound(*policy::makePolicy("lru", 8), cfg);
    EXPECT_TRUE(r.exhaustedBudget);
    EXPECT_FALSE(r.value.has_value());
    EXPECT_EQ(r.render(), ">budget");
}

// Pinned values for the adaptive/metadata policies. dip and drrip at
// 2 ways compile, so they explore the compiled form (set-dueling
// state in the table); EAF cannot pack, so it explores stored clones
// keyed by stateKey() (the EAF filter). They must stay bit-stable — a
// drift means the policy semantics changed.
TEST(MissTurnover, AdaptivePoliciesPinned)
{
    EXPECT_EQ(*missTurnover(*policy::makePolicy("dip", 2)).value,
              14u);
    EXPECT_EQ(*missTurnover(*policy::makePolicy("drrip", 2)).value,
              17u);
    EXPECT_EQ(*missTurnover(*policy::makePolicy("eaf", 2)).value,
              17u);
    EXPECT_EQ(*missTurnover(*policy::makePolicy("eaf", 4)).value,
              49u);
}

TEST(EvictBound, AdaptivePoliciesPinned)
{
    EXPECT_EQ(*evictBound(*policy::makePolicy("dip", 2)).value, 1u);
    EXPECT_EQ(*evictBound(*policy::makePolicy("drrip", 2)).value,
              1u);
    EXPECT_EQ(*evictBound(*policy::makePolicy("eaf", 2)).value, 15u);
    EXPECT_EQ(*evictBound(*policy::makePolicy("eaf", 4)).value, 45u);
}

TEST(MetricResult, Rendering)
{
    eval::MetricResult r;
    r.value = 7;
    EXPECT_EQ(r.render(), "7");
    eval::MetricResult u;
    u.unbounded = true;
    EXPECT_EQ(u.render(), "unbounded");
}

} // namespace
