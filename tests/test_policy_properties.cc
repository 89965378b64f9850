/**
 * @file
 * Property-based tests run across the entire policy registry and a
 * sweep of associativities (parameterized gtest): invariants every
 * replacement policy must satisfy regardless of its strategy.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"

namespace
{

using namespace recap;
using policy::BlockId;
using policy::PolicyPtr;
using policy::SetModel;
using policy::Way;

using Param = std::tuple<std::string, unsigned>; // (spec, ways)

std::vector<Param>
allParams()
{
    std::vector<Param> params;
    std::vector<std::string> specs = policy::baselineSpecs();
    specs.push_back("qlru:H0,M0,R0,U0");
    specs.push_back("qlru:H0,M3,R1,U1");
    specs.push_back("qlru:H1,M2,R1,U0");
    specs.push_back("perm-lru");
    specs.push_back("perm-fifo");
    specs.push_back("perm-plru");
    for (const auto& spec : specs)
        for (unsigned ways : {2u, 3u, 4u, 6u, 8u, 16u})
            if (policy::specSupportsWays(spec, ways))
                params.emplace_back(spec, ways);
    return params;
}

std::string
paramName(const testing::TestParamInfo<Param>& info)
{
    std::string name = std::get<0>(info.param) + "_k" +
                       std::to_string(std::get<1>(info.param));
    for (auto& ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name;
}

class PolicyProperty : public testing::TestWithParam<Param>
{
  protected:
    PolicyPtr
    make() const
    {
        return policy::makePolicy(std::get<0>(GetParam()),
                                  std::get<1>(GetParam()), 11);
    }

    unsigned ways() const { return std::get<1>(GetParam()); }
};

/** victim() must always name a valid way. */
TEST_P(PolicyProperty, VictimAlwaysInRange)
{
    auto p = make();
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
        ASSERT_LT(p->victim(), ways());
        if (rng.nextBool(0.5))
            p->touch(static_cast<Way>(rng.nextBelow(ways())));
        else
            p->fill(p->victim());
    }
}

/** victim() must be free of observable side effects. */
TEST_P(PolicyProperty, VictimIsPure)
{
    auto p = make();
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        const std::string key = p->stateKey();
        const Way v1 = p->victim();
        const Way v2 = p->victim();
        ASSERT_EQ(v1, v2);
        ASSERT_EQ(p->stateKey(), key);
        if (rng.nextBool(0.5))
            p->touch(static_cast<Way>(rng.nextBelow(ways())));
        else
            p->fill(v1);
    }
}

/** reset() must restore the exact initial state. */
TEST_P(PolicyProperty, ResetRestoresInitialState)
{
    auto p = make();
    const std::string initial = p->stateKey();
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        if (rng.nextBool(0.5))
            p->touch(static_cast<Way>(rng.nextBelow(ways())));
        else
            p->fill(p->victim());
    }
    p->reset();
    EXPECT_EQ(p->stateKey(), initial);
}

/** clone() must copy state and then evolve independently. */
TEST_P(PolicyProperty, CloneIsDeepAndIndependent)
{
    auto p = make();
    Rng rng(4);
    for (int i = 0; i < 50; ++i)
        p->touch(static_cast<Way>(rng.nextBelow(ways())));
    auto q = p->clone();
    ASSERT_EQ(q->stateKey(), p->stateKey());
    // Drive only the clone; the original must not change.
    const std::string original = p->stateKey();
    for (int i = 0; i < 20; ++i)
        q->fill(q->victim());
    EXPECT_EQ(p->stateKey(), original);
}

/** Equal state keys must imply equal future behaviour. */
TEST_P(PolicyProperty, StateKeyDeterminesBehaviour)
{
    auto p = make();
    auto q = make();
    Rng rng(5);
    // Drive both with the same inputs; keys must stay equal and so
    // must victims.
    for (int i = 0; i < 300; ++i) {
        ASSERT_EQ(p->stateKey(), q->stateKey());
        ASSERT_EQ(p->victim(), q->victim());
        if (rng.nextBool(0.6)) {
            const Way w = static_cast<Way>(rng.nextBelow(ways()));
            p->touch(w);
            q->touch(w);
        } else {
            const Way v = p->victim();
            p->fill(v);
            q->fill(v);
        }
    }
}

/** A resident block can only be displaced by a miss, never a hit. */
TEST_P(PolicyProperty, HitsNeverEvict)
{
    SetModel model(make());
    Rng rng(6);
    const unsigned universe = ways() + 3;
    for (int i = 0; i < 400; ++i) {
        const BlockId b = rng.nextBelow(universe);
        const bool resident_before = model.contains(b);
        const bool hit = model.access(b);
        ASSERT_EQ(hit, resident_before);
        ASSERT_TRUE(model.contains(b));
    }
}

/** A cycling working set of exactly `ways` blocks never misses once
 *  resident (the invariant the geometry probe relies on). */
TEST_P(PolicyProperty, FittingWorkingSetStopsMissing)
{
    SetModel model(make());
    // Warm-up pass: all cold misses.
    for (unsigned b = 0; b < ways(); ++b)
        model.access(b);
    // Every later pass must be hits only.
    for (int pass = 0; pass < 10; ++pass)
        for (unsigned b = 0; b < ways(); ++b)
            ASSERT_TRUE(model.access(b)) << "pass " << pass;
}

/** ways+1 cycling blocks must miss at least once per round. */
TEST_P(PolicyProperty, OversizedWorkingSetKeepsMissing)
{
    SetModel model(make());
    for (unsigned b = 0; b <= ways(); ++b)
        model.access(b);
    for (int round = 0; round < 10; ++round) {
        unsigned misses = 0;
        for (unsigned b = 0; b <= ways(); ++b)
            if (!model.access(b))
                ++misses;
        ASSERT_GE(misses, 1u) << "round " << round;
    }
}

/** The set never holds duplicates and never exceeds its ways. */
TEST_P(PolicyProperty, ContentsStayConsistent)
{
    SetModel model(make());
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        model.access(rng.nextBelow(ways() + 4));
        ASSERT_LE(model.validCount(), ways());
        // blockAt over valid ways must be pairwise distinct.
        std::vector<BlockId> seen;
        for (unsigned w = 0; w < ways(); ++w) {
            if (!model.isValid(w))
                continue;
            for (BlockId other : seen)
                ASSERT_NE(other, model.blockAt(w));
            seen.push_back(model.blockAt(w));
        }
    }
}

/**
 * 10k-access fuzz over every registry policy, combining the automaton
 * invariants in one seeded, reproducible run: the victim is always a
 * valid way, a hit never changes occupancy or displaces anything, a
 * capacity miss replaces exactly the victim way, and occupancy only
 * ever grows by cold fills.
 */
TEST_P(PolicyProperty, FuzzedInvariantsHold)
{
    SetModel model(make());
    Rng rng(0xF022 + ways());
    const unsigned universe = ways() + 4;
    for (int i = 0; i < 10'000; ++i) {
        const unsigned occupancy_before = model.validCount();
        const bool full = occupancy_before == ways();
        const Way fill_way = model.nextFillWay();
        ASSERT_LT(fill_way, ways()) << "access " << i;

        const BlockId b = rng.nextBelow(universe);
        const bool resident_before = model.contains(b);
        const bool hit = model.access(b);
        ASSERT_EQ(hit, resident_before) << "access " << i;

        if (hit) {
            // Hits never change occupancy.
            ASSERT_EQ(model.validCount(), occupancy_before)
                << "access " << i;
        } else if (full) {
            // A capacity miss installs into exactly the pre-access
            // victim way and keeps the set full.
            ASSERT_EQ(model.validCount(), ways()) << "access " << i;
            ASSERT_EQ(model.blockAt(fill_way), b) << "access " << i;
        } else {
            // A cold miss grows occupancy by one.
            ASSERT_EQ(model.validCount(), occupancy_before + 1)
                << "access " << i;
            ASSERT_EQ(model.blockAt(fill_way), b) << "access " << i;
        }
    }
}

/**
 * LRU stack property: the eviction order of an LRU set is exactly the
 * recency order of the resident blocks. Both the explicit automaton
 * and its permutation-engine form must track a reference recency
 * stack through a 10k-access fuzz.
 */
TEST(PolicyLawsuit, LruStackProperty)
{
    for (const std::string& spec :
         {std::string("lru"), std::string("perm-lru")}) {
        for (unsigned ways : {2u, 3u, 4u, 8u}) {
            SetModel model(policy::makePolicy(spec, ways));
            std::vector<BlockId> recency; // front = least recent
            Rng rng(17 + ways);
            const unsigned universe = ways + 3;
            for (int i = 0; i < 10'000; ++i) {
                const BlockId b = rng.nextBelow(universe);
                model.access(b);
                std::erase(recency, b);
                recency.push_back(b);
                if (recency.size() > ways)
                    recency.erase(recency.begin()); // evicted
                if (model.validCount() == ways) {
                    ASSERT_EQ(model.evictionOrder(), recency)
                        << spec << " k=" << ways << " access " << i;
                }
            }
        }
    }
}

/**
 * FIFO insertion-order property: eviction order equals insertion
 * order, and hits must not rearrange it.
 */
TEST(PolicyLawsuit, FifoInsertionOrderProperty)
{
    for (const std::string& spec :
         {std::string("fifo"), std::string("perm-fifo")}) {
        for (unsigned ways : {2u, 3u, 4u, 8u}) {
            SetModel model(policy::makePolicy(spec, ways));
            std::vector<BlockId> fifo; // front = first inserted
            Rng rng(23 + ways);
            const unsigned universe = ways + 3;
            for (int i = 0; i < 10'000; ++i) {
                const BlockId b = rng.nextBelow(universe);
                const bool hit = model.access(b);
                if (!hit) {
                    fifo.push_back(b);
                    if (fifo.size() > ways)
                        fifo.erase(fifo.begin()); // evicted
                }
                if (model.validCount() == ways) {
                    ASSERT_EQ(model.evictionOrder(), fifo)
                        << spec << " k=" << ways << " access " << i;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, PolicyProperty,
                         testing::ValuesIn(allParams()), paramName);

} // namespace
