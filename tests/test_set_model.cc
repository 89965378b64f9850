/**
 * @file
 * Tests for SetModel, the contents+policy automaton the inference
 * machinery reasons over.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/lru.hh"
#include "recap/policy/set_model.hh"
#include "recap/policy/state_space.hh"

namespace
{

using namespace recap::policy;
using recap::UsageError;

SetModel
lruModel(unsigned ways)
{
    return SetModel(std::make_unique<LruPolicy>(ways));
}

TEST(SetModel, StartsEmpty)
{
    SetModel m = lruModel(4);
    EXPECT_EQ(m.ways(), 4u);
    EXPECT_EQ(m.validCount(), 0u);
    EXPECT_FALSE(m.contains(7));
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_FALSE(m.isValid(w));
}

TEST(SetModel, ColdFillsUseLowestInvalidWay)
{
    SetModel m = lruModel(4);
    EXPECT_FALSE(m.access(10));
    EXPECT_TRUE(m.isValid(0));
    EXPECT_EQ(m.blockAt(0), 10u);
    EXPECT_FALSE(m.access(11));
    EXPECT_EQ(m.blockAt(1), 11u);
    EXPECT_EQ(m.validCount(), 2u);
}

TEST(SetModel, HitsReportedCorrectly)
{
    SetModel m = lruModel(2);
    EXPECT_FALSE(m.access(5));
    EXPECT_TRUE(m.access(5));
    EXPECT_FALSE(m.access(6));
    EXPECT_TRUE(m.access(5));
    EXPECT_TRUE(m.access(6));
}

TEST(SetModel, EvictionReplacesVictim)
{
    SetModel m = lruModel(2);
    m.access(1);
    m.access(2);
    m.access(3); // evicts block 1 (LRU)
    EXPECT_FALSE(m.contains(1));
    EXPECT_TRUE(m.contains(2));
    EXPECT_TRUE(m.contains(3));
}

TEST(SetModel, FlushEmptiesAndResets)
{
    SetModel m = lruModel(4);
    for (BlockId b = 0; b < 4; ++b)
        m.access(b);
    m.flush();
    EXPECT_EQ(m.validCount(), 0u);
    EXPECT_FALSE(m.contains(0));
    // After a flush, cold fills start at way 0 again.
    m.access(42);
    EXPECT_EQ(m.blockAt(0), 42u);
}

TEST(SetModel, BlockAtChecksValidity)
{
    SetModel m = lruModel(4);
    EXPECT_THROW(m.blockAt(0), UsageError);
    EXPECT_THROW(m.blockAt(9), UsageError);
}

TEST(SetModel, EvictionOrderMatchesLruStack)
{
    SetModel m = lruModel(4);
    for (BlockId b = 1; b <= 4; ++b)
        m.access(b);
    m.access(2); // 2 becomes MRU
    const auto order = m.evictionOrder();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 3u);
    EXPECT_EQ(order[2], 4u);
    EXPECT_EQ(order[3], 2u);
}

/** Contents by way, then the policy's stateKey(). */
std::pair<std::vector<BlockId>, std::string>
snapshot(const SetModel& m)
{
    std::vector<BlockId> blocks;
    for (unsigned w = 0; w < m.ways(); ++w)
        blocks.push_back(m.isValid(w) ? m.blockAt(w) : 0);
    return {blocks, m.policy().stateKey()};
}

TEST(SetModel, EvictionOrderDoesNotPerturbState)
{
    SetModel m = lruModel(4);
    for (BlockId b = 1; b <= 4; ++b)
        m.access(b);
    const auto before = snapshot(m);
    (void)m.evictionOrder();
    EXPECT_EQ(snapshot(m), before);
}

TEST(SetModel, EvictionOrderRequiresFullSet)
{
    SetModel m = lruModel(4);
    m.access(1);
    EXPECT_THROW(m.evictionOrder(), UsageError);
}

TEST(SetModel, CopyIsDeep)
{
    SetModel m = lruModel(2);
    m.access(1);
    SetModel copy(m);
    copy.access(2);
    copy.access(3);
    EXPECT_TRUE(m.contains(1));
    EXPECT_FALSE(m.contains(3));
    EXPECT_TRUE(copy.contains(3));
}

TEST(SetModel, AssignmentIsDeep)
{
    SetModel a = lruModel(2);
    SetModel b = lruModel(2);
    a.access(1);
    b = a;
    b.access(2);
    b.access(3);
    EXPECT_TRUE(a.contains(1));
    EXPECT_FALSE(a.contains(2));
}

/**
 * The id of the state @p blocks reach from a flushed set: the renamed
 * joint state of contents and policy that the automaton explorers
 * intern (policy/state_space.hh).
 */
uint32_t
renamedState(SetStates& states, const std::vector<BlockId>& blocks)
{
    states.flush();
    for (BlockId b : blocks)
        states.access(0, b);
    return states.intern(0);
}

TEST(SetModel, StateKeyInvariantUnderBlockRenaming)
{
    const LruPolicy lru(4);
    SetStates states({&lru});
    // Same access pattern with renamed block ids.
    const uint32_t a = renamedState(states, {1, 2, 3, 1, 4});
    const uint32_t b = renamedState(states, {100, 200, 300, 100, 400});
    EXPECT_EQ(a, b);
    EXPECT_EQ(states.size(), 1u);
    // Pinning every block keys the concrete contents: the two differ.
    SetStates concrete({&lru}, {1, 2, 3, 4, 100, 200, 300, 400});
    EXPECT_NE(renamedState(concrete, {1, 2, 3, 1, 4}),
              renamedState(concrete, {100, 200, 300, 100, 400}));
}

TEST(SetModel, StateKeyDistinguishesDifferentStates)
{
    const LruPolicy lru(4);
    SetStates states({&lru});
    const uint32_t a = renamedState(states, {1, 2, 3, 4});
    const uint32_t b = renamedState(states, {1, 2, 3, 4, 1});
    EXPECT_NE(a, b); // different recency
}

TEST(SetModel, NextFillWayPrefersInvalid)
{
    SetModel m = lruModel(3);
    EXPECT_EQ(m.nextFillWay(), 0u);
    m.access(1);
    EXPECT_EQ(m.nextFillWay(), 1u);
    m.access(2);
    m.access(3);
    // Full set: policy victim decides (way 0 for fresh LRU).
    EXPECT_EQ(m.nextFillWay(), 0u);
}

TEST(SetModel, WorksForEveryRegistryPolicy)
{
    for (const auto& spec : recap::policy::baselineSpecs()) {
        if (!specSupportsWays(spec, 4))
            continue;
        SetModel m(makePolicy(spec, 4));
        for (BlockId b = 0; b < 12; ++b)
            m.access(b % 6);
        EXPECT_LE(m.validCount(), 4u) << spec;
        EXPECT_EQ(m.evictionOrder().size(), 4u) << spec;
    }
}

} // namespace
