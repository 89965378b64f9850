/**
 * @file
 * Direct tests of policy::StateIndex, the one open-addressing index
 * the automaton explorers number their states with: ids in discovery
 * order, the limit, clear() and re-interning, growth past the first
 * slots, and variable-width (width 0) records.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "recap/policy/state_space.hh"

namespace recap::policy
{
namespace
{

/** A width-2 record that no two values of @p i share. */
std::vector<uint32_t>
pairOf(uint32_t i)
{
    return {i * 2654435761u, i ^ 0x5bd1e995u};
}

std::vector<uint32_t>
recordOf(const StateIndex& index, uint32_t id)
{
    const auto record = index.record(id);
    return {record.begin(), record.end()};
}

TEST(StateIndex, IdsComeOutInDiscoveryOrder)
{
    StateIndex index(2);
    for (uint32_t i = 0; i < 100; ++i) {
        const auto [id, fresh] = index.intern(pairOf(i));
        EXPECT_EQ(id, i);
        EXPECT_TRUE(fresh);
        // A repeat of an earlier record keeps its id.
        const auto [again, freshAgain] = index.intern(pairOf(i / 2));
        EXPECT_EQ(again, i / 2);
        EXPECT_FALSE(freshAgain);
    }
    EXPECT_EQ(index.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(recordOf(index, i), pairOf(i));
}

TEST(StateIndex, LimitRefusesNewRecordsWithoutInserting)
{
    StateIndex index(2);
    for (uint32_t i = 0; i < 3; ++i)
        index.intern(pairOf(i), 3);
    const auto [id, fresh] = index.intern(pairOf(3), 3);
    EXPECT_EQ(id, StateIndex::kFull);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(index.size(), 3u);
    // A known record is still found at the limit.
    EXPECT_EQ(index.intern(pairOf(1), 3).first, 1u);
    // The refused record was not stored: a wider limit numbers it
    // next, as new.
    const auto [later, freshLater] = index.intern(pairOf(3), 4);
    EXPECT_EQ(later, 3u);
    EXPECT_TRUE(freshLater);
}

TEST(StateIndex, ClearThenReinterningReproducesIds)
{
    StateIndex index(2);
    for (uint32_t i = 0; i < 5000; ++i)
        index.intern(pairOf(i));
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    // Another order after the clear: ids follow the new discovery
    // order, and none of the old records is remembered.
    for (uint32_t i = 0; i < 300; ++i) {
        const auto [id, fresh] = index.intern(pairOf(299 - i));
        EXPECT_EQ(id, i);
        EXPECT_TRUE(fresh);
    }
    index.clear();
    for (uint32_t i = 0; i < 5000; ++i) {
        const auto [id, fresh] = index.intern(pairOf(i));
        EXPECT_EQ(id, i);
        EXPECT_TRUE(fresh);
    }
    for (uint32_t i = 0; i < 5000; ++i)
        EXPECT_EQ(index.intern(pairOf(i)).first, i);
}

TEST(StateIndex, GrowthKeepsEveryIdAndRecord)
{
    // The index starts with 1,024 slots and grows at three quarters
    // full, so 100,000 records pass through seven doublings.
    constexpr uint32_t kCount = 100000;
    StateIndex index(2);
    for (uint32_t i = 0; i < kCount; ++i)
        ASSERT_EQ(index.intern(pairOf(i)).first, i);
    EXPECT_EQ(index.size(), kCount);
    for (uint32_t i = 0; i < kCount; ++i) {
        const auto [id, fresh] = index.intern(pairOf(i));
        ASSERT_EQ(id, i);
        ASSERT_FALSE(fresh);
        ASSERT_EQ(recordOf(index, i), pairOf(i));
    }
}

TEST(StateIndex, WidthZeroTellsPrefixesApart)
{
    // Records that are prefixes of one another, the empty one
    // included, are distinct records with their own lengths.
    StateIndex index(0);
    std::vector<std::vector<uint32_t>> records;
    for (uint32_t length = 0; length <= 40; ++length) {
        std::vector<uint32_t> record;
        for (uint32_t i = 0; i < length; ++i)
            record.push_back(7 * i + 1);
        records.push_back(record);
    }
    // Zeros, where the empty record and its extensions would read
    // alike without the lengths.
    records.push_back({0});
    records.push_back({0, 0});
    records.push_back({0, 0, 0});
    for (uint32_t id = 0; id < records.size(); ++id) {
        const auto [got, fresh] = index.intern(records[id]);
        EXPECT_EQ(got, id);
        EXPECT_TRUE(fresh);
    }
    for (uint32_t id = 0; id < records.size(); ++id) {
        EXPECT_EQ(index.intern(records[id]).first, id);
        EXPECT_EQ(recordOf(index, id), records[id]);
    }
    EXPECT_EQ(index.size(), records.size());
}

} // namespace
} // namespace recap::policy
