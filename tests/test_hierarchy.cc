/**
 * @file
 * Tests for the multi-level hierarchy model: the fill-on-miss walk,
 * the inclusive and exclusive content disciplines, flushing and the
 * served-level accounting.
 */

#include <gtest/gtest.h>

#include "recap/cache/hierarchy.hh"
#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/eval/hierarchy_eval.hh"
#include "recap/hw/catalog.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap::cache;
using recap::UsageError;
namespace eval = recap::eval;
namespace hw = recap::hw;
namespace trace = recap::trace;

Hierarchy
twoLevels()
{
    Hierarchy h(100);
    h.addLevel(Cache(Geometry{64, 2, 2}, "lru", "L1"), 4);  // 256 B
    h.addLevel(Cache(Geometry{64, 8, 4}, "lru", "L2"), 12); // 2 KiB
    return h;
}

TEST(Hierarchy, FirstAccessGoesToMemory)
{
    Hierarchy h = twoLevels();
    EXPECT_EQ(h.access(0), 2u); // depth() == memory
    EXPECT_EQ(h.accessLatency(0), 4u); // now an L1 hit
}

TEST(Hierarchy, FillOnMissPopulatesAllLevels)
{
    Hierarchy h = twoLevels();
    h.access(0);
    EXPECT_EQ(h.access(0), 0u); // L1 hit
    // Evict line 0 from tiny L1 with two conflicting lines.
    const Addr l1_stride = 64 * 2;
    h.access(l1_stride);
    h.access(2 * l1_stride);
    // L1 no longer has it, but L2 does.
    EXPECT_EQ(h.access(0), 1u);
    // And the L2 hit refilled L1.
    EXPECT_EQ(h.access(0), 0u);
}

TEST(Hierarchy, LatencyMapping)
{
    Hierarchy h = twoLevels();
    EXPECT_EQ(h.latencyOf(0), 4u);
    EXPECT_EQ(h.latencyOf(1), 12u);
    EXPECT_EQ(h.latencyOf(2), 100u);
    EXPECT_THROW(h.latencyOf(3), UsageError);
    EXPECT_EQ(h.memoryLatency(), 100u);
    EXPECT_EQ(h.depth(), 2u);
}

TEST(Hierarchy, FlushAllEmptiesEveryLevel)
{
    Hierarchy h = twoLevels();
    h.access(0);
    h.flushAll();
    EXPECT_EQ(h.access(0), 2u); // memory again
}

TEST(Hierarchy, StatsPerLevel)
{
    Hierarchy h = twoLevels();
    h.access(0);
    h.access(0);
    EXPECT_EQ(h.level(0).cache.stats().accesses, 2u);
    EXPECT_EQ(h.level(0).cache.stats().hits, 1u);
    // The L1 hit never reached L2.
    EXPECT_EQ(h.level(1).cache.stats().accesses, 1u);
    h.resetStats();
    EXPECT_EQ(h.level(0).cache.stats().accesses, 0u);
}

TEST(Hierarchy, RejectsDecreasingLatencies)
{
    Hierarchy h(100);
    h.addLevel(Cache(Geometry{64, 2, 2}, "lru", "L1"), 10);
    EXPECT_THROW(
        h.addLevel(Cache(Geometry{64, 8, 4}, "lru", "L2"), 5),
        UsageError);
}

TEST(Hierarchy, AccessWithoutLevelsRejected)
{
    Hierarchy h(100);
    EXPECT_THROW(h.access(0), UsageError);
}

/** An L1 of 16 sets x 4 ways over an L2 of @p l2Sets x @p l2Ways. */
Hierarchy
smallStack(InclusionMode mode, unsigned l2Sets, unsigned l2Ways,
           const std::string& l2Policy = "lru")
{
    Hierarchy h(100, mode);
    h.addLevel(Cache(Geometry{64, 16, 4}, "plru", "L1"), 3);
    h.addLevel(Cache(Geometry{64, l2Sets, l2Ways}, l2Policy, "L2"), 12);
    return h;
}

TEST(Hierarchy, InclusiveBackInvalidatesInnerLevelsOnly)
{
    // L2 is the *smaller* level, so its evictions keep knocking lines
    // out of L1.
    Hierarchy h = smallStack(InclusionMode::kInclusive, 8, 2);
    for (const Addr a : trace::stridedScan(64 * 1024, 64, 3))
        h.access(a);
    EXPECT_GT(h.level(0).cache.stats().backInvalidations, 0u);
    EXPECT_EQ(h.level(1).cache.stats().backInvalidations, 0u)
        << "only inner levels are back-invalidated";

    // Non-inclusive mode leaves L1 alone on the same trace.
    Hierarchy ni = smallStack(InclusionMode::kNonInclusive, 8, 2);
    for (const Addr a : trace::stridedScan(64 * 1024, 64, 3))
        ni.access(a);
    EXPECT_EQ(ni.level(0).cache.stats().backInvalidations, 0u);
}

TEST(Hierarchy, ExclusiveModeMovesLinesInsteadOfCopying)
{
    Hierarchy h = smallStack(InclusionMode::kExclusive, 64, 8);
    // Six lines in one L1 set of four ways: the two oldest are
    // displaced to L2, and nothing is filled there on the way in.
    const unsigned l1Sets = h.level(0).cache.geometry().numSets;
    std::vector<Addr> conflict;
    for (unsigned i = 0; i < 6; ++i)
        conflict.push_back(static_cast<Addr>(i) * l1Sets * 64);
    for (const Addr a : conflict)
        EXPECT_EQ(h.access(a), 2u);
    unsigned inL1 = 0;
    unsigned inL2 = 0;
    for (const Addr a : conflict) {
        const bool l1 = h.level(0).cache.probe(a);
        const bool l2 = h.level(1).cache.probe(a);
        EXPECT_FALSE(l1 && l2) << "line " << a << " held twice";
        inL1 += l1;
        inL2 += l2;
    }
    EXPECT_EQ(inL1, 4u);
    EXPECT_EQ(inL2, 2u);

    // A displaced line hits L2, and the hit promotes it back to L1:
    // it leaves L2, and the next access hits L1.
    const Addr displaced =
        h.level(1).cache.probe(conflict[0]) ? conflict[0] : conflict[1];
    EXPECT_EQ(h.access(displaced), 1u);
    EXPECT_FALSE(h.level(1).cache.probe(displaced));
    EXPECT_EQ(h.access(displaced), 0u);
}

TEST(Hierarchy, FlushAllKeepsPselAndCountsWritebacks)
{
    // The catalog's adaptive machine: its L3 duels two QLRU variants.
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("ivybridge-i5"), 256);
    Hierarchy h = eval::buildHierarchy(spec, 3);
    const Cache& l3 = h.level(2).cache;
    ASSERT_TRUE(l3.isAdaptive());

    // A thrashing scan trains PSEL; stores then leave every level
    // holding dirty lines.
    for (const Addr a : trace::stridedScan(8 * 1024 * 1024, 64, 2))
        h.access(a);
    const auto refs = trace::withWrites(
        trace::zipf(4 * 1024 * 1024, 20000, 0.9, 13), 0.3, 30);
    for (const auto& r : refs)
        h.access(r.addr, r.write);
    const unsigned psel = l3.psel();
    ASSERT_NE(psel, l3.pselMidpoint()) << "PSEL never trained";

    std::vector<uint64_t> before;
    for (unsigned i = 0; i < h.depth(); ++i)
        before.push_back(h.level(i).cache.stats().writebacks);
    h.flushAll();
    EXPECT_EQ(l3.psel(), psel) << "flush must not reset PSEL";
    for (unsigned i = 0; i < h.depth(); ++i) {
        EXPECT_GT(h.level(i).cache.stats().writebacks, before[i])
            << "level " << i << " flushed no dirty line";
    }
    // Everything misses again after the flush.
    EXPECT_EQ(h.access(refs.front().addr), h.depth());
}

TEST(Hierarchy, InclusionModesNeedOneLineSize)
{
    for (const InclusionMode mode :
         {InclusionMode::kInclusive, InclusionMode::kExclusive}) {
        Hierarchy h(100, mode);
        h.addLevel(Cache(Geometry{64, 16, 4}, "lru", "L1"), 3);
        EXPECT_THROW(
            h.addLevel(Cache(Geometry{128, 64, 8}, "lru", "L2"), 12),
            UsageError)
            << inclusionModeName(mode);
    }
    // Non-inclusive mode keeps accepting mixed line sizes.
    Hierarchy h(100);
    h.addLevel(Cache(Geometry{64, 16, 4}, "lru", "L1"), 3);
    h.addLevel(Cache(Geometry{128, 64, 8}, "lru", "L2"), 12);
    EXPECT_EQ(h.depth(), 2u);
}

TEST(Hierarchy, BackInvalidationsCountedUnderPressure)
{
    // An inverted stack (big L1 over a tiny L2) in inclusive mode: L2
    // evicts constantly, so back-invalidation is the common case. The
    // L1 can only lose lines to back-invalidation or to its own
    // evictions, which the counters must account for exactly.
    recap::Rng rng(0xabcdef);
    for (unsigned round = 0; round < 4; ++round) {
        Hierarchy h(50, InclusionMode::kInclusive);
        h.addLevel(Cache(Geometry{64, 64, 8}, "plru", "L1", 100 + round),
                   3);
        h.addLevel(Cache(Geometry{64, 4, 2}, round % 2 ? "lru" : "random",
                         "L2", 100 + round + 0x10001),
                   10);
        for (unsigned i = 0; i < 3000; ++i)
            h.access(rng.nextBelow(256 * 1024), rng.nextBool(0.3));
        const LevelStats& l1 = h.level(0).cache.stats();
        const LevelStats& l2 = h.level(1).cache.stats();
        EXPECT_GT(l1.backInvalidations, 0u) << "round " << round;
        EXPECT_EQ(l2.backInvalidations, 0u) << "round " << round;
        EXPECT_LE(l1.backInvalidations, l2.evictions)
            << "round " << round;

        unsigned resident = 0;
        for (unsigned s = 0; s < 64; ++s)
            for (const bool v : h.level(0).cache.setImage(s).valid)
                resident += v;
        EXPECT_EQ(resident, l1.misses - l1.evictions -
                                l1.backInvalidations)
            << "round " << round;
    }
}

TEST(Hierarchy, ServedByAccountsForEveryAccess)
{
    for (const InclusionMode mode :
         {InclusionMode::kNonInclusive, InclusionMode::kInclusive,
          InclusionMode::kExclusive}) {
        Hierarchy h = smallStack(mode, 64, 8);
        const auto t = trace::randomUniform(256 * 1024, 10000, 43);
        std::vector<uint64_t> servedBy(h.depth() + 1, 0);
        for (const Addr a : t)
            ++servedBy[h.access(a)];
        EXPECT_EQ(servedBy[0] + servedBy[1] + servedBy[2], t.size())
            << inclusionModeName(mode);
        // Every access reaches L1; a level is only consulted after a
        // miss in the level inside it; memory serves the outer misses.
        const LevelStats& l1 = h.level(0).cache.stats();
        const LevelStats& l2 = h.level(1).cache.stats();
        EXPECT_EQ(l1.accesses, t.size()) << inclusionModeName(mode);
        EXPECT_EQ(l1.hits, servedBy[0]) << inclusionModeName(mode);
        EXPECT_EQ(l2.accesses, l1.misses) << inclusionModeName(mode);
        EXPECT_EQ(l2.hits, servedBy[1]) << inclusionModeName(mode);
        EXPECT_EQ(l2.misses, servedBy[2]) << inclusionModeName(mode);
    }
}

} // namespace
