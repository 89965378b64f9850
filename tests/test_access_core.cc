/**
 * @file
 * Tests for the one access core of cache::Cache.
 *
 * Twin caches, one driven by access() and one by accessDetailed()
 * (each also through its WithPc form), take the same seeded mix of
 * loads, stores, probes, invalidations, back-invalidations,
 * extract/insertLine pairs and flushes, and must agree on their
 * statistics and every set after each batch. Independently of the
 * twin, every fill must land in the set's lowest invalid way whenever
 * one exists, however that way was freed: a miss skips the free-way
 * scan only while the set is known to be full.
 */

#include <gtest/gtest.h>

#include <string>

#include "recap/cache/cache.hh"
#include "recap/common/rng.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;
using cache::Addr;
using cache::Cache;

constexpr unsigned kSets = 8;
constexpr unsigned kBatches = 100;
constexpr unsigned kOpsPerBatch = 50;

/** Lowest invalid way of the set holding @p addr; ways when full. */
unsigned
lowestFreeWay(const Cache& c, Addr addr)
{
    const cache::Geometry& g = c.geometry();
    const unsigned set = g.setIndex(addr);
    const Cache::SetImage image = c.setImage(set);
    for (unsigned w = 0; w < g.ways; ++w)
        if (!image.valid[w])
            return w;
    return g.ways;
}

void
expectSameState(const Cache& a, const Cache& b, const std::string& where)
{
    EXPECT_EQ(a.stats(), b.stats()) << where;
    for (unsigned s = 0; s < a.geometry().numSets; ++s) {
        ASSERT_EQ(a.setImage(s), b.setImage(s))
            << where << " set " << s;
    }
    if (a.isAdaptive()) {
        EXPECT_EQ(a.psel(), b.psel()) << where;
    }
}

/** Drives @p plain and @p detailed through one seeded operation mix. */
void
runTwins(Cache& plain, Cache& detailed, uint64_t seed,
         const std::string& where)
{
    const cache::Geometry& g = plain.geometry();
    Rng rng(seed);
    // Three times the capacity: sets stay full and misses evict.
    const uint64_t footprint = 3ull * g.numSets * g.ways;
    auto pick = [&] {
        return rng.nextBelow(footprint) * g.lineSize +
               rng.nextBelow(g.lineSize);
    };

    for (unsigned batch = 0; batch < kBatches; ++batch) {
        const std::string at =
            where + " batch " + std::to_string(batch);
        for (unsigned op = 0; op < kOpsPerBatch; ++op) {
            const Addr addr = pick();
            const bool write = rng.nextBelow(4) == 0;
            const uint64_t kind = rng.nextBelow(100);
            if (kind < 64) {
                const bool present = detailed.probe(addr);
                const unsigned free = lowestFreeWay(detailed, addr);
                bool hit = false;
                cache::AccessResult r;
                if (rng.nextBelow(2) == 0) {
                    const uint64_t pc =
                        0x400000 + 4 * rng.nextBelow(16);
                    hit = plain.accessWithPc(addr, pc, write);
                    r = detailed.accessDetailedWithPc(addr, pc, write);
                } else {
                    hit = plain.access(addr, write);
                    r = detailed.accessDetailed(addr, write);
                }
                ASSERT_EQ(hit, r.hit) << at;
                ASSERT_EQ(r.hit, present) << at;
                ASSERT_EQ(r.setIndex, g.setIndex(addr)) << at;
                if (!r.hit) {
                    ASSERT_EQ(r.evictedBlock.has_value(), free == g.ways)
                        << at << ": a miss must fill a free way first";
                    if (free < g.ways) {
                        ASSERT_EQ(r.way, free) << at;
                    }
                    ASSERT_TRUE(r.evictedBlock || !r.writeback) << at;
                }
            } else if (kind < 70) {
                const bool present = detailed.probe(addr);
                const bool touch = rng.nextBelow(2) == 0;
                ASSERT_EQ(plain.probeAccess(addr, write, touch), present)
                    << at;
                ASSERT_EQ(detailed.probeAccess(addr, write, touch),
                          present)
                    << at;
            } else if (kind < 78) {
                plain.invalidate(addr);
                detailed.invalidate(addr);
                ASSERT_FALSE(detailed.probe(addr)) << at;
            } else if (kind < 86) {
                plain.backInvalidate(addr);
                detailed.backInvalidate(addr);
                ASSERT_FALSE(detailed.probe(addr)) << at;
            } else if (kind < 99) {
                // Exclusive-style move: pull the line out, then install
                // it again, dirty bit and all.
                const Cache::Extracted ea = plain.extract(addr);
                const Cache::Extracted eb = detailed.extract(addr);
                ASSERT_EQ(ea.present, eb.present) << at;
                ASSERT_EQ(ea.dirty, eb.dirty) << at;
                const unsigned free = lowestFreeWay(detailed, addr);
                const bool dirty = eb.dirty || write;
                const auto da = plain.insertLine(addr, dirty);
                const auto db = detailed.insertLine(addr, dirty);
                ASSERT_EQ(da.has_value(), db.has_value()) << at;
                ASSERT_EQ(db.has_value(), free == g.ways)
                    << at << ": insertLine must fill a free way first";
                if (db) {
                    ASSERT_EQ(da->addr, db->addr) << at;
                    ASSERT_EQ(da->dirty, db->dirty) << at;
                }
                ASSERT_TRUE(detailed.probe(addr)) << at;
                ASSERT_EQ(detailed.isDirty(addr), dirty) << at;
            } else {
                plain.flush();
                detailed.flush();
            }
        }
        expectSameState(plain, detailed, at);
    }
}

TEST(AccessCore, PlainAndDetailedTwinsAgreeForEveryCatalogPolicy)
{
    for (const std::string& spec : policy::catalogSpecs()) {
        for (const unsigned ways : {2u, 4u, 8u, 16u}) {
            if (!policy::specSupportsWays(spec, ways))
                continue;
            const cache::Geometry g{64, kSets, ways};
            const uint64_t seed = 0xACCE55 + ways;
            Cache plain(g, spec, "plain", seed);
            Cache detailed(g, spec, "detailed", seed);
            runTwins(plain, detailed, seed,
                     spec + "@" + std::to_string(ways));
        }
    }
}

TEST(AccessCore, PlainAndDetailedTwinsAgreeWhenSetDueling)
{
    const cache::DuelingConfig duel{2, 4};
    for (const unsigned ways : {4u, 16u}) {
        const cache::Geometry g{64, kSets, ways};
        Cache plain(g, "lru", "bip", duel, "plain", 7);
        Cache detailed(g, "lru", "bip", duel, "detailed", 7);
        runTwins(plain, detailed, 0xD0E1 + ways,
                 "dueling lru/bip@" + std::to_string(ways));
    }
}

} // namespace
