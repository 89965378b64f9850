/**
 * @file
 * Tests for Belady's OPT baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/eval/opt.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;
using cache::Geometry;
using eval::simulateOpt;
using trace::Trace;

TEST(Opt, HandComputedSingleSet)
{
    // One set, two ways. Classic example where OPT keeps the block
    // with the nearer next use.
    Geometry g{64, 1, 2};
    auto addr = [](uint64_t block) { return block * 64; };
    //            a  b  c  a  b  c: OPT misses a,b,c then hits a,b
    //            and misses c again? Work it out:
    // a: miss (fill), b: miss (fill). c: miss, evict the block whose
    // next use is farther: next(a)=3, next(b)=4 -> evict b.
    // a: hit. b: miss, evict: next(a)=never? a not used again; evict
    // a. c: hit.
    Trace t{addr(1), addr(2), addr(3), addr(1), addr(2), addr(3)};
    const auto stats = simulateOpt(g, t);
    EXPECT_EQ(stats.accesses, 6u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.evictions, 2u);
}

TEST(Opt, PerfectOnFittingWorkingSet)
{
    Geometry g{64, 64, 8};
    const auto t = trace::sequentialScan(16 * 1024, 5);
    const auto stats = simulateOpt(g, t);
    EXPECT_EQ(stats.misses, 16u * 1024 / 64);
}

TEST(Opt, ThrashingScanStillBeatsLru)
{
    Geometry g{64, 64, 8};
    const auto t = trace::sequentialScan(64 * 1024, 6);
    const auto opt = simulateOpt(g, t);
    const auto lru = eval::simulateTrace(g, "lru", t);
    // LRU misses everything; OPT keeps half the cache useful.
    EXPECT_EQ(lru.misses, lru.accesses);
    EXPECT_LT(opt.missRatio(), 0.8);
}

TEST(Opt, LowerBoundsEveryPolicyOnEveryWorkload)
{
    Geometry g{64, 32, 4}; // 8 KiB, small enough to stress
    trace::SuiteConfig cfg;
    cfg.cacheBytes = 8 * 1024;
    cfg.accessesPerWorkload = 30000;
    const auto suite = trace::specLikeSuite(cfg);
    for (const auto& workload : suite) {
        const auto opt = simulateOpt(g, workload.trace);
        for (const auto& spec : policy::baselineSpecs()) {
            if (!policy::specSupportsWays(spec, g.ways))
                continue;
            const auto stats =
                eval::simulateTrace(g, spec, workload.trace);
            EXPECT_LE(opt.misses, stats.misses)
                << workload.name << " / " << spec;
        }
    }
}

TEST(Opt, SetsAreIndependent)
{
    // Two sets with interleaved conflict streams: OPT must handle
    // each set's future separately.
    Geometry g{64, 2, 1};
    auto addr = [](unsigned set, uint64_t tag) {
        return (tag * 2 + set) * 64;
    };
    Trace t{addr(0, 1), addr(1, 1), addr(0, 2),
            addr(1, 1), addr(0, 2), addr(0, 1)};
    const auto stats = simulateOpt(g, t);
    // Set 1: tag1, tag1 -> 1 miss + 1 hit. Set 0 (1 way):
    // 1,2,2,1 -> misses 1,2, hit 2, miss 1.
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 2u);
}

/**
 * Belady by brute force: on a miss in a full set, scan the rest of
 * the trace for every resident block's next use and evict the
 * farthest. Blocks never used again tie, and any choice among them
 * gives the same counts.
 */
cache::LevelStats
bruteForceOpt(const Geometry& g, const Trace& t)
{
    std::vector<std::vector<uint64_t>> sets(g.numSets);
    cache::LevelStats stats;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const uint64_t block = g.blockNumber(t[i]);
        std::vector<uint64_t>& set = sets[g.setIndex(t[i])];
        ++stats.accesses;
        if (std::find(set.begin(), set.end(), block) != set.end()) {
            ++stats.hits;
            continue;
        }
        ++stats.misses;
        if (set.size() == g.ways) {
            std::size_t victim = 0;
            std::size_t farthest = 0;
            for (std::size_t k = 0; k < set.size(); ++k) {
                std::size_t j = i + 1;
                while (j < t.size() && g.blockNumber(t[j]) != set[k])
                    ++j;
                if (j >= farthest) {
                    farthest = j;
                    victim = k;
                }
            }
            set.erase(set.begin() + static_cast<std::ptrdiff_t>(victim));
            ++stats.evictions;
        }
        set.push_back(block);
    }
    return stats;
}

/**
 * Random accesses over twice the capacity, a tenth of them to blocks
 * used only once. @p sparse puts those far above the rest, so the
 * trace's blocks span more numbers than it has accesses.
 */
Trace
randomTrace(const Geometry& g, std::size_t n, bool sparse, uint64_t seed)
{
    Rng rng(seed);
    const uint64_t footprint = 2ull * g.numSets * g.ways;
    const uint64_t onceBase = sparse ? uint64_t{1} << 40 : footprint;
    Trace t;
    uint64_t once = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const uint64_t block = rng.nextBelow(10) == 0
                                   ? onceBase + once++
                                   : rng.nextBelow(footprint);
        t.push_back(block * g.lineSize + rng.nextBelow(g.lineSize));
    }
    return t;
}

TEST(Opt, MatchesBruteForceBelady)
{
    // sets x ways
    const std::vector<Geometry> geoms = {
        {64, 1, 4}, {64, 4, 2}, {64, 64, 8}, {64, 16, 16}};
    for (const Geometry& g : geoms) {
        for (const bool sparse : {false, true}) {
            for (uint64_t seed = 1; seed <= 3; ++seed) {
                const Trace t = randomTrace(g, 3000, sparse, seed);
                const auto opt = simulateOpt(g, t);
                const auto ref = bruteForceOpt(g, t);
                const std::string where =
                    std::to_string(g.numSets) + "x" +
                    std::to_string(g.ways) + (sparse ? " sparse" : "") +
                    " seed " + std::to_string(seed);
                EXPECT_EQ(opt.accesses, t.size()) << where;
                EXPECT_EQ(opt.hits, ref.hits) << where;
                EXPECT_EQ(opt.misses, ref.misses) << where;
                EXPECT_EQ(opt.evictions, ref.evictions) << where;
                EXPECT_GT(opt.evictions, 0u) << where;
            }
        }
    }
}

TEST(Opt, EmptyTrace)
{
    Geometry g{64, 4, 2};
    const auto stats = simulateOpt(g, {});
    EXPECT_EQ(stats.accesses, 0u);
    EXPECT_EQ(stats.missRatio(), 0.0);
}

} // namespace
