/**
 * @file
 * Tests for the sweep utilities and the multi-policy batch
 * (simulatePoliciesBatch) underneath the miss-ratio figures.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "recap/cache/cache.hh"
#include "recap/common/error.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/eval/sweep.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;
using eval::associativitySweep;
using eval::policyWorkloadSweep;
using eval::sizeSweep;

std::vector<trace::Workload>
tinySuite()
{
    return {
        {"scan", "fitting scan", trace::sequentialScan(8 * 1024, 3)},
        {"thrash", "oversized scan",
         trace::sequentialScan(64 * 1024, 3)},
    };
}

TEST(Sweep, PolicyWorkloadGridShape)
{
    const cache::Geometry geom{64, 64, 8};
    const auto result = policyWorkloadSweep(
        geom, {"lru", "fifo", "plru"}, tinySuite());
    EXPECT_EQ(result.rowLabels.size(), 4u); // 3 policies + OPT
    EXPECT_EQ(result.columnLabels.size(), 2u);
    EXPECT_EQ(result.cells.size(), 8u);
}

TEST(Sweep, UnsupportedPoliciesSkipped)
{
    const cache::Geometry geom{64, 64, 6}; // 6-way: no tree-PLRU
    const auto result = policyWorkloadSweep(
        geom, {"lru", "plru"}, tinySuite(), false);
    ASSERT_EQ(result.rowLabels.size(), 1u);
    EXPECT_EQ(result.rowLabels[0], "lru");
}

TEST(Sweep, OptRowLowerBoundsEveryCell)
{
    const cache::Geometry geom{64, 32, 4};
    const auto result = policyWorkloadSweep(
        geom, {"lru", "fifo", "random"}, tinySuite());
    for (const auto& w : result.columnLabels) {
        const auto& opt = result.at("OPT", w);
        for (const auto& row : result.rowLabels)
            EXPECT_LE(opt.misses, result.at(row, w).misses)
                << row << "/" << w;
    }
}

TEST(Sweep, AtThrowsForMissingCell)
{
    const cache::Geometry geom{64, 64, 8};
    const auto result =
        policyWorkloadSweep(geom, {"lru"}, tinySuite(), false);
    EXPECT_THROW(result.at("fifo", "scan"), UsageError);
    EXPECT_NO_THROW(result.at("lru", "thrash"));
}

TEST(Sweep, SizeSweepMonotoneForLru)
{
    const auto workload = trace::zipf(128 * 1024, 40000, 0.9, 3);
    const auto result = sizeSweep({"lru"}, workload, 8 * 1024,
                                  256 * 1024, 8, 64, false);
    ASSERT_EQ(result.columnLabels.size(), 6u);
    // LRU miss ratio never increases with capacity (inclusion
    // property of the stack algorithm).
    double previous = 1.1;
    for (const auto& col : result.columnLabels) {
        const double ratio = result.at("lru", col).missRatio;
        EXPECT_LE(ratio, previous + 1e-12) << col;
        previous = ratio;
    }
}

TEST(Sweep, SizeSweepRejectsBadRange)
{
    const auto workload = trace::sequentialScan(4096, 1);
    EXPECT_THROW(sizeSweep({"lru"}, workload, 1024, 512, 4),
                 UsageError);
}

TEST(Sweep, AssociativitySweepShape)
{
    const auto workload = trace::zipf(64 * 1024, 20000, 0.9, 4);
    const auto result = associativitySweep(
        {"lru", "plru", "nru"}, workload, 32 * 1024, 2, 16);
    EXPECT_EQ(result.columnLabels.size(), 4u); // 2,4,8,16
    EXPECT_EQ(std::count(result.rowLabels.begin(),
                         result.rowLabels.end(), "plru"),
              1);
    // Every policy cell simulated the same number of accesses.
    for (const auto& cell : result.cells)
        EXPECT_EQ(cell.accesses, workload.size());
}

const cache::Geometry kGeom = cache::Geometry{64, 64, 8};

void
expectStatsEqual(const cache::LevelStats& a,
                 const cache::LevelStats& b, const std::string& what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
}

/** The reference: one cache::Cache access loop. */
cache::LevelStats
cacheLoop(const cache::Geometry& geom, const std::string& spec,
          const trace::Trace& t, uint64_t seed)
{
    cache::Cache reference(geom, spec, "ref", seed);
    for (const cache::Addr addr : t)
        reference.access(addr);
    return reference.stats();
}

/**
 * simulatePoliciesBatch vs a per-spec cache loop over the whole
 * catalog at 2, 4 and 8 ways; results are positional and equal for
 * 1 and 4 threads.
 */
TEST(MultiKernel, CatalogDifferentialAcrossWays)
{
    const auto t = trace::zipf(32 * 1024, 20000, 0.9, 7);
    for (const unsigned ways : {2u, 4u, 8u}) {
        const cache::Geometry geom{64, 64, ways};
        std::vector<std::string> specs;
        for (const auto& spec : policy::catalogSpecs())
            if (policy::specSupportsWays(spec, ways))
                specs.push_back(spec);
        ASSERT_FALSE(specs.empty());

        eval::MultiPolicyOptions opts;
        for (const unsigned threads : {1u, 4u}) {
            opts.numThreads = threads;
            const auto batch =
                eval::simulatePoliciesBatch(geom, specs, t, opts);
            ASSERT_EQ(batch.size(), specs.size());
            for (std::size_t i = 0; i < specs.size(); ++i)
                expectStatsEqual(
                    batch[i], cacheLoop(geom, specs[i], t, opts.seed),
                    specs[i] + " @" + std::to_string(ways) + "w, " +
                        std::to_string(threads) + " threads");
        }
    }
}

/**
 * Lane seeds reach the stochastic specs: each lane equals a cache
 * loop on its own seed, so the two "random" lanes differ while the
 * deterministic lanes ignore their seeds.
 */
TEST(MultiKernel, LaneSeedsRouteToStochasticSpecs)
{
    const std::vector<std::string> specs = {"lru", "random", "plru",
                                            "random"};
    // Four times the cache, so the random victims matter.
    const auto t = trace::zipf(128 * 1024, 15000, 0.9, 3);

    eval::MultiPolicyOptions opts;
    for (std::size_t i = 0; i < specs.size(); ++i)
        opts.laneSeeds.push_back(100 + i);

    for (const unsigned threads : {1u, 4u}) {
        opts.numThreads = threads;
        const auto batch =
            eval::simulatePoliciesBatch(kGeom, specs, t, opts);
        ASSERT_EQ(batch.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectStatsEqual(
                batch[i],
                cacheLoop(kGeom, specs[i], t, opts.laneSeeds[i]),
                specs[i] + " lane " + std::to_string(i) + ", " +
                    std::to_string(threads) + " threads");
        EXPECT_NE(batch[1].misses, batch[3].misses)
            << "the random lanes ran on one seed";
        expectStatsEqual(batch[0], cacheLoop(kGeom, "lru", t, 1),
                         "lru ignores its lane seed");
    }
}

/** Duplicate specs (the candidate-grid shape the benches cycle) come
 *  back identical to their first occurrence. */
TEST(MultiKernel, DuplicateLanesMatchFirstOccurrence)
{
    const std::vector<std::string> specs = {
        "lru", "plru", "lru", "srrip", "plru", "lru"};
    const auto t = trace::zipf(32 * 1024, 15000, 0.9, 5);

    eval::MultiPolicyOptions opts;
    opts.numThreads = 1;
    const auto batch = eval::simulatePoliciesBatch(kGeom, specs, t, opts);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        expectStatsEqual(batch[i],
                         cacheLoop(kGeom, specs[i], t, opts.seed),
                         specs[i]);
        for (std::size_t j = i + 1; j < specs.size(); ++j)
            if (specs[i] == specs[j])
                expectStatsEqual(batch[j], batch[i],
                                 specs[i] + " duplicate");
    }
}

/** Unsupported-associativity specs and wrong-size laneSeeds are
 *  rejected up front, not silently mis-simulated. */
TEST(MultiKernel, RejectsMismatchedGeometry)
{
    const auto t = trace::sequentialScan(16 * 1024, 2, 64);
    // tree-PLRU needs power-of-two ways.
    EXPECT_THROW(eval::simulatePoliciesBatch(cache::Geometry{64, 64, 6},
                                             {std::string("plru")}, t),
                 UsageError);
    // laneSeeds must be sized like specs.
    eval::MultiPolicyOptions badSeeds;
    badSeeds.laneSeeds = {1, 2, 3};
    EXPECT_THROW(eval::simulatePoliciesBatch(
                     kGeom, {std::string("lru")}, t, badSeeds),
                 UsageError);
}

} // namespace
