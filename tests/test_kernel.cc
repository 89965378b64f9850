/**
 * @file
 * Differential tests of the batch simulation kernel: the compiled
 * structure-of-arrays loop must reproduce the interpreted Cache
 * model bit-exactly — statistics, final tag contents, and final
 * policy state keys — for every catalog policy, including the ones
 * that fall back to interpretation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "recap/cache/cache.hh"
#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/eval/kernel.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace recap::eval
{
namespace
{

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

/** The interpreted reference: a cache::Cache access loop. */
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
 * simulateTrace (which dispatches to the kernel) vs an explicit
 * interpreted Cache loop, for every catalog policy — compiled ones
 * and fallbacks alike.
 */
TEST(Kernel, MatchesInterpretedCacheStats)
{
    const auto t = trace::zipf(1 << 16, 20000, 0.9, 7);
    for (const auto& spec : policy::baselineSpecs()) {
        if (!policy::specSupportsWays(spec, kGeom.ways))
            continue;
        expectStatsEqual(simulateTrace(kGeom, spec, t, 1),
                         cacheLoop(kGeom, spec, t, 1), spec);
    }
}

/**
 * Final machine state, not just counters: per-set tags, valid bits,
 * and the policy state key after the full trace must be identical
 * between the compiled kernel and the Cache model.
 */
TEST(Kernel, FinalSetImagesMatchCache)
{
    const auto t = trace::zipf(1 << 16, 20000, 0.9, 11);
    for (const auto& spec : policy::baselineSpecs()) {
        if (!policy::specSupportsWays(spec, kGeom.ways))
            continue;
        const auto table =
            policy::compiledTableFor(spec, kGeom.ways, {});
        if (!table)
            continue; // fallback path has no separate state to diff
        std::vector<SetImage> kernelImage;
        simulateCompiled(kGeom, *table, t, &kernelImage);
        ASSERT_EQ(kernelImage.size(), kGeom.numSets);

        cache::Cache reference(kGeom, spec, "ref", 1);
        for (const cache::Addr addr : t)
            reference.access(addr);
        for (unsigned s = 0; s < kGeom.numSets; ++s) {
            const auto expected = reference.setImage(s);
            EXPECT_EQ(kernelImage[s].tags, expected.tags)
                << spec << " set " << s;
            EXPECT_EQ(kernelImage[s].valid, expected.valid)
                << spec << " set " << s;
            EXPECT_EQ(kernelImage[s].policyKey, expected.policyKey)
                << spec << " set " << s;
        }
    }
}

/** Catalog specs that support @p ways. */
std::vector<std::string>
catalogFor(unsigned ways)
{
    std::vector<std::string> specs;
    for (const auto& spec : policy::catalogSpecs())
        if (policy::specSupportsWays(spec, ways))
            specs.push_back(spec);
    return specs;
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
        const auto specs = catalogFor(ways);
        ASSERT_FALSE(specs.empty());

        MultiPolicyOptions opts;
        for (const unsigned threads : {1u, 4u}) {
            opts.numThreads = threads;
            const auto batch =
                simulatePoliciesBatch(geom, specs, t, opts);
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
 * One batch mixing compiled and fallback specs: a tiny compile
 * budget forces the factorial-state policies onto the interpreted
 * path while tree/bit policies stay compiled, and a stochastic
 * fallback spec appears twice, each occurrence on its own lane seed.
 */
TEST(MultiKernel, MixedCompiledAndFallbackLanes)
{
    const std::vector<std::string> specs = {
        "lru", "plru", "fifo", "bitplru", "nru", "lip", "random",
        "random"};
    const auto t = trace::zipf(32 * 1024, 15000, 0.9, 3);

    MultiPolicyOptions opts;
    opts.budget.maxStates = 300; // plru/bitplru/nru only
    for (std::size_t i = 0; i < specs.size(); ++i)
        opts.laneSeeds.push_back(100 + i);

    unsigned compiled = 0;
    for (const auto& spec : specs)
        compiled +=
            policy::compiledTableFor(spec, kGeom.ways, opts.budget) ? 1
                                                                    : 0;
    EXPECT_EQ(compiled, 3u); // the batch really is mixed

    for (const unsigned threads : {1u, 4u}) {
        opts.numThreads = threads;
        const auto batch = simulatePoliciesBatch(kGeom, specs, t, opts);
        ASSERT_EQ(batch.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectStatsEqual(
                batch[i],
                cacheLoop(kGeom, specs[i], t, opts.laneSeeds[i]),
                specs[i] + " lane " + std::to_string(i) + ", " +
                    std::to_string(threads) + " threads");
    }
}

/** Duplicate specs (the candidate-grid shape the benches cycle) come
 *  back identical to their first occurrence. */
TEST(MultiKernel, DuplicateLanesMatchFirstOccurrence)
{
    const std::vector<std::string> specs = {
        "lru", "plru", "lru", "srrip", "plru", "lru"};
    const auto t = trace::zipf(32 * 1024, 15000, 0.9, 5);

    MultiPolicyOptions opts;
    opts.numThreads = 1;
    const auto batch = simulatePoliciesBatch(kGeom, specs, t, opts);
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
    EXPECT_THROW(simulatePoliciesBatch(cache::Geometry{64, 64, 6},
                                       {std::string("plru")}, t),
                 UsageError);
    // laneSeeds must be sized like specs.
    MultiPolicyOptions badSeeds;
    badSeeds.laneSeeds = {1, 2, 3};
    EXPECT_THROW(simulatePoliciesBatch(kGeom, {std::string("lru")}, t,
                                       badSeeds),
                 UsageError);
}

/**
 * Batch evaluation: one compile shared across traces, results equal
 * to per-trace calls, for any thread count (including the shared
 * process pool), and for fallback policies with derived seeds.
 */
TEST(Kernel, BatchMatchesPerTraceCalls)
{
    std::vector<trace::Trace> traces;
    for (uint64_t seed = 1; seed <= 5; ++seed)
        traces.push_back(trace::zipf(1 << 15, 8000, 0.9, seed));
    std::vector<const trace::Trace*> pointers;
    for (const auto& t : traces)
        pointers.push_back(&t);

    for (const std::string spec : {"plru", "qlru:H1,M1,R0,U2",
                                   "random"}) {
        KernelOptions opts;
        opts.seed = 42;
        for (const unsigned threads : {1u, 0u, 3u}) {
            opts.numThreads = threads;
            const auto batch =
                simulateTracesBatch(kGeom, spec, pointers, opts);
            ASSERT_EQ(batch.size(), traces.size());
            for (std::size_t i = 0; i < traces.size(); ++i) {
                KernelOptions single = opts;
                single.seed = deriveTaskSeed(opts.seed, i);
                expectStatsEqual(
                    batch[i],
                    simulateTraceKernel(kGeom, spec, traces[i],
                                        single),
                    spec + " trace " + std::to_string(i));
            }
        }
    }
}

/** Different geometries exercise the address-slicing arithmetic. */
TEST(Kernel, GeometrySweepMatchesCache)
{
    const auto t = trace::zipf(1 << 16, 12000, 0.9, 5);
    for (const auto& geom :
         {cache::Geometry{16, 64, 4}, cache::Geometry{128, 32, 2},
          cache::Geometry{32, 64, 8}}) {
        for (const std::string spec : {"lru", "plru", "nru"}) {
            if (!policy::specSupportsWays(spec, geom.ways))
                continue;
            expectStatsEqual(simulateTrace(geom, spec, t, 1),
                             cacheLoop(geom, spec, t, 1),
                             spec + " @ " + geom.describe());
        }
    }
}

/** Repeated kernel runs are deterministic (no hidden state). */
TEST(Kernel, Deterministic)
{
    const auto t = trace::zipf(1 << 15, 10000, 0.9, 13);
    const auto first = simulateTrace(kGeom, "srrip", t, 1);
    const auto second = simulateTrace(kGeom, "srrip", t, 1);
    expectStatsEqual(first, second, "srrip repeat");
}

} // namespace
} // namespace recap::eval
