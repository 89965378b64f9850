/**
 * @file
 * Tests for the whole-hierarchy evaluation (AMAT).
 */

#include <gtest/gtest.h>

#include "recap/common/error.hh"
#include "recap/eval/hierarchy_eval.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;
using eval::evaluateHierarchy;
using eval::withLevelPolicy;

TEST(HierarchyEval, AmatBoundedByLatencies)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("nehalem-i5"), 256);
    const auto t = trace::zipf(512 * 1024, 40000, 0.9, 3);
    const auto result = evaluateHierarchy(spec, t);
    EXPECT_EQ(result.accesses, t.size());
    EXPECT_GE(result.amat(),
              static_cast<double>(spec.levels[0].hitLatency));
    EXPECT_LE(result.amat(),
              static_cast<double>(spec.memoryLatency));
}

TEST(HierarchyEval, ServedByAccountsForEveryAccess)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("core2-e6300"), 256);
    const auto t = trace::randomUniform(256 * 1024, 30000, 5);
    const auto result = evaluateHierarchy(spec, t);
    ASSERT_EQ(result.servedBy.size(), spec.levels.size() + 1);
    uint64_t total = 0;
    for (uint64_t n : result.servedBy)
        total += n;
    EXPECT_EQ(total, t.size());
    ASSERT_EQ(result.levels.size(), spec.levels.size());
    EXPECT_EQ(result.levels[0].accesses, t.size());
}

TEST(HierarchyEval, HotLoopIsAllL1)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("core2-e6300"), 256);
    // A loop fitting comfortably in (the reduced) L1, repeated many
    // times.
    const auto t = trace::sequentialScan(
        spec.levels[0].capacityBytes / 2, 400);
    const auto result = evaluateHierarchy(spec, t);
    // All but the cold pass hits L1: AMAT close to the L1 latency.
    EXPECT_LT(result.amat(), spec.levels[0].hitLatency + 1.0);
}

TEST(HierarchyEval, DeterministicUnderSeed)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("ivybridge-i5"), 256);
    const auto t = trace::phaseMix(64 * 1024, 2, 2, 9);
    const auto a = evaluateHierarchy(spec, t, 5);
    const auto b = evaluateHierarchy(spec, t, 5);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

TEST(HierarchyEval, RefTraceVariantCountsWrites)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("core2-e6300"), 256);
    const auto t = trace::randomUniform(64 * 1024, 20000, 4);
    const auto refs = trace::withWrites(t, 0.3, 11);
    const auto result = evaluateHierarchy(spec, refs);
    EXPECT_EQ(result.accesses, refs.size());
    EXPECT_GT(result.levels[0].writes, 0u);
    EXPECT_GT(result.levels[0].writebacks, 0u);
}

TEST(HierarchyEval, PolicySwapChangesBehaviour)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("sandybridge-i5"),
                                256);
    // A thrashing L3 workload: swapping the L3 policy to a
    // scan-resistant one must lower the AMAT.
    const uint64_t l3_bytes = spec.levels[2].capacityBytes;
    const auto t = trace::sequentialScan(2 * l3_bytes, 6);

    const auto baseline = evaluateHierarchy(spec, t);
    const auto swapped = evaluateHierarchy(
        withLevelPolicy(spec, 2, "qlru:H1,M3,R0,U2"), t);
    EXPECT_LT(swapped.amat(), baseline.amat());
}

TEST(HierarchyEval, WithLevelPolicyValidates)
{
    const auto spec = hw::catalogMachine("ivybridge-i5");
    EXPECT_THROW(withLevelPolicy(spec, 9, "lru"), UsageError);
    const auto modified = withLevelPolicy(spec, 2, "lru");
    EXPECT_FALSE(modified.levels[2].isAdaptive());
    EXPECT_EQ(modified.levels[2].policySpec, "lru");
}

// Pinned regression values: exact cycle totals and per-level served
// counts for one classic and one modern/adaptive catalog machine, and
// the classic one again in inclusive and exclusive mode. These freeze
// the whole simulation contract — policy automata, seed derivation,
// fill/evict order, the inclusion walks — of cache::Hierarchy. A
// legitimate behaviour change must update them consciously.
TEST(HierarchyEval, PinnedNehalemAmatAndServedBy)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("nehalem-i5"), 256);
    const auto t = trace::zipf(512 * 1024, 40000, 0.9, 3);
    const auto result = evaluateHierarchy(spec, t);
    EXPECT_EQ(result.totalCycles, 2732358u);
    ASSERT_EQ(result.servedBy.size(), 4u);
    EXPECT_EQ(result.servedBy[0], 3976u);
    EXPECT_EQ(result.servedBy[1], 7812u);
    EXPECT_EQ(result.servedBy[2], 19649u);
    EXPECT_EQ(result.servedBy[3], 8563u);
    EXPECT_DOUBLE_EQ(result.amat(), 2732358.0 / 40000.0);
}

TEST(HierarchyEval, PinnedSkylakeDrripAmatAndServedBy)
{
    // The modern-catalog DRRIP machine: an adaptive set-dueling LLC
    // with stores in the trace, so the pin also covers PSEL training
    // and writeback accounting.
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("skylake-drrip"), 256);
    const auto refs = trace::withWrites(
        trace::zipf(512 * 1024, 40000, 0.9, 3), 0.25, 9);
    const auto result = evaluateHierarchy(spec, refs);
    EXPECT_EQ(result.totalCycles, 2842244u);
    ASSERT_EQ(result.servedBy.size(), 4u);
    EXPECT_EQ(result.servedBy[0], 3976u);
    EXPECT_EQ(result.servedBy[1], 7565u);
    EXPECT_EQ(result.servedBy[2], 20473u);
    EXPECT_EQ(result.servedBy[3], 7986u);
    EXPECT_DOUBLE_EQ(result.amat(), 2842244.0 / 40000.0);
}

/** One pinned level: the LevelStats counters a mode moves. */
struct LevelPin
{
    uint64_t hits;
    uint64_t misses;
    uint64_t evictions;
    uint64_t writebacks;
    uint64_t backInvalidations;
};

/**
 * Runs the reduced Nehalem of PinnedNehalemAmatAndServedBy in
 * @p mode over the same trace with a quarter stores, and checks the
 * served levels, the cycle total and every level's counters.
 */
void
expectNehalemPins(cache::InclusionMode mode, uint64_t totalCycles,
                  const std::vector<uint64_t>& servedBy,
                  const std::vector<LevelPin>& levels)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("nehalem-i5"), 256);
    const auto refs = trace::withWrites(
        trace::zipf(512 * 1024, 40000, 0.9, 3), 0.25, 9);
    eval::HierarchyOptions opts;
    opts.inclusion = mode;
    const auto result = evaluateHierarchy(spec, refs, opts);
    const std::string what = cache::inclusionModeName(mode);
    EXPECT_EQ(result.accesses, refs.size()) << what;
    EXPECT_EQ(result.totalCycles, totalCycles) << what;
    EXPECT_EQ(result.servedBy, servedBy) << what;
    ASSERT_EQ(result.levels.size(), levels.size()) << what;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const cache::LevelStats& got = result.levels[i];
        const LevelPin& pin = levels[i];
        const std::string where = what + " level " + std::to_string(i);
        EXPECT_EQ(got.accesses, got.hits + got.misses) << where;
        EXPECT_EQ(got.hits, pin.hits) << where;
        EXPECT_EQ(got.misses, pin.misses) << where;
        EXPECT_EQ(got.evictions, pin.evictions) << where;
        EXPECT_EQ(got.writebacks, pin.writebacks) << where;
        EXPECT_EQ(got.backInvalidations, pin.backInvalidations)
            << where;
    }
}

TEST(HierarchyEval, PinnedNehalemInclusive)
{
    expectNehalemPins(cache::InclusionMode::kInclusive, 2732965u,
                      {3976u, 7803u, 19656u, 8565u},
                      {{3976u, 36024u, 35995u, 9523u, 13u},
                       {7803u, 28221u, 28063u, 7796u, 30u},
                       {19656u, 8565u, 4469u, 1809u, 0u}});
}

TEST(HierarchyEval, PinnedNehalemExclusive)
{
    expectNehalemPins(cache::InclusionMode::kExclusive, 2657726u,
                      {3976u, 8318u, 19478u, 8228u},
                      {{3976u, 36024u, 36008u, 25260u, 0u},
                       {8318u, 27706u, 27564u, 17130u, 0u},
                       {19478u, 8228u, 4097u, 1516u, 0u}});
}

TEST(HierarchyEval, MatchesMachineCounters)
{
    // buildHierarchy must wire exactly like Machine: the same trace
    // produces the same per-level statistics.
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("westmere-i5"), 256);
    const auto t = trace::zipf(256 * 1024, 20000, 0.8, 6);

    const auto result = evaluateHierarchy(spec, t, 1);
    hw::Machine machine(spec, 1);
    for (cache::Addr a : t)
        machine.access(a);
    const auto counters = machine.counters();
    ASSERT_EQ(counters.levels.size(), result.levels.size());
    for (size_t i = 0; i < result.levels.size(); ++i) {
        EXPECT_EQ(result.levels[i].misses, counters.levels[i].misses)
            << "level " << i;
        EXPECT_EQ(result.levels[i].hits, counters.levels[i].hits)
            << "level " << i;
    }
}

} // namespace
