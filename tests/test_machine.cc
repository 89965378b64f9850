/**
 * @file
 * Tests for the simulated machine under test: catalog integrity,
 * latency observables, performance counters, and the noise model.
 */

#include <gtest/gtest.h>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"

namespace
{

using namespace recap;
using namespace recap::hw;

TEST(Catalog, HasTheEightMachines)
{
    const auto names = catalogNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names.front(), "atom-d525");
    EXPECT_EQ(names.back(), "ivybridge-i5");
}

TEST(Catalog, EverySpecValidates)
{
    for (const auto& spec : intelCatalog()) {
        EXPECT_NO_THROW(spec.validate()) << spec.name;
        // And a machine can actually be built from it.
        EXPECT_NO_THROW(Machine m(spec)) << spec.name;
    }
}

TEST(Catalog, LookupByName)
{
    const auto spec = catalogMachine("sandybridge-i5");
    EXPECT_EQ(spec.levels.size(), 3u);
    EXPECT_EQ(spec.levels[2].ways, 12u);
    EXPECT_THROW(catalogMachine("pentium-pro"), UsageError);
}

TEST(Catalog, OnlyIvyBridgeIsAdaptive)
{
    for (const auto& spec : intelCatalog()) {
        for (size_t i = 0; i < spec.levels.size(); ++i) {
            const bool expect_adaptive =
                spec.name == "ivybridge-i5" &&
                i == spec.levels.size() - 1;
            EXPECT_EQ(spec.levels[i].isAdaptive(), expect_adaptive)
                << spec.name << " level " << i;
        }
    }
}

TEST(Catalog, ReducedSpecShrinksSetsOnly)
{
    const auto full = catalogMachine("nehalem-i5");
    const auto reduced = reducedSpec(full, 512);
    ASSERT_EQ(reduced.levels.size(), full.levels.size());
    for (size_t i = 0; i < full.levels.size(); ++i) {
        EXPECT_EQ(reduced.levels[i].ways, full.levels[i].ways);
        EXPECT_LE(reduced.levels[i].geometry().numSets, 512u);
        EXPECT_EQ(reduced.levels[i].policySpec,
                  full.levels[i].policySpec);
    }
    EXPECT_THROW(reducedSpec(full, 3), UsageError);
}

TEST(Machine, LatencyClassification)
{
    Machine m(catalogMachine("core2-e6300"));
    // Cold access: memory latency.
    const uint64_t t0 = m.timedAccess(0);
    EXPECT_EQ(m.classifyLatency(t0), m.depth());
    // Hot access: L1 latency.
    const uint64_t t1 = m.timedAccess(0);
    EXPECT_EQ(m.classifyLatency(t1), 0u);
}

TEST(Machine, CountersAdvance)
{
    Machine m(catalogMachine("core2-e6300"));
    m.access(0);
    m.access(0);
    const auto counts = m.counters();
    ASSERT_EQ(counts.levels.size(), 2u);
    EXPECT_EQ(counts.levels[0].accesses, 2u);
    EXPECT_EQ(counts.levels[0].hits, 1u);
    EXPECT_EQ(counts.levels[1].accesses, 1u);
    EXPECT_EQ(counts.memoryAccesses, 1u);
    EXPECT_EQ(m.loadsIssued(), 2u);
}

TEST(Machine, WbinvdFlushesEverything)
{
    Machine m(catalogMachine("core2-e6300"));
    m.access(0);
    m.wbinvd();
    const uint64_t t = m.timedAccess(0);
    EXPECT_EQ(m.classifyLatency(t), m.depth());
}

TEST(Machine, GroundTruthAccessors)
{
    Machine m(catalogMachine("ivybridge-i5"));
    EXPECT_EQ(m.groundTruthPolicy(0)->name(), "PLRU");
    EXPECT_FALSE(m.groundTruthAdaptive(0));
    EXPECT_TRUE(m.groundTruthAdaptive(2));
    EXPECT_THROW(m.groundTruthPolicy(5), UsageError);
}

TEST(Machine, DeterministicAcrossInstances)
{
    const auto spec = catalogMachine("westmere-i5");
    Machine a(spec, 5);
    Machine b(spec, 5);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const cache::Addr addr = 64 * rng.nextBelow(4096);
        ASSERT_EQ(a.timedAccess(addr), b.timedAccess(addr));
    }
}

TEST(Machine, LatencyJitterOnlyInflates)
{
    NoiseConfig noise;
    noise.latencyJitterProbability = 1.0;
    noise.latencyJitterCycles = 10;
    Machine m(catalogMachine("core2-e6300"), 1, noise);
    m.access(0);
    // A hot L1 line with jitter: latency >= clean L1 latency.
    for (int i = 0; i < 50; ++i) {
        const uint64_t t = m.timedAccess(0);
        EXPECT_GE(t, 3u);
        EXPECT_LE(t, 3u + 10u);
    }
}

TEST(Machine, DisturbanceCausesExtraAccesses)
{
    NoiseConfig noise;
    noise.disturbProbability = 1.0;
    Machine m(catalogMachine("core2-e6300"), 1, noise);
    m.access(0);
    // Every issue() adds one disturbing access.
    EXPECT_EQ(m.loadsIssued(), 2u);
    // Disturbances conflict in the same L1 set: with enough of them
    // the victim line eventually gets evicted from L1.
    for (int i = 0; i < 64; ++i)
        m.access(0);
    const auto counts = m.counters();
    EXPECT_GT(counts.levels[0].misses, 1u);
}

TEST(Machine, DisturbanceIsSeedDeterministic)
{
    NoiseConfig noise;
    noise.disturbProbability = 0.3;
    const auto spec = catalogMachine("core2-e6300");
    Machine a(spec, 9, noise);
    Machine b(spec, 9, noise);
    for (int i = 0; i < 500; ++i)
        ASSERT_EQ(a.timedAccess(64 * (i % 128)),
                  b.timedAccess(64 * (i % 128)));
}

TEST(Machine, LevelCacheInspection)
{
    Machine m(catalogMachine("ivybridge-i5"));
    EXPECT_TRUE(m.levelAdaptive(2));
    EXPECT_EQ(m.levelGeometry(0).ways, 8u);
    EXPECT_THROW(m.levelGeometry(3), UsageError);
}

TEST(Machine, WideLevelsAreAccepted)
{
    // A 48-way LRU level: the machine has no way limit of its own.
    // A conflict set of exactly 48 lines stays resident; one more
    // line evicts the least recently used of them.
    MachineSpec spec;
    spec.name = "wide";
    spec.description = "one 48-way level";
    CacheLevelSpec l1;
    l1.name = "L1";
    l1.ways = 48;
    l1.capacityBytes = 16 * 64 * 48; // 16 sets
    l1.hitLatency = 4;
    l1.policySpec = "lru";
    spec.levels = {l1};
    spec.memoryLatency = 100;

    Machine m(spec);
    EXPECT_EQ(m.levelGeometry(0).ways, 48u);
    const cache::Addr stride = 16 * 64;
    for (unsigned i = 0; i < 48; ++i)
        m.access(i * stride);
    for (unsigned i = 0; i < 48; ++i)
        EXPECT_EQ(m.classifyLatency(m.timedAccess(i * stride)), 0u)
            << "line " << i;
    m.access(48 * stride);
    EXPECT_EQ(m.classifyLatency(m.timedAccess(0)), 1u);
}

} // namespace
