/**
 * @file
 * Tests for the compiled multi-level hierarchy subsystem (hier::):
 * construction, compiled coverage, bit-exact lockstep against the
 * interpreted cache::Hierarchy, set-dueling adaptivity end to end,
 * and the inclusive/exclusive content disciplines.
 */

#include <gtest/gtest.h>

#include "recap/common/error.hh"
#include "recap/eval/hierarchy_eval.hh"
#include "recap/hier/hierarchy.hh"
#include "recap/hier/simulate.hh"
#include "recap/hw/catalog.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;
using cache::InclusionMode;
using recap::UsageError;

/** A small two-level machine with fully-compilable policies. */
hw::MachineSpec
smallSpec(const std::string& l1Policy = "plru",
          const std::string& l2Policy = "lru")
{
    hw::MachineSpec spec;
    spec.name = "hier-test";
    spec.description = "two-level test machine";
    hw::CacheLevelSpec l1;
    l1.name = "L1";
    l1.capacityBytes = 16 * 64 * 4; // 16 sets, 4 ways
    l1.ways = 4;
    l1.hitLatency = 3;
    l1.policySpec = l1Policy;
    hw::CacheLevelSpec l2;
    l2.name = "L2";
    l2.capacityBytes = 64 * 64 * 8; // 64 sets, 8 ways
    l2.ways = 8;
    l2.hitLatency = 12;
    l2.policySpec = l2Policy;
    spec.levels = {l1, l2};
    spec.memoryLatency = 100;
    return spec;
}

/** An ivybridge-style machine whose adaptive L3 compiles fully. */
hw::MachineSpec
adaptiveSpec()
{
    auto spec = hw::reducedSpec(
        hw::catalogMachine("ivybridge-i5"), 256);
    // The catalog L3 is 12-way (over the compile budget); at 8 ways
    // both QLRU duel constituents compile, putting the whole duel on
    // the table path.
    auto& l3 = spec.levels[2];
    l3.capacityBytes = l3.capacityBytes / l3.ways * 8;
    l3.ways = 8;
    return spec;
}

trace::RefTrace
mixedTrace(size_t count, uint64_t footprint, uint64_t seed)
{
    return trace::withWrites(
        trace::zipf(footprint, count, 0.9, seed), 0.3, seed + 17);
}

TEST(Hier, FullyCompiledOnSmallMachine)
{
    hier::Hierarchy h(smallSpec());
    EXPECT_EQ(h.depth(), 2u);
    EXPECT_TRUE(h.levelCompiled(0));
    EXPECT_TRUE(h.levelCompiled(1));
    EXPECT_TRUE(h.fullyCompiled());
    EXPECT_EQ(h.name(0), "L1");
    EXPECT_EQ(h.geometry(1).ways, 8u);
    EXPECT_EQ(h.memoryLatency(), 100u);
    EXPECT_EQ(h.latencyOf(0), 3u);
    EXPECT_EQ(h.latencyOf(2), 100u);
}

TEST(Hier, FallbackLevelsRunInterpreted)
{
    // "random" never compiles (unbounded stream position).
    hier::Hierarchy h(smallSpec("plru", "random"));
    EXPECT_TRUE(h.levelCompiled(0));
    EXPECT_FALSE(h.levelCompiled(1));
    EXPECT_FALSE(h.fullyCompiled());

    // A budget too small for any table puts every level on the
    // per-set fallback.
    hier::Options interp;
    interp.budget.maxStates = 1;
    hier::Hierarchy h2(smallSpec(), 1, interp);
    EXPECT_FALSE(h2.levelCompiled(0));
    EXPECT_FALSE(h2.levelCompiled(1));
    EXPECT_FALSE(h2.fullyCompiled());
}

TEST(Hier, AccessorRangeChecks)
{
    hier::Hierarchy h(smallSpec());
    EXPECT_THROW(h.stats(2), UsageError);
    EXPECT_THROW(h.name(2), UsageError);
    EXPECT_THROW(h.latencyOf(3), UsageError);
    EXPECT_THROW(h.psel(0), UsageError); // static level
    EXPECT_THROW(h.setImage(0, 999), UsageError);
}

TEST(Hier, RejectsMoreThan32Ways)
{
    auto spec = smallSpec();
    spec.levels[1].ways = 33;
    spec.levels[1].capacityBytes = 64 * 64 * 33;
    EXPECT_THROW(hier::Hierarchy h(spec), UsageError);
}

TEST(Hier, LockstepMatchesInterpretedOnCompiledMachine)
{
    const auto report = hier::crossCheck(
        smallSpec(), mixedTrace(20000, 64 * 1024, 5), {});
    EXPECT_TRUE(report.fullyCompiled);
    EXPECT_TRUE(report.ok) << report.detail;
    EXPECT_EQ(report.result.accesses, 20000u);
}

TEST(Hier, LockstepMatchesInterpretedOnFallbackMachine)
{
    // A stochastic fallback level must reproduce the interpreted
    // hierarchy bit for bit via the shared seed derivation.
    const auto report = hier::crossCheck(
        smallSpec("plru", "random"), mixedTrace(20000, 64 * 1024, 7),
        {});
    EXPECT_FALSE(report.fullyCompiled);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(Hier, LockstepMatchesOnAdaptiveMachineCompiledEndToEnd)
{
    const auto spec = adaptiveSpec();
    hier::Hierarchy probe(spec);
    EXPECT_TRUE(probe.fullyCompiled())
        << "adaptive 8-way QLRU duel should compile end to end";
    EXPECT_TRUE(probe.isAdaptive(2));

    hier::CrossCheckOptions opts;
    opts.seed = 11;
    const auto report = hier::crossCheck(
        spec, mixedTrace(30000, 2 * 1024 * 1024, 11), opts);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(Hier, AdaptivePselAndRolesMatchInterpreted)
{
    const auto spec = adaptiveSpec();
    hier::Hierarchy fast(spec, 3);
    auto ref = eval::buildHierarchy(spec, 3);
    const auto& l3 = ref.level(2).cache;

    EXPECT_EQ(fast.psel(2), l3.psel());
    EXPECT_EQ(fast.pselMidpoint(2), l3.pselMidpoint());
    for (unsigned s = 0; s < fast.geometry(2).numSets; ++s)
        EXPECT_EQ(fast.setRole(2, s), l3.setRole(s)) << "set " << s;
    // Static levels read as followers everywhere.
    EXPECT_EQ(fast.setRole(0, 0), cache::Cache::SetRole::kFollower);

    // Thrash the L3 so PSEL trains, then compare trajectories.
    const auto t = trace::stridedScan(8 * 1024 * 1024, 64, 2);
    for (cache::Addr a : t) {
        fast.access(a);
        ref.access(a);
        ASSERT_EQ(fast.psel(2), l3.psel());
    }
    EXPECT_NE(fast.psel(2), fast.pselMidpoint(2))
        << "trace too tame: PSEL never trained";
}

TEST(Hier, FlushPreservesPselAndCountsWritebacks)
{
    const auto spec = adaptiveSpec();
    hier::Hierarchy fast(spec, 3);
    auto ref = eval::buildHierarchy(spec, 3);

    const auto refs = mixedTrace(20000, 4 * 1024 * 1024, 13);
    for (const auto& r : refs) {
        fast.access(r.addr, r.write);
        ref.access(r.addr, r.write);
    }
    fast.flushAll();
    ref.flushAll();
    EXPECT_EQ(fast.psel(2), ref.level(2).cache.psel());
    for (unsigned l = 0; l < fast.depth(); ++l) {
        EXPECT_EQ(fast.stats(l).writebacks,
                  ref.level(l).cache.stats().writebacks)
            << "level " << l;
        EXPECT_GT(fast.stats(l).writebacks, 0u) << "level " << l;
    }
    // Post-flush: everything misses again, identically.
    const auto report = hier::crossCheck(
        spec, mixedTrace(5000, 1024 * 1024, 19),
        {.mode = InclusionMode::kNonInclusive, .seed = 3});
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(Hier, InclusiveModeBackInvalidates)
{
    // Make L2 the *smaller* level so its evictions constantly knock
    // lines out of L1.
    auto spec = smallSpec();
    spec.levels[1].capacityBytes = 8 * 64 * 2; // 8 sets, 2 ways
    spec.levels[1].ways = 2;

    hier::Options opts;
    opts.mode = InclusionMode::kInclusive;
    hier::Hierarchy h(spec, 1, opts);
    const auto t = trace::stridedScan(64 * 1024, 64, 3);
    for (cache::Addr a : t)
        h.access(a);
    EXPECT_GT(h.stats(0).backInvalidations, 0u);
    EXPECT_EQ(h.stats(1).backInvalidations, 0u)
        << "only inner levels are back-invalidated";
}

TEST(Hier, InclusiveLockstepMatchesInterpreted)
{
    auto spec = smallSpec();
    spec.levels[1].capacityBytes = 16 * 64 * 4;
    spec.levels[1].ways = 4;
    hier::CrossCheckOptions opts;
    opts.mode = InclusionMode::kInclusive;
    opts.seed = 23;
    const auto report = hier::crossCheck(
        spec, mixedTrace(25000, 128 * 1024, 23), opts);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(Hier, ExclusiveModeMovesLinesInsteadOfCopying)
{
    hier::Options opts;
    opts.mode = InclusionMode::kExclusive;
    hier::Hierarchy h(smallSpec(), 1, opts);

    // Fill one L1 set past its associativity: the displaced victims
    // must live in L2 (exactly once), not be duplicated.
    const unsigned l1Sets = h.geometry(0).numSets;
    std::vector<cache::Addr> conflict;
    for (unsigned i = 0; i < 6; ++i)
        conflict.push_back(static_cast<cache::Addr>(i) * l1Sets * 64);
    for (cache::Addr a : conflict)
        h.access(a);
    // The two oldest lines were displaced to L2; touching one hits
    // L2 (and promotes it back to L1).
    EXPECT_EQ(h.access(conflict[0]), 1u);
    // Promotion removed it from L2 and re-installed it at L1.
    EXPECT_EQ(h.access(conflict[0]), 0u);
}

TEST(Hier, ExclusiveLockstepMatchesInterpreted)
{
    hier::CrossCheckOptions opts;
    opts.mode = InclusionMode::kExclusive;
    opts.seed = 29;
    const auto report = hier::crossCheck(
        smallSpec(), mixedTrace(25000, 128 * 1024, 29), opts);
    EXPECT_TRUE(report.ok) << report.detail;

    // And with an interpreted fallback level in the stack.
    hier::CrossCheckOptions opts2;
    opts2.mode = InclusionMode::kExclusive;
    opts2.seed = 31;
    const auto report2 = hier::crossCheck(
        smallSpec("plru", "random"),
        mixedTrace(25000, 128 * 1024, 31), opts2);
    EXPECT_TRUE(report2.ok) << report2.detail;
}

TEST(Hier, InclusionModesRequireUniformLineSize)
{
    auto spec = smallSpec();
    spec.levels[1].lineSize = 128;
    spec.levels[1].capacityBytes = 64 * 128 * 8;
    hier::Options opts;
    opts.mode = InclusionMode::kExclusive;
    EXPECT_THROW(hier::Hierarchy h(spec, 1, opts), UsageError);
    EXPECT_THROW(eval::buildHierarchy(spec, 1,
                                      InclusionMode::kInclusive),
                 UsageError);
    // Non-inclusive mode keeps accepting mixed line sizes.
    hier::Hierarchy ok(spec);
    EXPECT_EQ(ok.depth(), 2u);
}

TEST(Hier, EvaluateHierarchyCompiledEqualsInterpreted)
{
    const auto spec = hw::reducedSpec(
        hw::catalogMachine("nehalem-i5"), 128);
    const auto t = trace::zipf(512 * 1024, 30000, 0.9, 41);

    // The interpreted reference: the hierarchy Machine wires, driven
    // access by access.
    cache::Hierarchy ref = eval::buildHierarchy(spec, 41);
    const hier::RunResult a = hier::runTrace(ref, t);
    const auto b = eval::evaluateHierarchy(spec, t, 41);
    EXPECT_EQ(a.servedBy, b.servedBy);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    ASSERT_EQ(ref.depth(), b.levels.size());
    for (unsigned i = 0; i < ref.depth(); ++i) {
        const cache::LevelStats& s = ref.level(i).cache.stats();
        EXPECT_EQ(ref.level(i).cache.name(), b.levelNames[i]);
        EXPECT_EQ(s.hits, b.levels[i].hits);
        EXPECT_EQ(s.misses, b.levels[i].misses);
        EXPECT_EQ(s.evictions, b.levels[i].evictions);
        EXPECT_EQ(s.writebacks, b.levels[i].writebacks);
    }
    EXPECT_DOUBLE_EQ(a.amat(), b.amat());
}

TEST(Hier, RunTraceAccountsEveryAccess)
{
    hier::Hierarchy h(smallSpec());
    const auto t = trace::randomUniform(256 * 1024, 10000, 43);
    const auto run = hier::runTrace(h, t);
    ASSERT_EQ(run.servedBy.size(), 3u);
    EXPECT_EQ(run.servedBy[0] + run.servedBy[1] + run.servedBy[2],
              10000u);
    EXPECT_EQ(run.accesses, 10000u);
    EXPECT_GE(run.amat(), 3.0);
    EXPECT_LE(run.amat(), 100.0);
}

} // namespace
