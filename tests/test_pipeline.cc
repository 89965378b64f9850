/**
 * @file
 * Tests for the end-to-end inference pipeline on selected catalog
 * machines (the full sweep is the Table-2 bench; these are the
 * representative cases, kept small for test runtime).
 */

#include <gtest/gtest.h>

#include "recap/infer/set_prober.hh"
#include "recap/policy/factory.hh"
#include "recap/hw/catalog.hh"
#include "recap/infer/pipeline.hh"

namespace
{

using namespace recap;
using infer::inferMachine;
using infer::InferenceOptions;

infer::MachineReport
run_on(const std::string& name, unsigned maxSets = 512)
{
    auto spec = hw::reducedSpec(hw::catalogMachine(name), maxSets);
    hw::Machine machine(spec);
    InferenceOptions opts;
    opts.adaptive.windowSets = 64;
    return inferMachine(machine, opts);
}

TEST(Pipeline, Core2TwoLevelPlru)
{
    const auto report = run_on("core2-e6300");
    ASSERT_EQ(report.levels.size(), 2u);
    EXPECT_EQ(report.levels[0].verdict, "PLRU");
    EXPECT_EQ(report.levels[1].verdict, "PLRU");
    EXPECT_TRUE(report.levels[0].isPermutation);
    EXPECT_TRUE(report.levels[1].isPermutation);
    EXPECT_DOUBLE_EQ(report.levels[0].agreement, 1.0);
    EXPECT_DOUBLE_EQ(report.levels[1].agreement, 1.0);
    EXPECT_EQ(report.machineName, "core2-e6300");
    EXPECT_GT(report.totalLoads, 0u);
}

TEST(Pipeline, AtomLruPlusPlru)
{
    const auto report = run_on("atom-d525");
    ASSERT_EQ(report.levels.size(), 2u);
    EXPECT_EQ(report.levels[0].verdict, "LRU");
    EXPECT_EQ(report.levels[1].verdict, "PLRU");
}

TEST(Pipeline, WolfdaleNruFallsBackToCandidateSearch)
{
    const auto report = run_on("core2-e8400", 256);
    ASSERT_EQ(report.levels.size(), 2u);
    EXPECT_FALSE(report.levels[1].isPermutation);
    EXPECT_TRUE(report.levels[1].verdict.rfind("NRU", 0) == 0)
        << report.levels[1].verdict;
    EXPECT_FALSE(report.levels[1].survivors.empty());
    EXPECT_DOUBLE_EQ(report.levels[1].agreement, 1.0);
}

TEST(Pipeline, SandyBridgeQlruL3)
{
    const auto report = run_on("sandybridge-i5", 256);
    ASSERT_EQ(report.levels.size(), 3u);
    EXPECT_TRUE(report.levels[2].verdict.rfind("QLRU(H1,M1,R0,U2)", 0)
                == 0)
        << report.levels[2].verdict;
    EXPECT_FALSE(report.levels[2].adaptive);
}

TEST(Pipeline, SandyBridgeTable2LoadsPinned)
{
    // The Table 2 configuration of sandybridge-i5. Loads are
    // deterministic, so the machine's measurement cost is pinned
    // exactly: a probing change that spends more loads for the same
    // verdicts fails here.
    const auto report = run_on("sandybridge-i5", 1024);
    ASSERT_EQ(report.levels.size(), 3u);
    EXPECT_TRUE(report.levels[2].verdict.rfind("QLRU(H1,M1,R0,U2)", 0)
                == 0)
        << report.levels[2].verdict;
    EXPECT_EQ(report.totalLoads, 1'793'463u);
}

TEST(Pipeline, IvyBridgeAdaptiveL3)
{
    const auto report = run_on("ivybridge-i5", 256);
    ASSERT_EQ(report.levels.size(), 3u);
    const auto& l3 = report.levels[2];
    EXPECT_TRUE(l3.adaptive);
    EXPECT_EQ(l3.adaptiveSelected, "qlru:H1,M3,R0,U2");
    EXPECT_EQ(l3.adaptiveUnselected, "qlru:H1,M1,R0,U2");
    EXPECT_NE(l3.verdict.find("adaptive"), std::string::npos);
    EXPECT_DOUBLE_EQ(l3.agreement, 1.0);
}

TEST(Pipeline, GeometryDiscoveredMatchesSpec)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("nehalem-i5"), 256);
    hw::Machine machine(spec);
    InferenceOptions opts;
    opts.adaptive.windowSets = 32;
    const auto report = inferMachine(machine, opts);
    ASSERT_EQ(report.geometry.levels.size(), 3u);
    for (size_t i = 0; i < spec.levels.size(); ++i) {
        const auto truth = spec.levels[i].geometry();
        EXPECT_EQ(report.geometry.levels[i].ways, truth.ways);
        EXPECT_EQ(report.geometry.levels[i].numSets, truth.numSets);
    }
}

TEST(Pipeline, DisablingAdaptiveScanStillNamesLeaderPolicy)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("ivybridge-i5"), 256);
    hw::Machine machine(spec);
    InferenceOptions opts;
    opts.detectAdaptivity = false;
    const auto report = inferMachine(machine, opts);
    const auto& l3 = report.levels[2];
    EXPECT_FALSE(l3.adaptive);
    // The default probed set (set 0) is a leader of the M1 variant,
    // whose behaviour the candidate search then reports.
    EXPECT_NE(l3.verdict.find("QLRU"), std::string::npos)
        << l3.verdict;
}

hw::MachineSpec
singleLevelSpec(const std::string& policy, unsigned ways)
{
    hw::MachineSpec spec;
    spec.name = "rig";
    spec.description = "single-level rig";
    hw::CacheLevelSpec lvl;
    lvl.name = "L1";
    lvl.capacityBytes = uint64_t{64} * 64 * ways;
    lvl.ways = ways;
    lvl.hitLatency = 4;
    lvl.policySpec = policy;
    spec.levels = {lvl};
    spec.memoryLatency = 100;
    return spec;
}

TEST(Pipeline, OutOfFamilyPolicyEscalatesToLearner)
{
    // bip with throttle 4 is outside the candidate family (the
    // family's bip uses throttle 32): instead of a bare
    // "unidentified", the pipeline must learn the automaton.
    hw::Machine machine(singleLevelSpec("bip:4", 2));
    InferenceOptions opts;
    opts.adaptive.windowSets = 16;
    const auto report = inferMachine(machine, opts);
    ASSERT_EQ(report.levels.size(), 1u);
    const auto& lvl = report.levels[0];
    EXPECT_TRUE(lvl.learned);
    EXPECT_EQ(lvl.outcome, infer::LevelOutcome::kDecided);
    EXPECT_NE(lvl.verdict.find("learned automaton"),
              std::string::npos)
        << lvl.verdict;
    EXPECT_EQ(lvl.learnedStates, 28u);
    EXPECT_EQ(lvl.learnerQueries, 11894u);
    EXPECT_EQ(lvl.loadsUsed, 39681u);
    EXPECT_GT(lvl.learnedEqConfidence, 0.99);
    EXPECT_DOUBLE_EQ(lvl.agreement, 1.0);
}

TEST(Pipeline, LearningEscalationCanBeDisabled)
{
    hw::Machine machine(singleLevelSpec("bip:4", 2));
    InferenceOptions opts;
    opts.adaptive.windowSets = 16;
    opts.learning.enabled = false;
    const auto report = inferMachine(machine, opts);
    ASSERT_EQ(report.levels.size(), 1u);
    const auto& lvl = report.levels[0];
    EXPECT_FALSE(lvl.learned);
    EXPECT_EQ(lvl.verdict, "unidentified (no candidate matched)");
}

TEST(Pipeline, AgreementMeasuredAgainstWrongModelIsLow)
{
    // Sanity-check measureAgreement itself: a FIFO model predicting
    // a PLRU machine must disagree noticeably.
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 256);
    hw::Machine machine(spec);
    infer::MeasurementContext ctx(machine);
    infer::DiscoveredGeometry geom;
    geom.lineSize = 64;
    for (const auto& lvl : spec.levels) {
        const auto g = lvl.geometry();
        geom.levels.push_back({64, g.numSets, g.ways});
    }
    infer::SetProber prober(ctx, geom, 0);
    const auto wrong = policy::makePolicy("fifo", 8);
    const double agreement =
        infer::measureAgreement(prober, *wrong, 6, 42);
    EXPECT_LT(agreement, 0.99);
    EXPECT_GT(agreement, 0.3); // still correlated: both are caches
}

} // namespace
