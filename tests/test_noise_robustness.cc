/**
 * @file
 * Graceful-degradation property tests: on a hostile machine (every
 * fault source enabled) the robust pipeline must recover the correct
 * policy or report Undetermined — never return a wrong verdict — and
 * everything (fault injection, adaptive voting, verdicts, confidences,
 * experiment counts) must be bit-identical under a pinned seed.
 */

#include <gtest/gtest.h>

#include <string>

#include "recap/hw/catalog.hh"
#include "recap/hw/faults.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/measurement.hh"
#include "recap/infer/pipeline.hh"

namespace
{

using namespace recap;
using infer::InferenceOptions;
using infer::LevelOutcome;
using infer::LevelReport;

hw::MachineSpec
singleLevelSpec(const std::string& policy, unsigned ways)
{
    hw::MachineSpec spec;
    spec.name = "rig-" + policy;
    spec.description = "single-level robustness rig";
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

InferenceOptions
robustOptions()
{
    InferenceOptions opts;
    opts.robust.vote.enabled = true;
    opts.robust.vote.initialRepeats = 3;
    opts.robust.vote.escalationStep = 4;
    opts.robust.vote.maxRepeats = 31;
    opts.robust.vote.settleMargin = 3;
    opts.robust.calibrateLatency = true;
    opts.agreementRounds = 6;
    return opts;
}

/** One robust single-level inference on a faulted rig. */
LevelReport
inferRig(const std::string& policy, const hw::FaultConfig& faults,
         uint64_t seed, const InferenceOptions& opts)
{
    const auto spec = singleLevelSpec(policy, 4);
    hw::Machine machine(spec, seed, faults);
    infer::MeasurementContext ctx(machine);
    if (opts.robust.calibrateLatency)
        ctx.calibrateLatencyFence();
    infer::DiscoveredGeometry geom;
    geom.lineSize = 64;
    geom.levels.push_back({64, 64, 4});
    return infer::inferLevelAt(ctx, geom, 0,
                               uint64_t{1} << 32, opts);
}

// The headline acceptance property: with EVERY fault source enabled
// at calibrated hostile intensities, inference over LRU, FIFO and
// PLRU rigs either names the true policy or degrades to Undetermined.
// A decided-but-wrong verdict is the one forbidden outcome.
TEST(NoiseRobustness, HostileMachineNeverYieldsAWrongVerdict)
{
    const std::pair<const char*, const char*> rigs[] = {
        {"lru", "LRU"}, {"fifo", "FIFO"}, {"plru", "PLRU"}};
    const InferenceOptions opts = robustOptions();
    unsigned decided = 0;
    unsigned undetermined = 0;
    for (const double intensity : {1.0, 2.0}) {
        const auto faults = hw::FaultConfig::hostile(intensity);
        for (const auto& [spec, truth] : rigs) {
            for (uint64_t seed = 400; seed < 404; ++seed) {
                const LevelReport report =
                    inferRig(spec, faults, seed, opts);
                if (report.outcome == LevelOutcome::kDecided) {
                    ++decided;
                    EXPECT_EQ(report.verdict, truth)
                        << spec << " seed " << seed
                        << " intensity " << intensity << " (conf "
                        << report.confidence << ", agreement "
                        << report.agreement << ")";
                } else {
                    ++undetermined;
                    EXPECT_EQ(report.verdict, "undetermined");
                    EXPECT_FALSE(report.diagnostics.empty());
                }
            }
        }
    }
    // The rig is hostile but not hopeless: robust measurement must
    // still decide most of the time.
    EXPECT_GT(decided, undetermined);
}

TEST(NoiseRobustness, CleanMachineStaysDecidedWithFullConfidence)
{
    const InferenceOptions opts = robustOptions();
    const std::pair<const char*, const char*> rigs[] = {
        {"lru", "LRU"}, {"fifo", "FIFO"}, {"plru", "PLRU"}};
    for (const auto& [spec, truth] : rigs) {
        const LevelReport report =
            inferRig(spec, hw::FaultConfig{}, 1, opts);
        EXPECT_EQ(report.outcome, LevelOutcome::kDecided) << spec;
        EXPECT_EQ(report.verdict, truth);
        EXPECT_DOUBLE_EQ(report.confidence, 1.0);
        EXPECT_DOUBLE_EQ(report.agreement, 1.0);
        EXPECT_TRUE(report.diagnostics.empty());
    }
}

// Seed determinism of the whole robust stack: verdicts, confidences,
// diagnostics and experiment/load counts reproduce bit for bit.
TEST(NoiseRobustness, RobustInferenceIsSeedDeterministic)
{
    const auto faults = hw::FaultConfig::hostile(1.5);
    const InferenceOptions opts = robustOptions();
    for (const char* spec : {"lru", "plru"}) {
        const LevelReport a = inferRig(spec, faults, 777, opts);
        const LevelReport b = inferRig(spec, faults, 777, opts);
        EXPECT_EQ(a.verdict, b.verdict);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.diagnostics, b.diagnostics);
        EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
        EXPECT_DOUBLE_EQ(a.agreement, b.agreement);
        EXPECT_EQ(a.loadsUsed, b.loadsUsed);
    }
}

TEST(NoiseRobustness, DifferentSeedsMayDifferButNeverLie)
{
    const auto faults = hw::FaultConfig::hostile(2.0);
    const InferenceOptions opts = robustOptions();
    for (uint64_t seed : {11u, 12u, 13u}) {
        const LevelReport report = inferRig("lru", faults, seed, opts);
        if (report.outcome == LevelOutcome::kDecided) {
            EXPECT_EQ(report.verdict, "LRU") << "seed " << seed;
        }
    }
}

// The full pipeline front door: inferMachine with robust options on a
// hostile catalog machine reports per-level outcomes that are correct
// or explicitly undetermined.
TEST(NoiseRobustness, FullPipelineOnHostileCatalogMachine)
{
    auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 256);
    hw::Machine machine(spec, 5, hw::FaultConfig::hostile(0.5));
    InferenceOptions opts = robustOptions();
    opts.adaptive.windowSets = 32;
    const auto report = infer::inferMachine(machine, opts);
    ASSERT_EQ(report.levels.size(), 2u);
    for (const auto& lvl : report.levels) {
        if (lvl.outcome == LevelOutcome::kDecided)
            EXPECT_EQ(lvl.verdict, "PLRU") << lvl.levelName;
        else
            EXPECT_FALSE(lvl.diagnostics.empty());
    }
}

// Regression: at machine seed 6 the faults mis-probe the L2 geometry
// (no fewer sets than L1 reported), and the adaptivity scan's prober
// construction used to throw out of inferMachine. The level must
// abstain with the error in its diagnostics instead.
TEST(NoiseRobustness, MisprobedGeometryAbstainsInsteadOfThrowing)
{
    auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 1024);
    hw::Machine machine(spec, 6, hw::FaultConfig::hostile(0.25));
    InferenceOptions opts;
    opts.robust.vote.enabled = true;
    infer::MachineReport report;
    ASSERT_NO_THROW(report = infer::inferMachine(machine, opts));
    ASSERT_EQ(report.levels.size(), 2u);
    EXPECT_EQ(report.levels[0].outcome, LevelOutcome::kDecided);
    EXPECT_EQ(report.levels[0].verdict, "PLRU");
    const LevelReport& l2 = report.levels[1];
    EXPECT_EQ(l2.outcome, LevelOutcome::kUndetermined);
    EXPECT_EQ(l2.verdict, "undetermined");
    EXPECT_EQ(l2.levelName, "L2");
    EXPECT_NE(l2.diagnostics.find("inference error: SetProber"),
              std::string::npos)
        << l2.diagnostics;
}

// A genuinely adaptive level must still be reported as adaptive with
// robust gating on: the trusted-claim path (both constituents
// identified, agreement above the gate) stays open.
TEST(NoiseRobustness, RobustGateKeepsGenuineAdaptivityDecided)
{
    auto spec =
        hw::reducedSpec(hw::catalogMachine("ivybridge-i5"), 256);
    hw::Machine machine(spec);
    InferenceOptions opts = robustOptions();
    opts.adaptive.windowSets = 64;
    const auto report = infer::inferMachine(machine, opts);
    ASSERT_EQ(report.levels.size(), 3u);
    EXPECT_TRUE(report.levels[2].adaptive);
    EXPECT_NE(report.levels[2].verdict.find("adaptive"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(report.levels[2].agreement, 1.0);
}

// Cross-set quorum: a split across probed sets must surface as
// Undetermined with per-set diagnostics, and a unanimous quorum stays
// decided. On a clean machine the quorum is trivially unanimous.
TEST(NoiseRobustness, QuorumOnACleanMachineIsUnanimous)
{
    const auto spec = singleLevelSpec("lru", 4);
    hw::Machine machine(spec, 1);
    InferenceOptions opts = robustOptions();
    opts.robust.quorumSets = 3;
    opts.adaptive.windowSets = 16;
    // Run through inferMachine to exercise the quorum loop.
    const auto report = infer::inferMachine(machine, opts);
    ASSERT_EQ(report.levels.size(), 1u);
    EXPECT_EQ(report.levels[0].outcome, LevelOutcome::kDecided);
    EXPECT_EQ(report.levels[0].verdict, "LRU");
    EXPECT_NE(report.levels[0].diagnostics.find("cross-set quorum"),
              std::string::npos)
        << report.levels[0].diagnostics;
}

} // namespace
