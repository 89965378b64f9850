/**
 * @file
 * Tests for measurement-based permutation-policy inference: the
 * paper's core algorithm must recover LRU/FIFO/PLRU exactly from
 * hit/miss observations alone, and must refuse every policy outside
 * the (probe-able) permutation class.
 */

#include <gtest/gtest.h>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/naming.hh"
#include "recap/policy/factory.hh"
#include "recap/infer/permutation_infer.hh"
#include "recap/infer/set_prober.hh"
#include "recap/policy/set_model.hh"

namespace
{

using namespace recap;
using infer::DiscoveredGeometry;
using infer::MeasurementContext;
using infer::PermutationInference;
using infer::PermutationInferenceConfig;
using infer::SetProber;
using infer::SetProberConfig;

/** A single-level machine with the given hidden policy. */
hw::MachineSpec
singleLevelSpec(const std::string& policy, unsigned ways,
                unsigned sets = 64)
{
    hw::MachineSpec spec;
    spec.name = "probe-rig";
    spec.description = "single-level test machine";
    hw::CacheLevelSpec lvl;
    lvl.name = "L1";
    lvl.capacityBytes = uint64_t{64} * sets * ways;
    lvl.ways = ways;
    lvl.hitLatency = 4;
    lvl.policySpec = policy;
    spec.levels = {lvl};
    spec.memoryLatency = 100;
    return spec;
}

DiscoveredGeometry
geometryOf(const hw::MachineSpec& spec)
{
    DiscoveredGeometry geom;
    geom.lineSize = 64;
    for (const auto& lvl : spec.levels) {
        const auto g = lvl.geometry();
        geom.levels.push_back({64, g.numSets, g.ways});
    }
    return geom;
}

infer::PermutationInferenceResult
infer_policy(const std::string& policy, unsigned ways,
             unsigned voteRepeats = 1, double disturb = 0.0,
             const PermutationInferenceConfig& cfg = {})
{
    auto spec = singleLevelSpec(policy, ways);
    hw::NoiseConfig noise;
    noise.disturbProbability = disturb;
    hw::Machine machine(spec, 1, noise);
    MeasurementContext ctx(machine);
    SetProberConfig pc;
    pc.voteRepeats = voteRepeats;
    SetProber prober(ctx, geometryOf(spec), 0, pc);
    PermutationInference inference(prober, cfg);
    return inference.run();
}

TEST(PermutationInfer, RecoversLru)
{
    for (unsigned k : {2u, 4u, 8u}) {
        const auto result = infer_policy("lru", k);
        ASSERT_TRUE(result.isPermutation) << "k=" << k << ": "
                                          << result.failureReason;
        EXPECT_EQ(infer::canonicalPermutationName(*result.policy),
                  "LRU");
        EXPECT_GT(result.loadsUsed, 0u);
        EXPECT_GT(result.experimentsUsed, 0u);
    }
}

TEST(PermutationInfer, RecoversFifo)
{
    for (unsigned k : {2u, 4u, 8u}) {
        const auto result = infer_policy("fifo", k);
        ASSERT_TRUE(result.isPermutation) << "k=" << k << ": "
                                          << result.failureReason;
        EXPECT_EQ(infer::canonicalPermutationName(*result.policy),
                  "FIFO");
    }
}

TEST(PermutationInfer, RecoversTreePlru)
{
    for (unsigned k : {4u, 8u, 16u}) {
        const auto result = infer_policy("plru", k);
        ASSERT_TRUE(result.isPermutation) << "k=" << k << ": "
                                          << result.failureReason;
        EXPECT_EQ(infer::canonicalPermutationName(*result.policy),
                  "PLRU");
    }
}

TEST(PermutationInfer, RecoveredModelPredictsTheMachine)
{
    const auto result = infer_policy("plru", 8);
    ASSERT_TRUE(result.isPermutation);
    // The model must reproduce tree-PLRU block-level behaviour from a
    // flush, including cold fills.
    policy::SetModel hyp(result.policy->clone());
    policy::SetModel ref(policy::makePolicy("plru", 8));
    Rng rng(17);
    for (int i = 0; i < 4000; ++i) {
        const auto b = rng.nextBelow(11);
        ASSERT_EQ(hyp.access(b), ref.access(b)) << "step " << i;
    }
}

TEST(PermutationInfer, RefusesNru)
{
    const auto result = infer_policy("nru", 8);
    EXPECT_FALSE(result.isPermutation);
    EXPECT_FALSE(result.failureReason.empty());
}

TEST(PermutationInfer, RefusesQlru)
{
    const auto result = infer_policy("qlru:H1,M1,R0,U2", 8);
    EXPECT_FALSE(result.isPermutation);
}

TEST(PermutationInfer, RefusesSrrip)
{
    const auto result = infer_policy("srrip", 8);
    EXPECT_FALSE(result.isPermutation);
}

TEST(PermutationInfer, RefusesRandom)
{
    const auto result = infer_policy("random", 4);
    EXPECT_FALSE(result.isPermutation);
}

TEST(PermutationInfer, WorksAtOuterLevelThroughFiltering)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6750"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geometryOf(spec), 1);
    PermutationInference inference(prober);
    const auto result = inference.run();
    ASSERT_TRUE(result.isPermutation) << result.failureReason;
    EXPECT_EQ(infer::canonicalPermutationName(*result.policy), "PLRU");
    EXPECT_EQ(result.policy->ways(), 16u);
}

TEST(PermutationInfer, SurvivesNoiseWithVoting)
{
    const auto result = infer_policy("lru", 4, 9, 0.005);
    ASSERT_TRUE(result.isPermutation) << result.failureReason;
    EXPECT_EQ(infer::canonicalPermutationName(*result.policy), "LRU");
}

TEST(PermutationInfer, AblationSettingsKeepVerdicts)
{
    // Linear-scan survival and a disabled spot check probe along a
    // different path, but must reach the same verdict and refute for
    // the same reason.
    PermutationInferenceConfig ablation;
    ablation.binarySearchSurvival = false;
    ablation.earlySpotCheck = false;
    for (const char* policy : {"fifo", "nru", "lru"}) {
        const auto fast = infer_policy(policy, 8);
        const auto slow = infer_policy(policy, 8, 1, 0.0, ablation);
        ASSERT_EQ(fast.isPermutation, slow.isPermutation) << policy;
        if (fast.isPermutation) {
            EXPECT_EQ(infer::canonicalPermutationName(*fast.policy),
                      infer::canonicalPermutationName(*slow.policy))
                << policy;
        } else {
            EXPECT_EQ(fast.failureReason, slow.failureReason) << policy;
        }
        EXPECT_NE(slow.loadsUsed, fast.loadsUsed) << policy;
    }
}

TEST(PermutationInfer, CostEqualsTheContextDelta)
{
    // Every experiment the inference runs is visible in the
    // measurement context's counters: nothing bypasses it.
    const auto spec = singleLevelSpec("lru", 8);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geometryOf(spec), 0);
    const auto result = PermutationInference(prober).run();
    ASSERT_TRUE(result.isPermutation) << result.failureReason;
    EXPECT_EQ(result.experimentsUsed, ctx.experimentsRun());
    EXPECT_EQ(result.loadsUsed, ctx.loadsIssued());
}

TEST(PermutationInfer, FailedValidationStopsAtFirstMismatch)
{
    // QLRU@12 passes the spot check and every hit-permutation
    // derivation, and is refuted by the first validation round; no
    // later round may be paid for. Loads are deterministic.
    const auto result = infer_policy("qlru:H1,M1,R0,U2", 12);
    EXPECT_FALSE(result.isPermutation);
    EXPECT_EQ(result.failureReason, "cross-validation mismatch in round 0");
    EXPECT_EQ(result.loadsUsed, 22775u);
}

TEST(PermutationInfer, MeasurementCostGrowsPolynomially)
{
    // The probing cost must stay far below exhaustive-automaton
    // territory: quadratic-ish growth in the number of experiments.
    uint64_t cost4 = infer_policy("lru", 4).experimentsUsed;
    uint64_t cost8 = infer_policy("lru", 8).experimentsUsed;
    uint64_t cost16 = infer_policy("lru", 16).experimentsUsed;
    EXPECT_LT(cost8, cost4 * 8);
    EXPECT_LT(cost16, cost8 * 8);
    EXPECT_GT(cost8, cost4);
    EXPECT_GT(cost16, cost8);
}

} // namespace
