/**
 * @file
 * Permutation inference set up the way the query server sets it up: the
 * prober takes the spec's assumed geometry (no geometry probe) and votes
 * on every reading of a noisy machine. The verdict must survive the
 * noise, and every voted repeat must be charged to the measurement
 * context.
 */

#include <gtest/gtest.h>

#include "recap/hw/catalog.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/naming.hh"
#include "recap/infer/permutation_infer.hh"
#include "recap/infer/set_prober.hh"

namespace
{

using namespace recap;
using infer::MeasurementContext;
using infer::PermutationInference;
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

TEST(QueryInfer, NoisyPermutationInferenceStillRecoversLru)
{
    const auto spec = singleLevelSpec("lru", 4);
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.005;
    hw::Machine machine(spec, /*seed=*/1, noise);
    MeasurementContext ctx(machine);
    SetProberConfig pc;
    pc.voteRepeats = 9;
    SetProber prober(ctx, infer::assumedGeometry(spec), 0, pc);
    const auto result = PermutationInference(prober).run();
    ASSERT_TRUE(result.isPermutation) << result.failureReason;
    EXPECT_EQ(infer::canonicalPermutationName(*result.policy), "LRU");
    EXPECT_EQ(result.experimentsUsed, ctx.experimentsRun());
    EXPECT_EQ(result.loadsUsed, ctx.loadsIssued());
}

} // namespace
