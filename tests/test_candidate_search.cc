/**
 * @file
 * Tests for the candidate-elimination search: every policy in the
 * registry must be recovered (up to behavioural equivalence) from
 * hit/miss observations of a hidden instance.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "recap/common/error.hh"
#include "recap/infer/candidate_search.hh"
#include "recap/infer/equivalence.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/set_prober.hh"
#include "recap/hw/machine.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;
using infer::CandidateSearch;
using infer::CandidateSearchConfig;
using infer::CandidateSearchResult;
using infer::DiscoveredGeometry;
using infer::MeasurementContext;
using infer::SetProber;
using infer::SetProberConfig;

hw::MachineSpec
singleLevelSpec(const std::string& policy, unsigned ways)
{
    hw::MachineSpec spec;
    spec.name = "probe-rig";
    spec.description = "single-level test machine";
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

CandidateSearchResult
search_for(const std::string& policy, unsigned ways,
           const CandidateSearchConfig& cfg = {})
{
    auto spec = singleLevelSpec(policy, ways);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    DiscoveredGeometry geom;
    geom.lineSize = 64;
    geom.levels.push_back({64, 64, ways});
    SetProber prober(ctx, geom, 0);
    CandidateSearch search(prober,
                           infer::defaultCandidateSpecs(ways), cfg);
    return search.run();
}

/** True iff the verdict is the target or behaviourally equals it. */
bool
verdictMatches(const CandidateSearchResult& result,
               const std::string& truth, unsigned ways)
{
    if (result.verdict.empty())
        return false;
    if (result.verdict == truth)
        return true;
    infer::EquivalenceConfig cfg;
    cfg.maxStates = 200000;
    const auto eq = infer::checkEquivalence(
        *policy::makePolicy(result.verdict, ways),
        *policy::makePolicy(truth, ways), cfg);
    return eq.equivalent && eq.exhausted;
}

TEST(CandidateSearch, DefaultLibraryShape)
{
    const auto specs8 = infer::defaultCandidateSpecs(8);
    // 10 named policies + 48 QLRU variants.
    EXPECT_EQ(specs8.size(), 10u + 48u);
    EXPECT_NE(std::find(specs8.begin(), specs8.end(), "plru"),
              specs8.end());
    const auto specs6 = infer::defaultCandidateSpecs(6);
    EXPECT_EQ(std::find(specs6.begin(), specs6.end(), "plru"),
              specs6.end());
}

TEST(CandidateSearch, RecoversEveryNamedPolicy)
{
    for (const std::string truth :
         {"lru", "fifo", "plru", "bitplru", "nru", "lip", "bip",
          "srrip", "brrip"}) {
        const auto result = search_for(truth, 8);
        EXPECT_TRUE(result.decided) << truth;
        EXPECT_TRUE(verdictMatches(result, truth, 8))
            << truth << " -> " << result.verdict;
    }
}

TEST(CandidateSearch, RecoversQlruVariants)
{
    for (const std::string truth :
         {"qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2", "qlru:H0,M2,R1,U1",
          "qlru:H0,M1,R0,U0"}) {
        const auto result = search_for(truth, 8);
        EXPECT_TRUE(result.decided) << truth;
        EXPECT_TRUE(verdictMatches(result, truth, 8))
            << truth << " -> " << result.verdict;
    }
}

TEST(CandidateSearch, WorksAtOddAssociativity)
{
    const auto result = search_for("nru", 6);
    EXPECT_TRUE(result.decided);
    EXPECT_TRUE(verdictMatches(result, "nru", 6))
        << result.verdict;
}

TEST(CandidateSearch, RandomPolicyMatchesNothing)
{
    const auto result = search_for("random", 8);
    EXPECT_TRUE(result.survivors.empty());
    EXPECT_TRUE(result.verdict.empty());
    EXPECT_FALSE(result.decided);
}

TEST(CandidateSearch, ReportsMeasurementCost)
{
    const auto result = search_for("nru", 8);
    EXPECT_GT(result.roundsRun, 0u);
    EXPECT_GT(result.loadsUsed, 0u);
}

TEST(CandidateSearch, RestrictedLibraryStillDecides)
{
    auto spec = singleLevelSpec("fifo", 4);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    DiscoveredGeometry geom;
    geom.lineSize = 64;
    geom.levels.push_back({64, 64, 4});
    SetProber prober(ctx, geom, 0);
    CandidateSearch search(prober, {"lru", "fifo", "nru"}, {});
    const auto result = search.run();
    EXPECT_TRUE(result.decided);
    EXPECT_EQ(result.verdict, "fifo");
    ASSERT_EQ(result.survivors.size(), 1u);
}

TEST(CandidateSearch, RecoversFromAMixedLibrary)
{
    // Permutation, NRU, RRIP and QLRU candidates side by side: the
    // verdict must be the hidden spec itself, not just an equivalent.
    const std::vector<std::string> candidates{
        "lru", "fifo", "plru", "nru",
        "bip", "srrip", "brrip", "qlru:H1,M1,R0,U2",
    };
    for (const std::string truth : {"nru", "srrip", "qlru:H1,M1,R0,U2"}) {
        auto spec = singleLevelSpec(truth, 8);
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        DiscoveredGeometry geom;
        geom.lineSize = 64;
        geom.levels.push_back({64, 64, 8});
        SetProber prober(ctx, geom, 0);
        CandidateSearchConfig cfg;
        cfg.numThreads = 1;
        const auto result = CandidateSearch(prober, candidates, cfg).run();
        EXPECT_TRUE(result.decided) << truth;
        EXPECT_EQ(result.verdict, truth);
        EXPECT_EQ(result.loadsUsed, ctx.loadsIssued()) << truth;
        EXPECT_EQ(result.experimentsUsed, ctx.experimentsRun()) << truth;
    }
}

/**
 * Elimination is pinned on a QLRU@12 rig at fixed seeds: survivors,
 * verdict, rounds and measurement cost must not move when the
 * simulation behind elimination changes. The one-round,
 * random-only run keeps a wide survivor set, so it pins which
 * candidates a single observation eliminates.
 */
TEST(CandidateSearch, PinnedQlru12Elimination)
{
    const std::string truth = "qlru:H1,M3,R0,U2";
    struct Pin
    {
        uint64_t seed;
        unsigned maxRounds;
        bool decided;
        std::string verdict;
        unsigned rounds;
        uint64_t loads;
        uint64_t experiments;
        std::vector<std::string> survivors;
    };
    const Pin pins[] = {
        {4242, 64, true, truth, 7, 600, 7, {truth}},
        {777, 64, true, truth, 13, 1128, 13, {truth}},
        {777, 1, false, "qlru:H0,M1,R0,U0", 1, 72, 1,
         {"qlru:H0,M1,R0,U0", "qlru:H0,M2,R0,U0", "qlru:H0,M3,R0,U0",
          "qlru:H0,M3,R0,U2", "qlru:H1,M1,R0,U0", "qlru:H1,M2,R0,U0",
          "qlru:H1,M3,R0,U0", "qlru:H1,M3,R0,U2"}},
    };
    for (const Pin& pin : pins) {
        CandidateSearchConfig cfg;
        cfg.seed = pin.seed;
        cfg.numThreads = 1;
        cfg.maxRounds = pin.maxRounds;
        if (pin.maxRounds == 1) {
            cfg.targetedPhase = false;
            cfg.stopOnEquivalent = false;
        }
        const std::string what = "seed " + std::to_string(pin.seed) +
                                 " maxRounds " +
                                 std::to_string(pin.maxRounds);
        const auto result = search_for(truth, 12, cfg);
        EXPECT_EQ(result.survivors, pin.survivors) << what;
        EXPECT_EQ(result.decided, pin.decided) << what;
        EXPECT_FALSE(result.undetermined) << what;
        EXPECT_EQ(result.verdict, pin.verdict) << what;
        EXPECT_EQ(result.roundsRun, pin.rounds) << what;
        EXPECT_EQ(result.loadsUsed, pin.loads) << what;
        EXPECT_EQ(result.experimentsUsed, pin.experiments) << what;
    }
}

TEST(CandidateSearch, EmptyLibraryRejected)
{
    auto spec = singleLevelSpec("lru", 4);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    DiscoveredGeometry geom;
    geom.lineSize = 64;
    geom.levels.push_back({64, 64, 4});
    SetProber prober(ctx, geom, 0);
    EXPECT_THROW(CandidateSearch(prober, {}, {}), UsageError);
}

} // namespace
