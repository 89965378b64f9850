/**
 * @file
 * Tests for the security-analysis subsystem (recap::sec).
 *
 * The eviction-strategy searches are pinned against hand-derivable
 * ground truth: LRU and FIFO at associativity w need exactly w
 * accesses over w distinct lines, the insertion-throttled policies
 * resist blind conflict streams but not adaptive attackers, and the
 * LRU stealthy probe is the textbook 2w-1 cycle. Every search must
 * either complete or abstain explicitly under a tiny budget.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "recap/common/error.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/sec/profile.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;
using sec::SecOutcome;

sec::EvictStrategyResult
evictFor(const std::string& spec, unsigned ways)
{
    const auto view = sec::viewForSpec(spec, ways);
    EXPECT_TRUE(view.has_value()) << spec << " @" << ways;
    return sec::evictStrategy(*view);
}

// --- CompiledTableView ------------------------------------------------

TEST(CompiledTableView, RequiresTable)
{
    EXPECT_THROW(policy::CompiledTableView(nullptr), UsageError);
}

TEST(CompiledTableView, FilledStateFoldsSequentialFill)
{
    const auto table = policy::compiledTableFor("lru", 2, {});
    ASSERT_NE(table, nullptr);
    const policy::CompiledTableView view(table);
    uint32_t expected = view.resetState();
    expected = view.fillNext(expected, 0);
    expected = view.fillNext(expected, 1);
    EXPECT_EQ(view.filledState(), expected);
}

TEST(CompiledTableView, FullSetReachableStartsAtPrime)
{
    const auto table = policy::compiledTableFor("plru", 4, {});
    ASSERT_NE(table, nullptr);
    const policy::CompiledTableView view(table);
    const auto reachable = view.fullSetReachable();
    ASSERT_FALSE(reachable.empty());
    EXPECT_EQ(reachable.front(), view.filledState());
    // BFS interning: no duplicates, all states in range.
    std::set<uint32_t> seen;
    for (const uint32_t s : reachable) {
        EXPECT_LT(s, view.numStates());
        EXPECT_TRUE(seen.insert(s).second);
    }
}

TEST(CompiledTableView, ForwardsTableQueries)
{
    const auto table = policy::compiledTableFor("fifo", 4, {});
    ASSERT_NE(table, nullptr);
    const policy::CompiledTableView view(table);
    EXPECT_EQ(view.ways(), 4u);
    EXPECT_EQ(view.numStates(), table->numStates());
    EXPECT_EQ(view.policyName(), table->policyName());
    EXPECT_EQ(view.table(), table);
}

TEST(ViewForSpec, MetadataPoliciesDoNotCompile)
{
    EXPECT_FALSE(sec::viewForSpec("ship", 4).has_value());
    EXPECT_FALSE(sec::viewForSpec("eaf", 4).has_value());
}

TEST(ViewForSpec, CompileBudgetIsHonoured)
{
    sec::SecBudget tiny;
    tiny.compile.maxStates = 2;
    EXPECT_FALSE(sec::viewForSpec("lru", 4, tiny).has_value());
}

// --- Eviction strategies ---------------------------------------------

TEST(EvictStrategy, LruFifoPlruBlindMatchGroundTruth)
{
    for (const char* spec : {"lru", "fifo", "plru"}) {
        for (const unsigned w : {2u, 4u, 8u}) {
            const auto r = evictFor(spec, w);
            EXPECT_EQ(r.outcome, SecOutcome::kComplete);
            EXPECT_FALSE(r.pureMissUnbounded) << spec << " @" << w;
            EXPECT_EQ(r.pureMissLen, w) << spec << " @" << w;
        }
    }
}

TEST(EvictStrategy, LruFifoInformedNeedWaysDistinctLines)
{
    for (const char* spec : {"lru", "fifo"}) {
        for (const unsigned w : {2u, 4u}) {
            const auto r = evictFor(spec, w);
            ASSERT_EQ(r.informedOutcome, SecOutcome::kComplete);
            EXPECT_FALSE(r.informedUnbounded);
            EXPECT_EQ(r.informedLen, w) << spec << " @" << w;
            EXPECT_EQ(r.informedMinLines, w) << spec << " @" << w;
        }
    }
}

TEST(EvictStrategy, PlruAdaptiveAttackerSavesALine)
{
    // PLRU@4: four accesses still needed, but steering the tree lets
    // the attacker get by with three distinct lines.
    const auto r = evictFor("plru", 4);
    ASSERT_EQ(r.informedOutcome, SecOutcome::kComplete);
    EXPECT_EQ(r.informedLen, 4u);
    EXPECT_EQ(r.informedMinLines, 3u);
}

TEST(EvictStrategy, LipResistsBlindStreamsButNotAdaptiveOnes)
{
    for (const unsigned w : {2u, 4u}) {
        const auto r = evictFor("lip", w);
        EXPECT_EQ(r.outcome, SecOutcome::kComplete);
        EXPECT_TRUE(r.pureMissUnbounded) << "lip @" << w;
        ASSERT_EQ(r.informedOutcome, SecOutcome::kComplete);
        EXPECT_FALSE(r.informedUnbounded);
        EXPECT_GT(r.informedLen, w) << "lip @" << w;
    }
}

TEST(EvictStrategy, SrripPinnedValues)
{
    const auto r = evictFor("srrip:2", 2);
    EXPECT_EQ(r.pureMissLen, 4u);
    EXPECT_EQ(r.informedLen, 3u);
    EXPECT_EQ(r.informedMinLines, 2u);
}

TEST(EvictStrategy, InformedNeverBeatenByBlind)
{
    for (const char* spec : {"lru", "fifo", "plru", "nru", "srrip:2",
                             "slru", "dip:4,3,4"}) {
        const auto r = evictFor(spec, 4);
        if (r.outcome != SecOutcome::kComplete ||
            r.informedOutcome != SecOutcome::kComplete ||
            r.pureMissUnbounded || r.informedUnbounded) {
            continue;
        }
        EXPECT_LE(r.informedLen, r.pureMissLen) << spec;
    }
}

TEST(EvictStrategy, TinyBudgetAbstainsExplicitly)
{
    const auto view = sec::viewForSpec("lru", 4);
    ASSERT_TRUE(view.has_value());
    sec::SecBudget tiny;
    tiny.maxConfigs = 10;
    const auto r = sec::evictStrategy(*view, tiny);
    EXPECT_EQ(r.informedOutcome, SecOutcome::kOverBudget);
    // The blind tier is linear in the state count and still answers.
    EXPECT_EQ(r.outcome, SecOutcome::kComplete);
}

TEST(EvictStrategy, CrossCheckAgainstEvictBound)
{
    for (const char* spec :
         {"lru", "fifo", "plru", "nru", "lip", "bip", "srrip:2",
          "slru", "dip:4,3,4"}) {
        for (const unsigned w : {2u, 4u}) {
            if (!policy::specSupportsWays(spec, w))
                continue;
            const auto check = sec::crossCheckEvictBound(spec, w);
            EXPECT_TRUE(check.consistent)
                << spec << " @" << w << ": " << check.detail;
        }
    }
}

// --- Stealthy probes --------------------------------------------------

TEST(Stealth, LruAdmitsTextbookCycle)
{
    // LRU@k: touch the displaced line, then refresh the other k-1
    // attacker lines back into recency order — 2k-1 accesses.
    for (const unsigned w : {2u, 4u}) {
        const auto view = sec::viewForSpec("lru", w);
        ASSERT_TRUE(view.has_value());
        const auto r = sec::stealthProbe(*view);
        EXPECT_EQ(r.outcome, SecOutcome::kComplete);
        EXPECT_TRUE(r.feasible);
        EXPECT_EQ(r.probeLen, 2u * w - 1);
        EXPECT_EQ(r.probe.size(), r.probeLen);
        EXPECT_EQ(r.prepLen, 0u);
    }
}

TEST(Stealth, FifoHasNoStealthyCycle)
{
    // FIFO ignores touches entirely: no hit-only sequence can repair
    // the queue after the victim's insertion, so the monitoring line
    // cannot be re-armed stealthily.
    for (const unsigned w : {2u, 4u}) {
        const auto view = sec::viewForSpec("fifo", w);
        ASSERT_TRUE(view.has_value());
        const auto r = sec::stealthProbe(*view);
        EXPECT_EQ(r.outcome, SecOutcome::kComplete);
        EXPECT_FALSE(r.feasible);
    }
}

TEST(Stealth, ProbeWordStaysInRange)
{
    const auto view = sec::viewForSpec("plru", 4);
    ASSERT_TRUE(view.has_value());
    const auto r = sec::stealthProbe(*view);
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(r.monitoredWay, 4u);
    for (const auto w : r.probe)
        EXPECT_LT(w, 4u);
    // Exactly one probe access reloads the displaced line.
    unsigned reloads = 0;
    for (const auto w : r.probe)
        if (w == r.monitoredWay)
            ++reloads;
    EXPECT_GE(reloads, 1u);
}

TEST(Stealth, TinyBudgetAbstainsExplicitly)
{
    const auto view = sec::viewForSpec("plru", 4);
    ASSERT_TRUE(view.has_value());
    sec::SecBudget tiny;
    tiny.maxConfigs = 3;
    const auto r = sec::stealthProbe(*view, tiny);
    EXPECT_EQ(r.outcome, SecOutcome::kOverBudget);
}

// --- Pinned catalog searches ------------------------------------------

/** evictStrategy() and stealthProbe() on one compiled catalog cell. */
struct SecPin
{
    const char* spec;
    unsigned ways;
    const char* evict;
    uint64_t evictConfigs;
    const char* stealth;
    uint64_t stealthConfigs;
    const char* probe; ///< one digit per probed way
    unsigned monitoredWay;
};

/**
 * Every catalog spec that compiles at 2 and 4 ways under the default
 * SecBudget (random, ship, eaf and drrip@4 do not). The three
 * ">budget" stealth cells stop one config past the budget.
 */
const SecPin kSecPins[] = {
    {"lru", 2, "blind 2, informed 2 (min 2 lines: 2)", 24,
     "yes (probe 3, prep 0)", 6, "101", 0},
    {"lru", 4, "blind 4, informed 4 (min 4 lines: 4)", 1056,
     "yes (probe 7, prep 0)", 756, "1230123", 0},
    {"fifo", 2, "blind 2, informed 2 (min 2 lines: 2)", 24,
     "no", 2, "", 0},
    {"fifo", 4, "blind 4, informed 4 (min 4 lines: 4)", 176,
     "no", 4, "", 0},
    {"plru", 2, "blind 2, informed 2 (min 2 lines: 2)", 24,
     "yes (probe 3, prep 0)", 6, "101", 0},
    {"plru", 4, "blind 4, informed 4 (min 3 lines: 4)", 312,
     "yes (probe 5, prep 0)", 88, "12013", 0},
    {"bitplru", 2, "blind 2, informed 2 (min 2 lines: 2)", 24,
     "yes (probe 3, prep 0)", 6, "101", 0},
    {"bitplru", 4, "blind 6, informed 6 (min 4 lines: 6)", 636,
     "yes (probe 6, prep 0)", 400, "120123", 0},
    {"nru", 2, "blind 2, informed 2 (min 2 lines: 2)", 24,
     "yes (probe 3, prep 0)", 4, "101", 0},
    {"nru", 4, "blind 6, informed 6 (min 4 lines: 6)", 381,
     "yes (probe 7, prep 0)", 26, "1230123", 0},
    {"lip", 2, "blind unbounded, informed 3 (min 2 lines: 3)", 28,
     "yes (probe 2, prep 0)", 4, "10", 1},
    {"lip", 4, "blind unbounded, informed 7 (min 4 lines: 7)", 1512,
     "yes (probe 4, prep 0)", 540, "3210", 3},
    {"bip", 2, "blind 33, informed 3 (min 2 lines: 3)", 954,
     "no", 256, "", 0},
    {"bip", 4, "blind 97, informed 7 (min 4 lines: 7)", 50160,
     "no", 36672, "", 0},
    {"srrip", 2, "blind 4, informed 3 (min 2 lines: 3)", 126,
     "yes (probe 4, prep 2)", 65, "1001", 0},
    {"srrip", 4, "blind 12, informed 7 (min 4 lines: 7)", 11130,
     "yes (probe 8, prep 4)", 5999, "12300123", 0},
    {"brrip", 2, "blind 128, informed 5 (min 2 lines: 5)", 4776,
     "no", 2119, "", 0},
    {"brrip", 4, "blind 384, informed 11 (min 4 lines: 11)", 478784,
     "no", 138661, "", 0},
    {"slru", 2, "blind unbounded, informed 3 (min 2 lines: 3)", 52,
     "yes (probe 2, prep 1)", 14, "10", 1},
    {"slru", 4, "blind unbounded, informed 6 (min 4 lines: 6)", 2776,
     "yes (probe 5, prep 2)", 1604, "32301", 2},
    {"qlru:H1,M1,R0,U2", 2, "blind 3, informed 3 (min 2 lines: 3)", 126,
     "yes (probe 7, prep 2)", 101, "1100111", 0},
    {"qlru:H1,M1,R0,U2", 4, "blind 7, informed 7 (min 4 lines: 7)", 10540,
     "yes (probe 17, prep 4)", 20301, "11122233001122333", 0},
    {"qlru:H1,M3,R0,U2", 2, "blind unbounded, informed 7 (min 2 lines: 7)", 212,
     "yes (probe 7, prep 6)", 218, "0000111", 0},
    {"qlru:H1,M3,R0,U2", 4,
     "blind unbounded, informed 17 (min 4 lines: 17)", 23480,
     "yes (probe 13, prep 12)", 21516, "0000111222333", 0},
    {"dip", 2, "blind 14, informed 3 (min 2 lines: 3)", 109464,
     "no", 950528, "", 0},
    {"dip", 4, "blind 16, informed 7 (min 4 lines: 7)", 5782656,
     ">budget", 2000001, "", 0},
    {"drrip", 2, "blind 17, informed 5 (min 2 lines: 5)", 583164,
     ">budget", 2000001, "", 0},
    {"dip:4,3,4", 2, "blind 5, informed 3 (min 2 lines: 3)", 13368,
     "no", 113280, "", 0},
    {"dip:4,3,4", 4, "blind 13, informed 7 (min 4 lines: 7)", 684672,
     ">budget", 2000001, "", 0},
    {"drrip:1,4,3,4", 2, "blind 8, informed 5 (min 2 lines: 5)", 19956,
     "no", 141349, "", 0},
    {"drrip:1,4,3,4", 4, "blind 15, informed 10 (min 4 lines: 10)", 399216,
     "no", 1777957, "", 0},
};

void
expectPinnedCells(unsigned ways)
{
    unsigned compiled = 0;
    for (const auto& spec : policy::catalogSpecs()) {
        if (!policy::specSupportsWays(spec, ways))
            continue;
        const auto view = sec::viewForSpec(spec, ways);
        if (!view)
            continue;
        ++compiled;
        const SecPin* pin = nullptr;
        for (const SecPin& p : kSecPins)
            if (p.spec == spec && p.ways == ways)
                pin = &p;
        ASSERT_NE(pin, nullptr) << spec << " @" << ways;
        const auto evict = sec::evictStrategy(*view);
        EXPECT_EQ(evict.render(), pin->evict) << spec << " @" << ways;
        EXPECT_EQ(evict.configsExplored, pin->evictConfigs)
            << spec << " @" << ways;
        const auto stealth = sec::stealthProbe(*view);
        std::string probe;
        for (const auto w : stealth.probe)
            probe += static_cast<char>('0' + w);
        EXPECT_EQ(stealth.render(), pin->stealth) << spec << " @" << ways;
        EXPECT_EQ(stealth.configsExplored, pin->stealthConfigs)
            << spec << " @" << ways;
        EXPECT_EQ(probe, pin->probe) << spec << " @" << ways;
        EXPECT_EQ(stealth.monitoredWay, pin->monitoredWay)
            << spec << " @" << ways;
    }
    unsigned pinned = 0;
    for (const SecPin& p : kSecPins)
        pinned += p.ways == ways;
    EXPECT_EQ(compiled, pinned) << "@" << ways;
}

TEST(SecurityPins, CatalogAtTwoWays)
{
    expectPinnedCells(2);
}

TEST(SecurityPins, CatalogAtFourWays)
{
    expectPinnedCells(4);
}

// --- Observability ----------------------------------------------------

TEST(Observability, CountsAreConsistent)
{
    const auto view = sec::viewForSpec("lru", 2);
    ASSERT_TRUE(view.has_value());
    const auto r = sec::observability(*view);
    ASSERT_EQ(r.outcome, SecOutcome::kComplete);
    EXPECT_EQ(r.patterns, 16u); // 2 victim lines, horizon 2*2
    EXPECT_GE(r.observations, 1u);
    EXPECT_LE(r.observations, r.reachedConfigs);
    EXPECT_NEAR(r.leakedBits,
                std::log2(static_cast<double>(r.observations)),
                1e-12);
    EXPECT_GE(r.minClass, 1u);
    EXPECT_LE(r.minClass, r.maxClass);
    EXPECT_LE(r.maxClass, r.patterns);
}

TEST(Observability, PlruLeaksWhereLruAbsorbs)
{
    // Pinned from the sweep: the probe cascade masks every victim
    // pattern under LRU@4, while PLRU@4's tree state leaks one bit.
    const auto lru = sec::viewForSpec("lru", 4);
    const auto plru = sec::viewForSpec("plru", 4);
    ASSERT_TRUE(lru.has_value());
    ASSERT_TRUE(plru.has_value());
    EXPECT_EQ(sec::observability(*lru).observations, 1u);
    EXPECT_EQ(sec::observability(*plru).observations, 2u);
}

TEST(Observability, HonoursHorizonAndAlphabet)
{
    const auto view = sec::viewForSpec("lru", 2);
    ASSERT_TRUE(view.has_value());
    sec::ObservabilityConfig cfg;
    cfg.victimLines = 3;
    cfg.horizon = 2;
    const auto r = sec::observability(*view, cfg);
    ASSERT_EQ(r.outcome, SecOutcome::kComplete);
    EXPECT_EQ(r.patterns, 9u);
}

TEST(Observability, TinyBudgetAbstainsExplicitly)
{
    const auto view = sec::viewForSpec("plru", 4);
    ASSERT_TRUE(view.has_value());
    sec::SecBudget tiny;
    tiny.maxConfigs = 2;
    const auto r = sec::observability(*view, {}, tiny);
    EXPECT_EQ(r.outcome, SecOutcome::kOverBudget);
}

// --- Profiles and ranking ---------------------------------------------

TEST(SecurityProfile, CompleteForLru)
{
    const auto p = sec::securityProfile("lru", 4);
    EXPECT_TRUE(p.compiled);
    EXPECT_FALSE(p.partial());
    const double score = sec::leakageScore(p);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 3.0);
    // LRU: stealth feasible (1) + minimal eviction sets (1).
    EXPECT_NEAR(score, 2.0, 1e-9);
}

TEST(SecurityProfile, NotCompiledStaysPartialWithZeroScore)
{
    const auto p = sec::securityProfile("ship", 4);
    EXPECT_FALSE(p.compiled);
    EXPECT_TRUE(p.partial());
    EXPECT_EQ(sec::leakageScore(p), 0.0);
}

TEST(SecuritySweep, FiltersUnsupportedWaysAndRanks)
{
    sec::ProfileConfig cfg;
    cfg.numThreads = 2;
    auto profiles =
        sec::securitySweep({"lru", "plru"}, {2, 3}, cfg);
    // plru@3 is not a valid configuration and must be skipped.
    ASSERT_EQ(profiles.size(), 3u);
    EXPECT_EQ(profiles[0].spec, "lru");
    EXPECT_EQ(profiles[2].spec, "plru");
    EXPECT_EQ(profiles[2].ways, 2u);

    sec::sortByLeakage(profiles);
    for (size_t i = 1; i < profiles.size(); ++i) {
        EXPECT_GE(sec::leakageScore(profiles[i - 1]),
                  sec::leakageScore(profiles[i]));
    }
}

TEST(SecuritySweep, DeterministicAcrossThreadCounts)
{
    sec::ProfileConfig serial;
    serial.numThreads = 1;
    sec::ProfileConfig parallel;
    parallel.numThreads = 4;
    const auto a = sec::securitySweep({"lru", "fifo", "nru"}, {2, 4},
                                      serial);
    const auto b = sec::securitySweep({"lru", "fifo", "nru"}, {2, 4},
                                      parallel);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec, b[i].spec);
        EXPECT_EQ(a[i].evict.informedLen, b[i].evict.informedLen);
        EXPECT_EQ(a[i].stealth.probeLen, b[i].stealth.probeLen);
        EXPECT_EQ(a[i].observe.observations,
                  b[i].observe.observations);
    }
}

// --- Attacker/victim trace generator ----------------------------------

TEST(AttackerVictim, RoundStructureAndSetMapping)
{
    trace::AttackerVictimConfig cfg;
    cfg.geometry = cache::Geometry{64, 64, 4};
    cfg.targetSet = 5;
    cfg.rounds = 3;
    cfg.victimAccessesPerRound = 6;
    const auto t = trace::attackerVictimInterleave(cfg);
    ASSERT_EQ(t.size(), 3u * (2 * 4 + 6));
    std::set<uint64_t> tags;
    for (const auto addr : t) {
        EXPECT_EQ(cfg.geometry.setIndex(addr), 5u);
        tags.insert(cfg.geometry.tag(addr));
    }
    // 4 attacker lines + 2 victim lines, all distinct tags.
    EXPECT_EQ(tags.size(), 6u);
}

TEST(AttackerVictim, ScanVictimIsDeterministicRoundRobin)
{
    trace::AttackerVictimConfig cfg;
    cfg.geometry = cache::Geometry{64, 16, 2};
    cfg.victimKind = trace::VictimPhaseKind::kScan;
    cfg.victimLines = 3;
    cfg.rounds = 1;
    cfg.victimAccessesPerRound = 6;
    const auto t = trace::attackerVictimInterleave(cfg);
    // Victim slice sits between prime and probe.
    const unsigned attackers = cfg.geometry.ways;
    for (unsigned a = 0; a < 6; ++a) {
        const auto addr = t[attackers + a];
        const uint64_t tag = cfg.geometry.tag(addr);
        EXPECT_EQ(tag, attackers + a % 3);
    }
}

TEST(AttackerVictim, SuiteCoversEveryVictimKind)
{
    const auto suite =
        trace::attackerVictimSuite(cache::Geometry{64, 64, 4});
    ASSERT_EQ(suite.size(), 3u);
    EXPECT_EQ(suite[0].name, "attacker-victim-zipf");
    EXPECT_EQ(suite[1].name, "attacker-victim-scan");
    EXPECT_EQ(suite[2].name, "attacker-victim-reuse");
    for (const auto& w : suite)
        EXPECT_FALSE(w.trace.empty());
}

TEST(AttackerVictim, RejectsBadConfigs)
{
    trace::AttackerVictimConfig cfg;
    cfg.targetSet = 1u << 20;
    EXPECT_THROW(trace::attackerVictimInterleave(cfg), UsageError);
    cfg = {};
    cfg.victimLines = 0;
    EXPECT_THROW(trace::attackerVictimInterleave(cfg), UsageError);
}

} // namespace
