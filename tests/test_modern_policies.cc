/**
 * @file
 * Unit and property tests for the modern-policy catalog: the
 * TemporalDuel primitive, DIP and DRRIP set-dueling convergence,
 * SHiP's PC-indexed signature table, and EAF's evicted-address
 * filter.
 *
 * The convergence tests drive phase-locked traces whose group length
 * equals the duel's epoch length, so every insertion's consequence
 * (a hit or a re-miss) lands inside the epoch that made the
 * insertion — the regime where temporal dueling attributes cleanly.
 * Everything here is deterministic, so expectations are pinned
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/dip.hh"
#include "recap/policy/drrip.hh"
#include "recap/policy/duel.hh"
#include "recap/policy/eaf.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/policy/ship.hh"
#include "recap/trace/generators.hh"

namespace recap::policy
{
namespace
{

// ---------------------------------------------------------------- duel

TEST(TemporalDuel, EpochScheduleAndReset)
{
    TemporalDuel duel(4, 2); // psel in [0,15], epochs of 2, cycle 8
    EXPECT_EQ(duel.psel(), duel.pselMidpoint());
    EXPECT_EQ(duel.pselMidpoint(), 8u);

    const DuelMode expected[8] = {
        DuelMode::kLeaderA,  DuelMode::kLeaderA,
        DuelMode::kLeaderB,  DuelMode::kLeaderB,
        DuelMode::kFollower, DuelMode::kFollower,
        DuelMode::kFollower, DuelMode::kFollower,
    };
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int pos = 0; pos < 8; ++pos) {
            EXPECT_EQ(duel.mode(), expected[pos])
                << "cycle " << cycle << " pos " << pos;
            duel.advance();
        }
    }

    duel.onMiss(DuelMode::kLeaderA);
    EXPECT_EQ(duel.psel(), 9u);
    duel.reset();
    EXPECT_EQ(duel.psel(), 8u);
    EXPECT_EQ(duel.mode(), DuelMode::kLeaderA);
}

TEST(TemporalDuel, TrainingSaturatesAndFollowerFlips)
{
    TemporalDuel duel(2, 1); // psel in [0,3], midpoint 2
    EXPECT_TRUE(duel.followerPicksB());
    for (int i = 0; i < 10; ++i)
        duel.onMiss(DuelMode::kLeaderB); // B misses: evidence for A
    EXPECT_EQ(duel.psel(), 0u);
    EXPECT_FALSE(duel.followerPicksB());
    for (int i = 0; i < 10; ++i)
        duel.onMiss(DuelMode::kLeaderA);
    EXPECT_EQ(duel.psel(), 3u); // saturates at the top
    EXPECT_TRUE(duel.followerPicksB());
    // Follower misses train nothing.
    duel.onMiss(DuelMode::kFollower);
    EXPECT_EQ(duel.psel(), 3u);
}

TEST(TemporalDuel, ValidatesParameters)
{
    EXPECT_THROW(TemporalDuel(0, 4), UsageError);
    EXPECT_THROW(TemporalDuel(17, 4), UsageError);
    EXPECT_THROW(TemporalDuel(4, 0), UsageError);
}

/**
 * Regression: the 4*epochLen cycle used to wrap to 0 at epochLen
 * 2^30, so a spec the factory accepted died with SIGFPE on its first
 * access. Such epochs are now usage errors, and the largest
 * admissible one steps.
 */
TEST(TemporalDuel, RejectsEpochLenWhoseCycleOverflows)
{
    EXPECT_THROW(TemporalDuel(4, 1u << 30), UsageError);
    EXPECT_THROW(TemporalDuel(4, 0xFFFFFFFFu), UsageError);
    for (const char* spec :
         {"dip:16,4,1073741824", "drrip:2,16,4,1073741824",
          "dip:16,4,2147483648", "drrip:2,16,4,4294967295"}) {
        EXPECT_THROW(makePolicy(spec, 4), UsageError) << spec;
        EXPECT_FALSE(isKnownPolicySpec(spec)) << spec;
        EXPECT_EQ(compiledTableFor(spec, 4), nullptr) << spec;
    }

    TemporalDuel duel(4, (1u << 30) - 1);
    duel.advance();
    EXPECT_EQ(duel.mode(), DuelMode::kLeaderA);

    for (const char* spec :
         {"dip:16,4,1073741823", "drrip:2,16,4,1073741823"}) {
        PolicyPtr policy = makePolicy(spec, 4);
        for (unsigned w = 0; w < 64; ++w) {
            policy->fill(policy->victim());
            policy->touch(w % 4);
        }
        EXPECT_LT(policy->victim(), 4u) << spec;
    }
}

// ---------------------------------------------- convergence traces

/**
 * LRU-friendly, phase-locked to the default epoch length 4: each
 * epoch-sized group is x,y,x,y on a fresh pair. MRU insertion turns
 * the two reuses into hits (2 misses/group); LIP insertion evicts x
 * when y fills, missing all four (4 misses/group) — at any
 * associativity, independent of prior set contents.
 */
uint64_t
friendlyBlock(size_t i)
{
    return 2 * (i / 4) + (i % 2);
}

/**
 * Thrashing scan mix, phase-locked: each group is s1,s2,a,b with
 * fresh streaming scans s and a hot pair {a,b}. MRU insertion lets
 * the scans push the hot pair out (4 misses/group at 2 ways); LIP
 * insertion sacrifices the scans and keeps a hit on the hot pair
 * (3 misses/group) — bimodal insertion wins.
 */
uint64_t
scanMixBlock(size_t i)
{
    const size_t k = i % 4;
    if (k == 2)
        return 1000000; // a
    if (k == 3)
        return 1000001; // b
    return 2 * (i / 4) + k; // fresh scans
}

/** Drives @p n accesses and returns the miss count. */
int
missesOn(SetModel& m, const std::function<uint64_t(size_t)>& blockAt,
         size_t n)
{
    int misses = 0;
    for (size_t i = 0; i < n; ++i)
        if (!m.access(blockAt(i)))
            ++misses;
    return misses;
}

constexpr size_t kConvergenceLen = 4000;

TEST(DipConvergence, FriendlyTraceSteersToLru)
{
    SetModel m(makePolicy("dip", 2));
    const int misses = missesOn(m, friendlyBlock, kConvergenceLen);
    const auto* dip = dynamic_cast<const DipPolicy*>(&m.policy());
    ASSERT_NE(dip, nullptr);
    EXPECT_LT(dip->psel(), dip->pselMidpoint());
    EXPECT_FALSE(dip->followerPicksBip());
    EXPECT_EQ(dip->psel(), 0u); // pinned: saturates at full LRU
    EXPECT_EQ(misses, 2400);

    // Sandwiched between the constituents, near the better one.
    SetModel lru(makePolicy("lru", 2));
    SetModel bip(makePolicy("bip:16", 2));
    EXPECT_EQ(missesOn(lru, friendlyBlock, kConvergenceLen), 2000);
    EXPECT_EQ(missesOn(bip, friendlyBlock, kConvergenceLen), 3998);
}

TEST(DipConvergence, ScanMixSteersToBip)
{
    SetModel m(makePolicy("dip", 2));
    const int misses = missesOn(m, scanMixBlock, kConvergenceLen);
    const auto* dip = dynamic_cast<const DipPolicy*>(&m.policy());
    ASSERT_NE(dip, nullptr);
    EXPECT_GE(dip->psel(), dip->pselMidpoint());
    EXPECT_TRUE(dip->followerPicksBip());
    EXPECT_EQ(dip->psel(), 11u); // pinned
    EXPECT_EQ(misses, 3979);
}

TEST(DipConvergence, DirectionsHoldAcrossAssociativities)
{
    for (const unsigned ways : {4u, 8u}) {
        SetModel f(makePolicy("dip", ways));
        missesOn(f, friendlyBlock, kConvergenceLen);
        const auto* df = dynamic_cast<const DipPolicy*>(&f.policy());
        EXPECT_EQ(df->psel(), 0u) << "friendly, ways " << ways;

        SetModel t(makePolicy("dip", ways));
        missesOn(t, scanMixBlock, kConvergenceLen);
        const auto* dt = dynamic_cast<const DipPolicy*>(&t.policy());
        EXPECT_GE(dt->psel(), dt->pselMidpoint())
            << "scan mix, ways " << ways;
    }
}

TEST(DrripConvergence, FriendlyTraceSteersToSrrip)
{
    SetModel m(makePolicy("drrip", 2));
    const int misses = missesOn(m, friendlyBlock, kConvergenceLen);
    const auto* d = dynamic_cast<const DrripPolicy*>(&m.policy());
    ASSERT_NE(d, nullptr);
    EXPECT_LT(d->psel(), d->pselMidpoint());
    EXPECT_FALSE(d->followerPicksBrrip());
    EXPECT_EQ(d->psel(), 0u); // pinned
    EXPECT_EQ(misses, 2400);
}

TEST(DrripConvergence, ScanMixSteersToBrrip)
{
    SetModel m(makePolicy("drrip", 2));
    const int misses = missesOn(m, scanMixBlock, kConvergenceLen);
    const auto* d = dynamic_cast<const DrripPolicy*>(&m.policy());
    ASSERT_NE(d, nullptr);
    EXPECT_GE(d->psel(), d->pselMidpoint());
    EXPECT_TRUE(d->followerPicksBrrip());
    EXPECT_EQ(d->psel(), 9u); // pinned
    EXPECT_EQ(misses, 3001); // beats both pure constituents (4000)
}

// ----------------------------------------------------------------- DIP

TEST(Dip, NamesAndValidation)
{
    EXPECT_EQ(makePolicy("dip", 4)->name(), "DIP");
    EXPECT_EQ(makePolicy("drrip", 4)->name(), "DRRIP2");
    EXPECT_EQ(makePolicy("drrip:1,4,3,4", 4)->name(), "DRRIP1");
    EXPECT_FALSE(makePolicy("dip", 4)->usesMeta());
    EXPECT_FALSE(makePolicy("drrip", 4)->usesMeta());
    EXPECT_THROW(DipPolicy(1), UsageError);
    EXPECT_THROW(DipPolicy(4, 0), UsageError);
    EXPECT_THROW(DrripPolicy(1), UsageError);
}

TEST(Dip, StateKeyCoversDuelState)
{
    DipPolicy a(4), b(4);
    a.reset();
    b.reset();
    EXPECT_EQ(a.stateKey(), b.stateKey());
    // Same stack, different duel position: keys must differ, or the
    // compiled BFS would merge behaviourally distinct states.
    a.fill(0);
    b.fill(0);
    b.touch(0); // advances b's duel position past a's
    EXPECT_NE(a.stateKey(), b.stateKey());
}

// ---------------------------------------------------------------- SHiP

TEST(Ship, SignatureHashIsStableAndSpreads)
{
    ShipPolicy ship(4); // sigBits 4
    EXPECT_EQ(ship.signatureOf(0), 0u);
    // The two PCs of pcReuseStreamMix land on distinct signatures.
    EXPECT_EQ(ship.signatureOf(0x401000), 14u);
    EXPECT_EQ(ship.signatureOf(0x402000), 5u);
    EXPECT_TRUE(ship.usesMeta());
}

TEST(Ship, ShctLearnsReuseFromPcs)
{
    SetModel m(makePolicy("ship", 4));
    const auto* ship = dynamic_cast<const ShipPolicy*>(&m.policy());
    ASSERT_NE(ship, nullptr);
    const unsigned loopSig = ship->signatureOf(0x401000);
    const unsigned scanSig = ship->signatureOf(0x402000);
    EXPECT_EQ(ship->shctAt(loopSig), 1u); // weakly-reused init
    EXPECT_EQ(ship->shctAt(scanSig), 1u);

    const auto t = trace::pcReuseStreamMix(2 * 64, 4000, 7);
    int misses = 0;
    for (const auto& a : t)
        if (!m.accessWithPc(a.addr / 64, a.pc))
            ++misses;

    // The looping PC saturates its counter; the streaming PC's dead
    // fills train it to zero (insert-distant).
    EXPECT_EQ(ship->shctAt(loopSig), 3u);
    EXPECT_EQ(ship->shctAt(scanSig), 0u);
    EXPECT_EQ(misses, 2002); // pinned
}

TEST(Ship, DeadFillsTrainCounterDown)
{
    SetModel m(makePolicy("ship", 2));
    const auto* ship = dynamic_cast<const ShipPolicy*>(&m.policy());
    const uint64_t pc = 0x1234;
    const unsigned sig = ship->signatureOf(pc);
    ASSERT_EQ(ship->shctAt(sig), 1u);
    // Stream enough distinct blocks through the 2-way set that lines
    // filled under this PC die unreferenced.
    for (uint64_t b = 0; b < 8; ++b)
        m.accessWithPc(b, pc);
    EXPECT_EQ(ship->shctAt(sig), 0u);
}

TEST(Ship, HitsTrainCounterUp)
{
    SetModel m(makePolicy("ship", 2));
    const auto* ship = dynamic_cast<const ShipPolicy*>(&m.policy());
    const uint64_t pc = 0x1234;
    const unsigned sig = ship->signatureOf(pc);
    m.accessWithPc(7, pc);
    EXPECT_FALSE(m.accessWithPc(8, pc)); // miss
    EXPECT_TRUE(m.accessWithPc(7, pc));  // hit: reuse observed
    EXPECT_EQ(ship->shctAt(sig), 2u);
}

TEST(Ship, ValidatesParameters)
{
    EXPECT_THROW(ShipPolicy(1), UsageError);
    EXPECT_THROW(ShipPolicy(4, 2, 0), UsageError);
    EXPECT_THROW(ShipPolicy(4, 2, 15), UsageError);
    EXPECT_THROW(ShipPolicy(4, 2, 4, 0), UsageError);
    EXPECT_THROW(ShipPolicy(4, 2, 4, 9), UsageError);
}

// ----------------------------------------------------------------- EAF

TEST(Eaf, FilterTracksEvictedBlocks)
{
    SetModel m(makePolicy("eaf", 4));
    const auto* eaf = dynamic_cast<const EafPolicy*>(&m.policy());
    ASSERT_NE(eaf, nullptr);
    EXPECT_TRUE(eaf->usesMeta());

    for (uint64_t b = 0; b < 5; ++b)
        m.access(b);
    // Block 5 displaced exactly one resident; the filter remembers it.
    EXPECT_EQ(eaf->filterSize(), 1u);
    EXPECT_TRUE(eaf->filterContains(3));
}

TEST(Eaf, FilteredBlockIsReinsertedAtMruAndLeavesFilter)
{
    SetModel m(makePolicy("eaf", 4));
    const auto* eaf = dynamic_cast<const EafPolicy*>(&m.policy());
    for (uint64_t b = 0; b < 5; ++b)
        m.access(b);
    ASSERT_TRUE(eaf->filterContains(3));

    // 3 comes back: a filter hit consumes the entry and inserts at
    // MRU, so 3 then survives a subsequent streaming fill.
    EXPECT_FALSE(m.access(3));
    EXPECT_FALSE(eaf->filterContains(3));
    m.access(100);
    EXPECT_TRUE(m.contains(3));
}

TEST(Eaf, FilterCapacityIsBounded)
{
    SetModel m(makePolicy("eaf:2", 4)); // filterCap 2
    const auto* eaf = dynamic_cast<const EafPolicy*>(&m.policy());
    for (uint64_t b = 0; b < 64; ++b)
        m.access(b);
    EXPECT_LE(eaf->filterSize(), 2u);
}

TEST(Eaf, WithoutMetadataBehavesExactlyLikeBip)
{
    // Raw touch/fill driving never publishes block identities, so
    // the filter stays empty and every insertion is bimodal.
    PolicyPtr eaf = makePolicy("eaf", 4);
    PolicyPtr bip = makePolicy("bip:16", 4);
    eaf->reset();
    bip->reset();
    Rng rng(0xEAF);
    for (unsigned step = 0; step < 2000; ++step) {
        ASSERT_EQ(eaf->victim(), bip->victim()) << "step " << step;
        const Way w = static_cast<Way>(rng.nextBelow(4));
        if (rng.nextBelow(2) == 0) {
            eaf->touch(w);
            bip->touch(w);
        } else {
            eaf->fill(w);
            bip->fill(w);
        }
    }
    EXPECT_EQ(eaf->victim(), bip->victim());
}

TEST(Eaf, ValidatesParameters)
{
    EXPECT_THROW(EafPolicy(1), UsageError);
    EXPECT_THROW(EafPolicy(4, 0, 0), UsageError);
}

// ------------------------------------------------------------- factory

TEST(ModernFactory, SpecsParseWithDefaultsAndParameters)
{
    EXPECT_EQ(makePolicy("ship", 4)->name(), "SHiP");
    EXPECT_EQ(makePolicy("eaf", 4)->name(), "EAF");
    EXPECT_EQ(makePolicy("dip:4,3,4", 4)->name(), "DIP");
    EXPECT_EQ(makePolicy("eaf:8,32", 4)->name(), "EAF");
    EXPECT_EQ(makePolicy("ship:2,6,3", 4)->name(), "SHiP");
    for (const auto& spec : modernSpecs())
        EXPECT_TRUE(isKnownPolicySpec(spec)) << spec;
}

TEST(ModernFactory, RejectsMalformedModernSpecs)
{
    EXPECT_THROW(makePolicy("dip:", 4), UsageError);
    EXPECT_THROW(makePolicy("dip:1,2,3,4", 4), UsageError); // too many
    EXPECT_THROW(makePolicy("dip:x", 4), UsageError);
    EXPECT_THROW(makePolicy("drrip:2,16,4,4,4", 4), UsageError);
    EXPECT_THROW(makePolicy("ship:2,0", 4), UsageError);
    EXPECT_THROW(makePolicy("eaf:0,0", 4), UsageError);
    EXPECT_THROW(makePolicy("dip", 1), UsageError);
}

} // namespace
} // namespace recap::policy
