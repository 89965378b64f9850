/**
 * @file
 * Packed policy states and the compiler built on them.
 *
 *  - packState()/unpackState() round trips along random walks: the
 *    restored automaton has the same stateKey() and the same victims
 *    for the next 64 inputs, and packs are equal exactly when
 *    stateKeys are.
 *  - The pinned compile outcomes (tests/compile_pins.hh) under the
 *    default budget, per associativity.
 *  - Every pinned table of at most 2^16 states agrees element by
 *    element with a reference stateKey BFS kept in this file.
 *  - Policies without a packed encoding are refused at once, even
 *    under an unbounded budget.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compile_pins.hh"
#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/learn/learned_policy.hh"
#include "recap/learn/mealy.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{
namespace
{

/** Specs the round trips cover: the pinned roster. */
std::vector<std::string>
pinnedSpecs()
{
    std::vector<std::string> specs;
    for (const auto& pin : pins::kCompilePins)
        specs.emplace_back(pin.spec);
    return specs;
}

/**
 * (spec, ways) pairs that have no packed encoding: the stochastic
 * policy, the metadata consumers, and DIP at 24 ways, whose recency
 * order, throttle counter and duel state need more than 128 bits.
 */
bool
expectedUnpackable(const std::string& spec, unsigned ways)
{
    if (spec == "random" || spec == "ship" || spec == "eaf")
        return true;
    return (spec == "dip" || spec == "dip:4,3,4") && ways >= 24;
}

PackedState
packOf(const ReplacementPolicy& policy)
{
    PackedState packed;
    const bool packs = policy.packState(packed);
    EXPECT_TRUE(packs) << policy.name();
    return packed;
}

/** One random input: touch or fill of a random way. */
void
stepRandomly(ReplacementPolicy& a, ReplacementPolicy& b, Rng& rng)
{
    const Way w = static_cast<Way>(rng.nextBelow(a.ways()));
    if (rng.nextBelow(2) == 0) {
        a.touch(w);
        b.touch(w);
    } else {
        a.fill(w);
        b.fill(w);
    }
}

/**
 * Random walks from reset. At every step the walker's pack is
 * unpacked into a second instance that was left in an unrelated
 * state; the two must then agree on stateKey() and on the victims of
 * the next 64 inputs. Packs and keys seen along the way must map
 * one-to-one. With @p warmFirst, each walk first fills every way in
 * order (learned automata under concrete-block semantics accept
 * touches of filled ways only).
 */
void
checkRoundTrips(const ReplacementPolicy& proto, const std::string& label,
                bool warmFirst = false)
{
    PolicyPtr walker = proto.clone();
    PolicyPtr restored = proto.clone();
    for (Way w = 0; warmFirst && w < restored->ways(); ++w)
        restored->fill(w);
    std::map<std::string, std::pair<uint64_t, uint64_t>> packOfKey;
    std::map<std::pair<uint64_t, uint64_t>, std::string> keyOfPack;
    Rng rng(0x9AC4 ^ proto.ways());
    for (unsigned walk = 0; walk < 4; ++walk) {
        walker->reset();
        for (Way w = 0; warmFirst && w < walker->ways(); ++w)
            walker->fill(w);
        for (unsigned step = 0; step < 48; ++step) {
            const PackedState packed = packOf(*walker);
            restored->unpackState(packed);
            const std::string key = walker->stateKey();
            ASSERT_EQ(restored->stateKey(), key)
                << label << " walk " << walk << " step " << step;

            const auto words = std::make_pair(packed.lo, packed.hi);
            const auto [byKey, newKey] = packOfKey.emplace(key, words);
            const auto [byPack, newPack] = keyOfPack.emplace(words, key);
            ASSERT_EQ(byKey->second, words)
                << label << ": one stateKey, two packs: " << key;
            ASSERT_EQ(byPack->second, key)
                << label << ": one pack, two stateKeys: " << key
                << " and " << byPack->second;
            ASSERT_EQ(newKey, newPack) << label;

            PolicyPtr future = walker->clone();
            for (unsigned i = 0; i < 64; ++i) {
                ASSERT_EQ(restored->victim(), future->victim())
                    << label << " walk " << walk << " step " << step
                    << " input " << i;
                stepRandomly(*restored, *future, rng);
            }
            ASSERT_EQ(restored->stateKey(), future->stateKey()) << label;

            PolicyPtr twin = walker->clone();
            stepRandomly(*walker, *twin, rng);
        }
    }
}

class PackRoundTrip : public ::testing::TestWithParam<std::string>
{};

TEST_P(PackRoundTrip, RestoresKeyAndFutureVictims)
{
    const std::string spec = GetParam();
    for (const unsigned ways : pins::kPinWays) {
        if (!specSupportsWays(spec, ways))
            continue;
        const PolicyPtr proto = makePolicy(spec, ways);
        PackedState packed;
        const bool packs = proto->packState(packed);
        ASSERT_EQ(packs, !expectedUnpackable(spec, ways))
            << spec << " k=" << ways;
        if (!packs)
            continue;
        checkRoundTrips(*proto, spec + " k=" + std::to_string(ways));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, PackRoundTrip, ::testing::ValuesIn(pinnedSpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/**
 * The LRU role automaton of test_learned_policy: ways + 1
 * recency-depth states, under recency-role semantics.
 */
learn::LearnedPolicy
learnedLruRoles(unsigned ways)
{
    learn::MealyMachine roles(ways + 1, ways + 1);
    for (unsigned depth = 0; depth <= ways; ++depth) {
        for (unsigned s = 0; s <= ways; ++s) {
            if (s < depth)
                roles.setTransition(depth, s, depth, true);
            else
                roles.setTransition(depth, s, std::min(depth + 1, ways),
                                    false);
        }
    }
    return learn::LearnedPolicy(ways, std::move(roles),
                                learn::SymbolSemantics::kRecencyRoles,
                                "Learned LRU roles");
}

/** Learned automata under both symbol semantics. */
std::vector<learn::LearnedPolicy>
learnedPolicies()
{
    std::vector<learn::LearnedPolicy> out;
    for (const auto& [spec, ways] :
         std::vector<std::pair<std::string, unsigned>>{
             {"lru", 4}, {"plru", 4}, {"nru", 4}, {"slru:1", 4},
             {"qlru:H1,M1,R0,U2", 2}}) {
        const PolicyPtr truth = makePolicy(spec, ways);
        out.emplace_back(ways,
                         learn::automatonOfPolicy(*truth, ways + 1),
                         learn::SymbolSemantics::kConcreteBlocks,
                         "Learned " + truth->name());
    }
    out.push_back(learnedLruRoles(8));
    return out;
}

TEST(PackRoundTripExtra, LearnedPolicies)
{
    for (const auto& learned : learnedPolicies())
        checkRoundTrips(learned, learned.name(), true);
}

TEST(PackRoundTripExtra, CompiledPolicyPacksItsStateIndex)
{
    const CompiledTablePtr table = compiledTableFor("qlru:H1,M1,R0,U2", 4);
    ASSERT_NE(table, nullptr);
    const CompiledPolicy compiled(table);
    checkRoundTrips(compiled, "compiled qlru k=4");

    CompiledPolicy target(table);
    EXPECT_THROW(target.unpackState(PackedState{table->numStates(), 0}),
                 UsageError);
}

/** The transition tables of one compiled automaton, as plain data. */
struct Tables
{
    std::vector<uint32_t> touchNext;
    std::vector<uint32_t> fillNext;
    std::vector<Way> victim;
    std::vector<std::string> keys;
};

Tables
tablesOf(const CompiledTable& table)
{
    Tables out;
    const unsigned k = table.ways();
    for (uint32_t s = 0; s < table.numStates(); ++s) {
        for (unsigned w = 0; w < k; ++w) {
            out.touchNext.push_back(table.touchNext(s, w));
            out.fillNext.push_back(table.fillNext(s, w));
        }
        out.victim.push_back(table.victim(s));
        out.keys.push_back(table.stateKey(s));
    }
    return out;
}

/**
 * Reference enumeration: breadth-first over stateKey() strings with
 * one clone per edge, touch edges before fill edges, states numbered
 * in discovery order. nullopt beyond @p maxStates.
 */
std::optional<Tables>
referenceTables(const ReplacementPolicy& proto, std::size_t maxStates)
{
    const unsigned k = proto.ways();
    Tables out;
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<PolicyPtr> states;
    const auto intern = [&](PolicyPtr&& policy) {
        std::string key = policy->stateKey();
        const auto [it, fresh] = ids.emplace(key, ids.size());
        if (fresh) {
            out.keys.push_back(std::move(key));
            states.push_back(std::move(policy));
        }
        return it->second;
    };
    PolicyPtr initial = proto.clone();
    initial->reset();
    intern(std::move(initial));
    for (uint32_t at = 0; at < states.size(); ++at) {
        if (states.size() > maxStates)
            return std::nullopt;
        out.victim.push_back(states[at]->victim());
        for (unsigned w = 0; w < k; ++w) {
            PolicyPtr next = states[at]->clone();
            next->touch(w);
            out.touchNext.push_back(intern(std::move(next)));
        }
        for (unsigned w = 0; w < k; ++w) {
            PolicyPtr next = states[at]->clone();
            next->fill(w);
            out.fillNext.push_back(intern(std::move(next)));
        }
    }
    return out;
}

void
expectSameTables(const Tables& got, const Tables& want,
                 const std::string& label)
{
    ASSERT_EQ(got.keys.size(), want.keys.size()) << label;
    for (std::size_t s = 0; s < want.keys.size(); ++s) {
        ASSERT_EQ(got.keys[s], want.keys[s]) << label << " state " << s;
        ASSERT_EQ(got.victim[s], want.victim[s])
            << label << " state " << s;
    }
    ASSERT_EQ(got.touchNext, want.touchNext) << label;
    ASSERT_EQ(got.fillNext, want.fillNext) << label;
}

constexpr uint32_t kReferenceMaxStates = 1u << 16;

class CompilePins : public ::testing::TestWithParam<std::size_t>
{};

/**
 * The default-budget outcome of every pinned spec at one
 * associativity, and, for tables of at most 2^16 states, the
 * element-by-element agreement with the reference BFS.
 */
TEST_P(CompilePins, MatchPinsAndReferenceBfs)
{
    const std::size_t wayIndex = GetParam();
    const unsigned ways = pins::kPinWays[wayIndex];
    for (const auto& pin : pins::kCompilePins) {
        const std::string label =
            std::string(pin.spec) + " k=" + std::to_string(ways);
        const int64_t pinned = pin.states[wayIndex];
        if (!specSupportsWays(pin.spec, ways)) {
            EXPECT_EQ(pinned, -1) << label;
            continue;
        }
        const CompiledTablePtr table = compiledTableFor(pin.spec, ways);
        EXPECT_EQ(table ? int64_t{table->numStates()} : 0, pinned)
            << label;
        if (!table || table->numStates() > kReferenceMaxStates)
            continue;
        const auto reference =
            referenceTables(*makePolicy(pin.spec, ways),
                            kReferenceMaxStates);
        ASSERT_TRUE(reference.has_value()) << label;
        expectSameTables(tablesOf(*table), *reference, label);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PerWays, CompilePins,
    ::testing::Range<std::size_t>(0, pins::kPinWays.size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        return "k" + std::to_string(pins::kPinWays[info.param]);
    });

TEST(CompileReference, LearnedAndCompiledPrototypesMatchReference)
{
    // Role semantics accepts every input from reset, so the learned
    // LRU role automaton compiles (concrete-block ones reject touches
    // of empty ways).
    const learn::LearnedPolicy roles = learnedLruRoles(4);
    const CompiledTablePtr table = compilePolicy(roles);
    ASSERT_NE(table, nullptr);
    const auto reference = referenceTables(roles, kReferenceMaxStates);
    ASSERT_TRUE(reference.has_value());
    expectSameTables(tablesOf(*table), *reference, roles.name());

    // Compiling a compiled automaton reproduces its table.
    const CompiledTablePtr srrip = compiledTableFor("srrip", 4);
    ASSERT_NE(srrip, nullptr);
    const CompiledTablePtr again = compilePolicy(CompiledPolicy(srrip));
    ASSERT_NE(again, nullptr);
    expectSameTables(tablesOf(*again), tablesOf(*srrip), "srrip k=4");
}

/**
 * A policy without a packed encoding is refused before any
 * enumeration, even when no budget would ever stop it.
 */
TEST(CompileRefusal, UnpackablePoliciesAreRefusedAtOnce)
{
    const CompileBudget unbounded{std::numeric_limits<uint64_t>::max(),
                                  std::numeric_limits<uint64_t>::max()};
    for (const unsigned ways : {2u, 8u, 16u}) {
        for (const char* spec : {"random", "ship", "eaf"}) {
            const PolicyPtr policy = makePolicy(spec, ways);
            EXPECT_EQ(compilePolicy(*policy, unbounded), nullptr)
                << spec << " k=" << ways;
            EXPECT_THROW(policy->clone()->unpackState(PackedState{}),
                         UsageError)
                << spec << " k=" << ways;
        }
    }
    EXPECT_EQ(compilePolicy(*makePolicy("dip", 24), unbounded), nullptr);
}

/**
 * A concrete-block learned automaton rejects a touch of a way it
 * never filled, and the enumeration touches every way from reset: it
 * has no total table, so it is refused rather than thrown out of.
 */
TEST(CompileRefusal, ConcreteBlockLearnedPoliciesAreRefused)
{
    unsigned concrete = 0;
    for (const learn::LearnedPolicy& learned : learnedPolicies()) {
        if (learned.semantics() != learn::SymbolSemantics::kConcreteBlocks)
            continue;
        ++concrete;
        EXPECT_EQ(compilePolicy(learned), nullptr) << learned.name();
    }
    EXPECT_EQ(concrete, 5u);
}

} // namespace
} // namespace recap::policy
