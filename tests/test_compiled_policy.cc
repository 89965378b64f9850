/**
 * @file
 * Differential tests of the compiled policy automata: a
 * CompiledPolicy must be bit-exact against the interpreted policy it
 * was compiled from — same victims, same state keys — under long
 * random input words, under clone/reset interleavings, and must fall
 * back cleanly when the state space exceeds the compile budget. The
 * metadata-aware sweep over the whole catalog, modern policies
 * included, is tests/test_catalog_differential.cc.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{
namespace
{

/** Budget these tests compile under: generous enough for every
 * tractable catalog automaton, small enough that intractable ones
 * (16-way true LRU, BIP's epoch counter) abort quickly. 16-way gets
 * a tighter cap, since its tractable automata (PLRU, FIFO) are
 * small. */
CompileBudget
testBudget(unsigned ways = 8)
{
    CompileBudget budget;
    budget.maxStates = ways >= 16 ? (1u << 15) : (1u << 16);
    return budget;
}

class CompiledDifferential
    : public ::testing::TestWithParam<std::string>
{};

/**
 * 10k random touch/fill inputs in lockstep, comparing victim() at
 * every step and stateKey() throughout. Covers ways 2/4/8/16 (where
 * the spec supports them); specs whose automaton exceeds the budget
 * at a given associativity are exercised via the fallback test
 * below instead.
 */
TEST_P(CompiledDifferential, LockstepAgainstInterpreted)
{
    const std::string spec = GetParam();
    for (const unsigned ways : {2u, 4u, 8u, 16u}) {
        if (!specSupportsWays(spec, ways))
            continue;
        const CompiledTablePtr table =
            compiledTableFor(spec, ways, testBudget(ways));
        if (!table)
            continue; // over budget here; see OverBudgetFallsBack
        ASSERT_EQ(table->ways(), ways);

        PolicyPtr interpreted = makePolicy(spec, ways);
        CompiledPolicy compiled(table);
        interpreted->reset();
        compiled.reset();
        ASSERT_EQ(compiled.name(), interpreted->name());

        Rng rng(0xC0FFEE ^ ways);
        uint64_t hits = 0;
        for (unsigned step = 0; step < 10000; ++step) {
            ASSERT_EQ(compiled.victim(), interpreted->victim())
                << spec << " k=" << ways << " step " << step;
            if (rng.nextBelow(2) == 0) {
                const Way w =
                    static_cast<Way>(rng.nextBelow(ways));
                compiled.touch(w);
                interpreted->touch(w);
                ++hits;
            } else {
                const Way w =
                    static_cast<Way>(rng.nextBelow(ways));
                compiled.fill(w);
                interpreted->fill(w);
            }
            if (step % 64 == 0) {
                ASSERT_EQ(compiled.stateKey(),
                          interpreted->stateKey())
                    << spec << " k=" << ways << " step " << step;
            }
        }
        EXPECT_GT(hits, 0u);
        EXPECT_EQ(compiled.stateKey(), interpreted->stateKey())
            << spec << " k=" << ways << " final state";
    }
}

/**
 * Fuzz: interleave clone(), reset(), touch() and fill() and keep
 * comparing — clones must be independent of their source, and reset
 * must land both sides back on the same state.
 */
TEST_P(CompiledDifferential, CloneResetFillFuzz)
{
    const std::string spec = GetParam();
    const unsigned ways = 4;
    if (!specSupportsWays(spec, ways))
        GTEST_SKIP() << spec << " does not support 4 ways";
    const CompiledTablePtr table =
        compiledTableFor(spec, ways, testBudget());
    if (!table)
        GTEST_SKIP() << spec << " exceeds the compile budget";

    PolicyPtr interpreted = makePolicy(spec, ways);
    PolicyPtr compiled = std::make_unique<CompiledPolicy>(table);
    interpreted->reset();
    compiled->reset();

    Rng rng(2026);
    for (unsigned step = 0; step < 2000; ++step) {
        switch (rng.nextBelow(8)) {
          case 0: {
            // Continue on clones; mutate the originals afterwards to
            // prove the clones do not alias them.
            PolicyPtr interpretedClone = interpreted->clone();
            PolicyPtr compiledClone = compiled->clone();
            interpreted->fill(0);
            compiled->fill(0);
            interpreted = std::move(interpretedClone);
            compiled = std::move(compiledClone);
            break;
          }
          case 1:
            interpreted->reset();
            compiled->reset();
            break;
          case 2:
          case 3:
          case 4: {
            const Way w = static_cast<Way>(rng.nextBelow(ways));
            interpreted->touch(w);
            compiled->touch(w);
            break;
          }
          default: {
            const Way w = static_cast<Way>(rng.nextBelow(ways));
            interpreted->fill(w);
            compiled->fill(w);
            break;
          }
        }
        ASSERT_EQ(compiled->victim(), interpreted->victim())
            << spec << " step " << step;
        ASSERT_EQ(compiled->stateKey(), interpreted->stateKey())
            << spec << " step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CompiledDifferential,
    ::testing::ValuesIn(baselineSpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/**
 * Regression: over-budget (or inherently unbounded) state spaces
 * must yield a clean fallback — compiledTableFor says no, and
 * makeCompiledOrFallback hands back the interpreted policy with
 * unchanged behaviour.
 */
TEST(CompiledFallback, OverBudgetFallsBack)
{
    // Stochastic policy: its state key encodes an unbounded RNG
    // draw counter, so enumeration can never terminate in budget.
    EXPECT_EQ(compiledTableFor("random", 8, testBudget()), nullptr);

    // Deliberately tiny budget: true LRU at 4 ways has 4! = 24
    // states, more than the 8 allowed here.
    CompileBudget tiny;
    tiny.maxStates = 8;
    EXPECT_EQ(compiledTableFor("lru", 4, tiny), nullptr);

    // The fallback is the interpreted policy, not a wrapper...
    PolicyPtr fallback = makeCompiledOrFallback("lru", 4, 1, tiny);
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(dynamic_cast<CompiledPolicy*>(fallback.get()), nullptr);

    // ...and behaves exactly like one built directly.
    PolicyPtr reference = makePolicy("lru", 4);
    reference->reset();
    fallback->reset();
    Rng rng(99);
    for (unsigned step = 0; step < 500; ++step) {
        const Way w = static_cast<Way>(rng.nextBelow(4));
        if (rng.nextBelow(2) == 0) {
            reference->touch(w);
            fallback->touch(w);
        } else {
            reference->fill(w);
            fallback->fill(w);
        }
        ASSERT_EQ(fallback->victim(), reference->victim());
        ASSERT_EQ(fallback->stateKey(), reference->stateKey());
    }

    // With an adequate budget the same call compiles.
    PolicyPtr compiled = makeCompiledOrFallback("lru", 4, 1);
    ASSERT_NE(compiled, nullptr);
    EXPECT_NE(dynamic_cast<CompiledPolicy*>(compiled.get()), nullptr);
    EXPECT_EQ(compiled->name(), reference->name());
}

/** The memoized lookup returns one shared table per (spec, ways). */
TEST(CompiledFallback, TableIsMemoized)
{
    const CompiledTablePtr a = compiledTableFor("plru", 8, {});
    const CompiledTablePtr b = compiledTableFor("plru", 8, {});
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->numStates(), 128u); // 2^(8-1) PLRU tree states
}

/**
 * One memo entry per (spec, ways) answers every budget as
 * compilePolicy() would: a stored table serves the budgets it fits,
 * and a refusal under a narrow budget does not hide the table a wider
 * one admits. The spec is used by no other test, so the narrow budget
 * is asked first.
 */
TEST(CompiledFallback, MemoAnswersEveryBudgetAsCompilePolicy)
{
    const std::string spec = "qlru:H0,M2,R1,U1";
    const CompiledTablePtr reference = compilePolicy(*makePolicy(spec, 4));
    ASSERT_NE(reference, nullptr);
    const uint32_t n = reference->numStates();
    const uint64_t bytes = reference->budgetBytes();
    // Two 4-byte successors per way, a 2-byte victim and a 16-byte
    // pack per state.
    EXPECT_EQ(bytes, uint64_t{n} * (8 * 4 + 18));
    CompileBudget below;
    below.maxStates = n - 1;
    CompileBudget exact;
    exact.maxStates = n;
    exact.maxTableBytes = bytes;
    CompileBudget tight = exact;
    tight.maxTableBytes = bytes - 1;

    EXPECT_EQ(compiledTableFor(spec, 4, below), nullptr);
    const CompiledTablePtr table = compiledTableFor(spec, 4, exact);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->numStates(), n);
    EXPECT_EQ(table->budgetBytes(), bytes);
    EXPECT_EQ(compiledTableFor(spec, 4, {}).get(), table.get());
    for (const CompileBudget& budget : {below, exact, tight, CompileBudget{}})
        EXPECT_EQ(compiledTableFor(spec, 4, budget) != nullptr,
                  compilePolicy(*makePolicy(spec, 4), budget) != nullptr)
            << budget.maxStates << " states, " << budget.maxTableBytes
            << " bytes";
}

/**
 * CompiledPolicy::stateKey() builds each key on demand from the
 * table's packs; instances sharing one table read keys from several
 * threads at once and agree with a serial read and with the
 * interpreted policy.
 */
TEST(CompiledStateKey, ConcurrentReadsMatchSerial)
{
    const std::string spec = "srrip";
    const CompiledTablePtr table = compiledTableFor(spec, 4);
    ASSERT_NE(table, nullptr);
    const uint32_t n = table->numStates();
    std::vector<std::string> serial(n);
    for (uint32_t s = 0; s < n; ++s)
        serial[s] = table->stateKey(s);

    // The interpreted policy walked in lockstep reads the same keys.
    CompiledPolicy compiled(table);
    const PolicyPtr interpreted = makePolicy(spec, 4);
    Rng rng(11);
    for (unsigned i = 0; i < 2000; ++i) {
        const Way way = static_cast<Way>(rng.nextBelow(4));
        if (rng.nextBool(0.5)) {
            compiled.touch(way);
            interpreted->touch(way);
        } else {
            compiled.fill(way);
            interpreted->fill(way);
        }
        ASSERT_EQ(serial[compiled.stateIndex()], interpreted->stateKey());
    }

    constexpr unsigned kThreads = 4;
    std::vector<unsigned> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            CompiledPolicy policy(table);
            for (uint32_t round = 0; round < 4; ++round) {
                for (uint32_t s = t; s < n; s += 1 + round) {
                    policy.unpackState(PackedState{s, 0});
                    mismatches[t] += policy.stateKey() != serial[s];
                }
            }
        });
    }
    for (std::thread& thread : threads)
        thread.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

/** Unknown specs and unsupported associativities never compile. */
TEST(CompiledFallback, RejectsInvalidSpecs)
{
    EXPECT_EQ(compiledTableFor("no-such-policy", 8, {}), nullptr);
    EXPECT_EQ(compiledTableFor("plru", 3, {}), nullptr);
}

} // namespace
} // namespace recap::policy
