/**
 * @file
 * The compiled-policy differential harness: every registered factory
 * spec — baseline and modern — at 2, 4, 8 and 16 ways must either
 * compile to a table that is bit-exact against its interpreted
 * automaton under long fuzz words, or provably fall back to
 * interpretation. Compile outcomes for the modern dueling policies
 * are pinned per associativity so a budget or state-space regression
 * is caught immediately.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "recap/common/rng.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{
namespace
{

/** Budget the harness compiles under: generous enough for every
 * tractable catalog automaton, small enough that intractable ones
 * (16-way true LRU, BIP's epoch counter) abort quickly. 16-way gets
 * a tighter cap, since its tractable automata (PLRU, FIFO) are
 * small. */
CompileBudget
testBudget(unsigned ways)
{
    CompileBudget budget;
    budget.maxStates = ways >= 16 ? (1u << 15) : (1u << 16);
    return budget;
}

/**
 * 10k fuzz inputs in lockstep, comparing victim() every step and
 * stateKey() periodically. Metadata-consuming policies get the same
 * AccessMeta published to both sides, so SHiP/EAF are exercised
 * through their side channel as well.
 */
void
lockstep(ReplacementPolicy& a, ReplacementPolicy& b,
         const std::string& spec, unsigned ways, bool compareKeys)
{
    a.reset();
    b.reset();
    Rng rng(0xD1FF ^ ways);
    for (unsigned step = 0; step < 10000; ++step) {
        ASSERT_EQ(a.victim(), b.victim())
            << spec << " k=" << ways << " step " << step;
        if (a.usesMeta()) {
            AccessMeta meta;
            meta.block = rng.nextBelow(2 * ways);
            meta.hasBlock = true;
            meta.pc = 0x400000 + 4 * rng.nextBelow(8);
            meta.hasPc = true;
            a.beginAccess(meta);
            b.beginAccess(meta);
        }
        const Way w = static_cast<Way>(rng.nextBelow(ways));
        if (rng.nextBelow(2) == 0) {
            a.touch(w);
            b.touch(w);
        } else {
            a.fill(w);
            b.fill(w);
        }
        if (compareKeys && step % 64 == 0) {
            ASSERT_EQ(a.stateKey(), b.stateKey())
                << spec << " k=" << ways << " step " << step;
        }
    }
    if (compareKeys) {
        ASSERT_EQ(a.stateKey(), b.stateKey())
            << spec << " k=" << ways << " final state";
    }
}

class CatalogDifferential : public ::testing::TestWithParam<std::string>
{};

/**
 * The sweep: for each catalog spec and associativity, compiled vs
 * interpreted when a table exists, fallback vs interpreted when not.
 * Either way the pair must stay bit-equal for 10k accesses.
 */
TEST_P(CatalogDifferential, CompiledOrFallbackStaysBitEqual)
{
    const std::string spec = GetParam();
    for (const unsigned ways : {2u, 4u, 8u, 16u}) {
        if (!specSupportsWays(spec, ways))
            continue;
        PolicyPtr interpreted = makePolicy(spec, ways, 1);
        const CompiledTablePtr table =
            compiledTableFor(spec, ways, testBudget(ways));
        if (table) {
            ASSERT_FALSE(interpreted->usesMeta())
                << spec << ": metadata policies must never compile";
            ASSERT_EQ(table->ways(), ways);
            CompiledPolicy compiled(table);
            ASSERT_EQ(compiled.name(), interpreted->name());
            lockstep(compiled, *interpreted, spec, ways, true);
        } else {
            PolicyPtr fallback =
                makeCompiledOrFallback(spec, ways, 1, testBudget(ways));
            ASSERT_NE(fallback, nullptr);
            EXPECT_EQ(dynamic_cast<CompiledPolicy*>(fallback.get()),
                      nullptr)
                << spec << " k=" << ways
                << ": over-budget spec must fall back";
            // stateKey comparison included: the fallback is the same
            // interpreted automaton type.
            lockstep(*fallback, *interpreted, spec, ways, true);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    FullCatalog, CatalogDifferential,
    ::testing::ValuesIn(catalogSpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** The modern specs ride in catalogSpecs(); pin the roster. */
TEST(CatalogRoster, ModernSpecsAreRegistered)
{
    const auto catalog = catalogSpecs();
    for (const auto& spec : modernSpecs()) {
        EXPECT_NE(std::find(catalog.begin(), catalog.end(), spec),
                  catalog.end())
            << spec << " missing from catalogSpecs()";
    }
    EXPECT_EQ(catalog.size(),
              baselineSpecs().size() + modernSpecs().size());
}

/**
 * Pinned compile outcomes for the dueling automata: which (spec,
 * ways) pairs fit the differential suite's budget, and at exactly
 * how many states. A drift here means the state encoding changed —
 * deliberate changes update the pins, accidents get caught.
 */
TEST(CatalogRoster, ModernCompileOutcomesArePinned)
{
    struct Pin
    {
        const char* spec;
        unsigned ways;
        unsigned states; // 0 = must fall back
    };
    const Pin pins[] = {
        {"dip", 2, 8192},          {"dip", 4, 0},
        {"dip", 8, 0},             {"drrip", 2, 48512},
        {"drrip", 4, 0},           {"drrip", 8, 0},
        {"dip:4,3,4", 2, 1024},    {"dip:4,3,4", 4, 12288},
        {"dip:4,3,4", 8, 0},       {"drrip:1,4,3,4", 2, 1716},
        {"drrip:1,4,3,4", 4, 7860}, {"drrip:1,4,3,4", 8, 0},
    };
    for (const Pin& pin : pins) {
        const CompiledTablePtr table =
            compiledTableFor(pin.spec, pin.ways, testBudget(pin.ways));
        if (pin.states == 0) {
            EXPECT_EQ(table, nullptr)
                << pin.spec << " k=" << pin.ways;
        } else {
            ASSERT_NE(table, nullptr)
                << pin.spec << " k=" << pin.ways;
            EXPECT_EQ(table->numStates(), pin.states)
                << pin.spec << " k=" << pin.ways;
        }
    }
    // Default budget admits the 2-way duelers too.
    EXPECT_NE(compiledTableFor("dip", 2, {}), nullptr);
}

/**
 * SHiP and EAF consume out-of-band metadata the compiled table
 * cannot see; compiling them would diverge silently the moment a PC
 * or block id arrives. They must refuse even absurd budgets.
 */
TEST(CatalogRoster, MetadataPoliciesNeverCompile)
{
    CompileBudget generous;
    generous.maxStates = 1u << 20;
    for (const char* spec : {"ship", "eaf", "ship:2,6,3", "eaf:8,32"}) {
        EXPECT_TRUE(makePolicy(spec, 4)->usesMeta()) << spec;
        EXPECT_EQ(compiledTableFor(spec, 2, generous), nullptr) << spec;
        EXPECT_EQ(compiledTableFor(spec, 4, generous), nullptr) << spec;
        // The factory path degrades to interpretation, not an error.
        PolicyPtr fallback =
            makeCompiledOrFallback(spec, 4, 1, generous);
        ASSERT_NE(fallback, nullptr) << spec;
        EXPECT_EQ(dynamic_cast<CompiledPolicy*>(fallback.get()),
                  nullptr)
            << spec;
    }
}

} // namespace
} // namespace recap::policy
