/**
 * @file
 * Observation-table invariant tests: fill/closedness/consistency
 * bookkeeping against a known machine, the prefix-closure discipline,
 * and the L* invariants (closed + consistent after every refinement,
 * bounded suffix growth) checked on a real learning run.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/observation_table.hh"
#include "recap/learn/teacher.hh"
#include "recap/query/oracle.hh"

namespace
{

using namespace recap;
using learn::MealyMachine;
using learn::ObservationTable;
using learn::Word;

/** One output byte per position (1 for a hit), as PrefixStore reads. */
std::vector<uint8_t>
bytesOf(const std::vector<bool>& outputs)
{
    return {outputs.begin(), outputs.end()};
}

/** s0 --0/miss--> s1, s0 --1/miss--> s0, s1 --0/hit--> s1,
 *  s1 --1/miss--> s0 (distinguishable by single-symbol suffixes). */
MealyMachine
sul()
{
    MealyMachine m(2, 2);
    m.setTransition(0, 0, 1, false);
    m.setTransition(0, 1, 0, false);
    m.setTransition(1, 0, 1, true);
    m.setTransition(1, 1, 0, false);
    return m;
}

/** Answers every missing word from @p machine until filled. */
void
fillFrom(ObservationTable& table, const MealyMachine& machine)
{
    while (true) {
        const auto missing = table.missingWords();
        if (missing.empty())
            break;
        for (const Word& w : missing) {
            const auto rec =
                table.store().record(w, bytesOf(machine.run(w)));
            ASSERT_TRUE(rec.consistent);
        }
    }
}

TEST(ObservationTable, StartsWithEpsilonAndSingleSymbolSuffixes)
{
    const ObservationTable table(3);
    ASSERT_EQ(table.prefixes().size(), 1u);
    EXPECT_TRUE(table.prefixes()[0].empty());
    ASSERT_EQ(table.suffixes().size(), 3u);
    for (unsigned a = 0; a < 3; ++a)
        EXPECT_EQ(table.suffixes()[a], Word{a});
    EXPECT_FALSE(table.filled());
    EXPECT_FALSE(table.missingWords().empty());
}

TEST(ObservationTable, RejectsEmptyAlphabet)
{
    EXPECT_THROW(ObservationTable(0), UsageError);
}

TEST(ObservationTable, FillCloseAndRebuildTheMachine)
{
    ObservationTable table(2);
    fillFrom(table, sul());
    EXPECT_TRUE(table.filled());

    // {ε} alone is not closed: row(0) reaches the second state.
    Word witness;
    ASSERT_FALSE(table.isClosed(&witness));
    EXPECT_EQ(witness, Word{0});
    EXPECT_TRUE(table.promote(witness));
    fillFrom(table, sul());
    EXPECT_TRUE(table.isClosed());
    EXPECT_TRUE(table.isConsistent());

    std::vector<Word> accessWords;
    const auto hypothesis = table.buildHypothesis(&accessWords);
    EXPECT_EQ(hypothesis.numStates(), 2u);
    ASSERT_EQ(accessWords.size(), 2u);
    EXPECT_TRUE(accessWords[0].empty()); // state 0 = row(ε)
    EXPECT_TRUE(hypothesis.isomorphicTo(sul()));
}

TEST(ObservationTable, RowKeysSeparateDistinctStates)
{
    ObservationTable table(2);
    fillFrom(table, sul());
    table.promote({0});
    fillFrom(table, sul());
    EXPECT_NE(table.rowKey({}), table.rowKey({0}));
    EXPECT_EQ(table.rowKey({}), table.rowKey({1}));
    EXPECT_EQ(table.rowKey({0}), table.rowKey({0, 0}));
}

TEST(ObservationTable, PromoteEnforcesPrefixClosure)
{
    ObservationTable table(2);
    // {0, 1} does not extend a current S prefix by one symbol.
    EXPECT_THROW(table.promote({0, 1}), UsageError);
    EXPECT_TRUE(table.promote({0}));
    EXPECT_FALSE(table.promote({0})); // idempotent no-op
    EXPECT_TRUE(table.promote({0, 1}));
}

TEST(ObservationTable, AddSuffixDeduplicates)
{
    ObservationTable table(2);
    EXPECT_FALSE(table.addSuffix({0})); // single symbols preseeded
    EXPECT_TRUE(table.addSuffix({0, 1}));
    EXPECT_FALSE(table.addSuffix({0, 1}));
    EXPECT_EQ(table.suffixes().size(), 3u);
    EXPECT_THROW(table.addSuffix({}), UsageError);
}

TEST(ObservationTable, AddingSuffixesReopensFilling)
{
    ObservationTable table(2);
    fillFrom(table, sul());
    ASSERT_TRUE(table.filled());
    table.addSuffix({1, 0});
    EXPECT_FALSE(table.filled());
    fillFrom(table, sul());
    EXPECT_TRUE(table.filled());
}

TEST(ObservationTable, BuildHypothesisRequiresFilledTable)
{
    const ObservationTable table(2);
    EXPECT_THROW(table.buildHypothesis(), UsageError);
}

/**
 * The word-keyed store the observation tree replaced, kept as the
 * reference: one map entry per recorded prefix, first recording wins.
 */
class MapStore
{
  public:
    learn::PrefixStore::Recording
    record(const Word& word, const std::vector<bool>& outputs)
    {
        learn::PrefixStore::Recording recording;
        Word prefix;
        for (std::size_t i = 0; i < word.size(); ++i) {
            prefix.push_back(word[i]);
            const auto [it, inserted] =
                outcomes_.try_emplace(prefix, outputs[i]);
            if (!inserted && it->second != outputs[i]) {
                recording.consistent = false;
                recording.conflictAt = i + 1;
                return recording;
            }
        }
        return recording;
    }

    int lookup(const Word& word) const
    {
        const auto it = outcomes_.find(word);
        return it == outcomes_.end() ? -1 : it->second ? 1 : 0;
    }

    std::size_t size() const { return outcomes_.size(); }

    std::optional<Word> firstMismatch(const MealyMachine& machine) const
    {
        std::optional<Word> best;
        for (const auto& [word, outcome] : outcomes_) {
            if (best && word.size() >= best->size())
                continue;
            if (machine.lastOutput(word) != outcome)
                best = word;
        }
        return best;
    }

  private:
    std::map<Word, bool> outcomes_;
};

MealyMachine
randomMachine(Rng& rng, unsigned states, unsigned alphabet)
{
    MealyMachine m(states, alphabet);
    for (unsigned s = 0; s < states; ++s)
        for (learn::Symbol a = 0; a < alphabet; ++a)
            m.setTransition(s, a,
                            static_cast<unsigned>(rng.nextBelow(states)),
                            rng.nextBool(0.5));
    return m;
}

/** Words that often extend or share a prefix with earlier ones. */
Word
randomWord(Rng& rng, unsigned alphabet, const std::vector<Word>& earlier)
{
    Word word;
    if (!earlier.empty() && rng.nextBool(0.7)) {
        const Word& base = earlier[rng.nextBelow(earlier.size())];
        word.assign(base.begin(),
                    base.begin() + static_cast<std::ptrdiff_t>(
                                       rng.nextBelow(base.size() + 1)));
    }
    const auto extra = rng.nextBelow(9);
    for (uint64_t i = 0; i < extra; ++i)
        word.push_back(static_cast<learn::Symbol>(rng.nextBelow(alphabet)));
    return word;
}

TEST(ObservationTable, StoreMatchesMapReferenceOnRandomWords)
{
    for (const unsigned alphabet : {2u, 5u, 17u, 33u}) {
        Rng rng(1000 + alphabet);
        const MealyMachine truth = randomMachine(rng, 6, alphabet);
        learn::PrefixStore tree;
        MapStore map;
        std::vector<Word> words;
        unsigned conflicts = 0;
        for (unsigned n = 0; n < 3000; ++n) {
            const Word word = randomWord(rng, alphabet, words);
            std::vector<bool> outputs = truth.run(word);
            // A garbled answer now and then: one flipped position.
            if (!word.empty() && rng.nextBool(0.05)) {
                const auto at = rng.nextBelow(word.size());
                outputs[at] = !outputs[at];
            }
            const auto got = tree.record(word, bytesOf(outputs));
            const auto want = map.record(word, outputs);
            ASSERT_EQ(got.consistent, want.consistent) << alphabet;
            ASSERT_EQ(got.conflictAt, want.conflictAt) << alphabet;
            if (!got.consistent) {
                // The first recording wins.
                ++conflicts;
                const Word prefix(word.begin(),
                                  word.begin() + static_cast<std::ptrdiff_t>(
                                                     got.conflictAt));
                EXPECT_EQ(tree.lookup(prefix),
                          outputs[got.conflictAt - 1] ? 0 : 1);
            }
            words.push_back(word);
        }
        EXPECT_GT(conflicts, 0u) << alphabet;
        EXPECT_EQ(tree.size(), map.size()) << alphabet;
        EXPECT_EQ(tree.lookup({}), -1);
        EXPECT_EQ(map.lookup({}), -1);
        for (unsigned n = 0; n < 3000; ++n) {
            // Recorded words, their prefixes, and (mostly) unknown ones.
            const Word word = n % 2 == 0
                                  ? words[rng.nextBelow(words.size())]
                                  : randomWord(rng, alphabet, {});
            for (std::size_t len = 0; len <= word.size(); ++len) {
                const Word prefix(word.begin(),
                                  word.begin() +
                                      static_cast<std::ptrdiff_t>(len));
                ASSERT_EQ(tree.lookup(prefix), map.lookup(prefix))
                    << alphabet;
            }
        }
        unsigned mismatched = 0;
        for (unsigned m = 0; m < 20; ++m) {
            const MealyMachine machine =
                m == 0 ? truth : randomMachine(rng, 1 + m % 7, alphabet);
            const auto got = tree.firstMismatch(machine);
            EXPECT_EQ(got, map.firstMismatch(machine)) << alphabet;
            mismatched += got.has_value();
        }
        EXPECT_GT(mismatched, 0u) << alphabet;
    }
}

TEST(ObservationTable, StoreOfCleanAnswersHasNoMismatch)
{
    for (const unsigned alphabet : {2u, 5u, 17u, 33u}) {
        Rng rng(2000 + alphabet);
        const MealyMachine truth = randomMachine(rng, 5, alphabet);
        learn::PrefixStore tree;
        MapStore map;
        std::vector<Word> words;
        for (unsigned n = 0; n < 500; ++n) {
            words.push_back(randomWord(rng, alphabet, words));
            ASSERT_TRUE(tree.record(words.back(),
                                    bytesOf(truth.run(words.back())))
                            .consistent);
            map.record(words.back(), truth.run(words.back()));
        }
        EXPECT_EQ(tree.firstMismatch(truth), std::nullopt) << alphabet;
        EXPECT_EQ(map.firstMismatch(truth), std::nullopt) << alphabet;
    }
}

TEST(ObservationTable, LearnerMaintainsInvariantsAndSuffixBound)
{
    // After a real learning session the final table must be filled,
    // closed, and consistent, with |E| bounded by the preseeded
    // single-symbol suffixes plus one suffix per refinement (the
    // Rivest–Schapire discipline adds at most one suffix each).
    query::PolicyOracle oracle("plru", 4);
    learn::OracleTeacher teacher(oracle);
    learn::LStarLearner learner(teacher);
    const auto result = learner.run();
    ASSERT_EQ(result.outcome, learn::LearnOutcome::kLearned);

    const ObservationTable& table = learner.table();
    EXPECT_TRUE(table.filled());
    EXPECT_TRUE(table.isClosed());
    EXPECT_TRUE(table.isConsistent());
    EXPECT_EQ(table.suffixes().size(), result.suffixCount);
    EXPECT_LE(result.suffixCount,
              table.alphabet() + result.refinements);
    EXPECT_GE(table.prefixes().size(),
              static_cast<std::size_t>(result.states));
}

} // namespace
