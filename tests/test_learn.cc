/**
 * @file
 * Tests for the L* learner: exact recovery of catalog policies
 * (isomorphism against the extracted ground-truth automaton),
 * recency-role learning at high associativity, and the abstention
 * paths (budgets, undetermined answers, low confidence, garbled
 * teachers) — the learner must never return a wrong automaton.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/learn/learned_policy.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/query/oracle.hh"

namespace
{

using namespace recap;
using learn::LearnOptions;
using learn::LearnOutcome;
using learn::LearnResult;
using learn::LStarLearner;
using learn::MealyMachine;
using learn::SymbolSemantics;
using learn::TeacherAnswers;
using learn::Word;

MealyMachine
truthOf(const std::string& spec, unsigned ways)
{
    const auto policy = policy::makePolicy(spec, ways);
    return learn::automatonOfPolicy(*policy, ways + 1).minimized();
}

LearnResult
learnPolicy(const std::string& spec, unsigned ways,
            LearnOptions options = {}, bool useReference = false)
{
    query::PolicyOracle oracle(spec, ways);
    learn::OracleTeacher teacher(oracle);
    LStarLearner learner(teacher, options);
    if (useReference)
        learner.setReference(truthOf(spec, ways));
    return learner.run();
}

void
expectExactRecovery(const std::string& spec, unsigned ways,
                    bool useReference = false)
{
    const auto result = learnPolicy(spec, ways, {}, useReference);
    ASSERT_EQ(result.outcome, LearnOutcome::kLearned)
        << spec << "@" << ways << ": " << result.diagnostics;
    const auto truth = truthOf(spec, ways);
    EXPECT_TRUE(result.machine.minimized().isomorphicTo(truth))
        << spec << "@" << ways << " learned " << result.states
        << " states, truth has " << truth.numStates();
    if (useReference) {
        // The product-BFS oracle proves equivalence outright.
        EXPECT_DOUBLE_EQ(result.equivalenceConfidence, 1.0);
    } else {
        // Sampled equivalence never claims certainty, only evidence.
        EXPECT_GT(result.equivalenceConfidence, 0.99);
        EXPECT_LT(result.equivalenceConfidence, 1.0);
    }
    EXPECT_GT(result.membershipWords, 0u);
    EXPECT_GT(result.accessesUsed, result.membershipWords);
}

/** Lockstep hit/miss mismatches of @p model against @p truthSpec. */
unsigned
lockstepMismatches(const policy::ReplacementPolicy& model,
                   const std::string& truthSpec, unsigned ways,
                   unsigned accesses)
{
    policy::SetModel learned(model.clone());
    policy::SetModel truth(policy::makePolicy(truthSpec, ways));
    Rng rng(123);
    unsigned mismatches = 0;
    for (unsigned i = 0; i < accesses; ++i) {
        if (i % 256 == 255) {
            learned.flush();
            truth.flush();
        }
        const auto block =
            static_cast<policy::BlockId>(rng.nextBelow(ways + 3) + 1);
        if (learned.access(block) != truth.access(block))
            ++mismatches;
    }
    return mismatches;
}

TEST(Learn, ExactRecoveryAtTwoWays)
{
    for (const char* spec :
         {"lru", "fifo", "plru", "bitplru", "nru", "lip",
          "qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2"}) {
        expectExactRecovery(spec, 2);
    }
}

TEST(Learn, ExactRecoveryAtThreeWays)
{
    expectExactRecovery("lru", 3);
    expectExactRecovery("fifo", 3);
}

TEST(Learn, ExactRecoveryAtFourWaysWithReferenceOracle)
{
    // 206–611-state machines: the sampled equivalence phase still
    // converges but the complete W-method pass dominates runtime, so
    // the exact reference oracle stands in (the sampling path is
    // exercised at 2–3 ways above and in bench_learn_cost).
    for (const char* spec : {"lru", "fifo", "plru", "lip", "slru:1",
                             "slru"}) {
        expectExactRecovery(spec, 4, /*useReference=*/true);
    }
}

TEST(Learn, SampledEquivalenceMatchesReferenceAtFourWays)
{
    // The sampling path (random words + bounded W-method, no ground
    // truth) must find the same machine the reference oracle proves.
    LearnOptions options;
    const auto sampled = learnPolicy("plru", 4, options);
    ASSERT_EQ(sampled.outcome, LearnOutcome::kLearned)
        << sampled.diagnostics;
    EXPECT_TRUE(sampled.machine.minimized().isomorphicTo(
        truthOf("plru", 4)));
}

TEST(Learn, SampledRunsAtFourWaysPinWordsAndAccesses)
{
    // The words L* asks follow only from its promotion order and
    // batches, so the learner's bookkeeping can change without
    // moving a single count below. The teacher's experiments and
    // batch statistics pin how the query evaluator shares them.
    struct Pin
    {
        const char* spec;
        uint64_t membershipWords;
        uint64_t equivalenceWords;
        uint64_t accesses;
        unsigned refinements;
        unsigned suffixCount;
        uint64_t experiments;
        query::BatchStats stats;
    };
    const Pin pins[] = {
        {"lru", 175'715, 155'992, 296'169, 16, 21, 111'678,
         {175'715, 1'593'467, 296'169, 111'678, 64'037, 1'297'298}},
        {"plru", 384'592, 185'656, 583'237, 20, 25, 233'229,
         {384'592, 3'567'955, 583'237, 233'229, 151'363, 2'984'718}},
        {"fifo", 209'481, 185'656, 601'902, 20, 25, 132'194,
         {209'481, 2'149'574, 601'902, 132'194, 77'287, 1'547'672}}};
    for (const Pin& pin : pins) {
        LearnOptions options;
        options.numThreads = 1;
        query::PolicyOracle oracle(pin.spec, 4);
        learn::OracleTeacher teacher(oracle);
        const auto result = LStarLearner(teacher, options).run();
        ASSERT_EQ(result.outcome, LearnOutcome::kLearned)
            << pin.spec << ": " << result.diagnostics;
        EXPECT_EQ(result.states, 206u) << pin.spec;
        EXPECT_TRUE(result.machine.isomorphicTo(truthOf(pin.spec, 4)))
            << pin.spec;
        EXPECT_EQ(result.membershipWords, pin.membershipWords) << pin.spec;
        EXPECT_EQ(result.equivalenceWords, pin.equivalenceWords)
            << pin.spec;
        EXPECT_EQ(result.accessesUsed, pin.accesses) << pin.spec;
        EXPECT_EQ(result.refinements, pin.refinements) << pin.spec;
        EXPECT_EQ(result.suffixCount, pin.suffixCount) << pin.spec;
        EXPECT_EQ(teacher.experimentsUsed(), pin.experiments) << pin.spec;
        const query::BatchStats& stats = teacher.batchStats();
        EXPECT_EQ(stats.queries, pin.stats.queries) << pin.spec;
        EXPECT_EQ(stats.naiveCost, pin.stats.naiveCost) << pin.spec;
        EXPECT_EQ(stats.sharedCost, pin.stats.sharedCost) << pin.spec;
        EXPECT_EQ(stats.experimentsRun, pin.stats.experimentsRun)
            << pin.spec;
        EXPECT_EQ(stats.experimentsSaved, pin.stats.experimentsSaved)
            << pin.spec;
        EXPECT_EQ(stats.prefixReuses, pin.stats.prefixReuses) << pin.spec;
    }
}

TEST(Learn, RecencyRolesLearnLruCompactly)
{
    // Under recency-role semantics LRU's state is just "how many
    // distinct blocks seen (capped)": ways + 1 states however large
    // the concrete space is.
    for (const unsigned ways : {4u, 8u}) {
        LearnOptions options;
        options.semantics = SymbolSemantics::kRecencyRoles;
        const auto result = learnPolicy("lru", ways, options);
        ASSERT_EQ(result.outcome, LearnOutcome::kLearned)
            << "lru@" << ways << ": " << result.diagnostics;
        EXPECT_EQ(result.states, ways + 1);
        const learn::LearnedPolicy model(
            ways, result.machine, SymbolSemantics::kRecencyRoles);
        EXPECT_EQ(lockstepMismatches(model, "lru", ways, 10000), 0u);
    }
}

TEST(Learn, ConcreteEightWaysAbstainsOnStateBudget)
{
    // LRU at 8 ways has ~3.6e5 concrete states: the learner must hit
    // the state budget and abstain, never return a truncated guess.
    LearnOptions options;
    options.maxStates = 64;
    options.maxWords = 50000;
    const auto result = learnPolicy("lru", 8, options);
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_FALSE(result.diagnostics.empty());
}

TEST(Learn, WordBudgetAbstains)
{
    LearnOptions options;
    options.maxWords = 10;
    const auto result = learnPolicy("plru", 4, options);
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_FALSE(result.diagnostics.empty());
}

/** Wraps a teacher and marks every answer undetermined. */
class UndeterminedTeacher : public learn::Teacher
{
  public:
    explicit UndeterminedTeacher(learn::Teacher& inner)
        : inner_(inner)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return "undetermined"; }
    TeacherAnswers answer(std::vector<learn::Symbol> symbols,
                          std::span<const uint32_t> ends) override
    {
        auto answers = inner_.answer(std::move(symbols), ends);
        std::fill(answers.determined.begin(), answers.determined.end(), 0);
        return answers;
    }
    uint64_t wordsAsked() const override
    {
        return inner_.wordsAsked();
    }
    uint64_t accessesUsed() const override
    {
        return inner_.accessesUsed();
    }
    uint64_t experimentsUsed() const override
    {
        return inner_.experimentsUsed();
    }

  private:
    learn::Teacher& inner_;
};

TEST(Learn, UndeterminedAnswersAbstain)
{
    query::PolicyOracle oracle("lru", 2);
    learn::OracleTeacher inner(oracle);
    UndeterminedTeacher teacher(inner);
    LStarLearner learner(teacher);
    const auto result = learner.run();
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_FALSE(result.diagnostics.empty());
}

/** Wraps a teacher, scaling every answer's confidence down. */
class LowConfidenceTeacher : public learn::Teacher
{
  public:
    LowConfidenceTeacher(learn::Teacher& inner, double confidence)
        : inner_(inner), confidence_(confidence)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return "low-confidence"; }
    TeacherAnswers answer(std::vector<learn::Symbol> symbols,
                          std::span<const uint32_t> ends) override
    {
        auto answers = inner_.answer(std::move(symbols), ends);
        std::fill(answers.confidence.begin(), answers.confidence.end(),
                  confidence_);
        return answers;
    }
    uint64_t wordsAsked() const override
    {
        return inner_.wordsAsked();
    }
    uint64_t accessesUsed() const override
    {
        return inner_.accessesUsed();
    }
    uint64_t experimentsUsed() const override
    {
        return inner_.experimentsUsed();
    }

  private:
    learn::Teacher& inner_;
    double confidence_;
};

TEST(Learn, ConfidenceFloorAbstains)
{
    query::PolicyOracle oracle("lru", 2);
    learn::OracleTeacher inner(oracle);
    LowConfidenceTeacher teacher(inner, 0.3);
    LearnOptions options;
    options.minConfidence = 0.5;
    LStarLearner learner(teacher, options);
    const auto result = learner.run();
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
}

TEST(Learn, ConfidenceFloorPassesWhenMet)
{
    query::PolicyOracle oracle("lru", 2);
    learn::OracleTeacher inner(oracle);
    LowConfidenceTeacher teacher(inner, 0.9);
    LearnOptions options;
    options.minConfidence = 0.5;
    LStarLearner learner(teacher, options);
    const auto result = learner.run();
    ASSERT_EQ(result.outcome, LearnOutcome::kLearned);
    EXPECT_DOUBLE_EQ(result.teacherConfidence, 0.9);
}

/** Wraps a teacher, flipping the last output of every Nth word. */
class GarbledTeacher : public learn::Teacher
{
  public:
    GarbledTeacher(learn::Teacher& inner, uint64_t period)
        : inner_(inner), period_(period)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return "garbled"; }
    TeacherAnswers answer(std::vector<learn::Symbol> symbols,
                          std::span<const uint32_t> ends) override
    {
        auto answers = inner_.answer(std::move(symbols), ends);
        for (const uint32_t end : ends) {
            if (++counter_ % period_ == 0)
                answers.outputs[end - 1] ^= 1;
        }
        return answers;
    }
    uint64_t wordsAsked() const override
    {
        return inner_.wordsAsked();
    }
    uint64_t accessesUsed() const override
    {
        return inner_.accessesUsed();
    }
    uint64_t experimentsUsed() const override
    {
        return inner_.experimentsUsed();
    }

  private:
    learn::Teacher& inner_;
    uint64_t period_;
    uint64_t counter_ = 0;
};

TEST(Learn, GarbledTeacherNeverYieldsAWrongAutomaton)
{
    // The fault-injection property behind the design: a teacher that
    // lies must be caught by the prefix-consistency ledger (or hit a
    // budget) and turn into kAbstained. A lying teacher may at worst
    // delay convergence — but if the learner does converge, the
    // answer must still be the true machine.
    const auto truth = truthOf("plru", 2);
    for (const uint64_t period : {3u, 7u, 13u, 37u, 101u}) {
        query::PolicyOracle oracle("plru", 2);
        learn::OracleTeacher inner(oracle);
        GarbledTeacher teacher(inner, period);
        LStarLearner learner(teacher);
        const auto result = learner.run();
        if (result.outcome == LearnOutcome::kLearned) {
            EXPECT_TRUE(result.machine.minimized().isomorphicTo(truth))
                << "period " << period
                << " learned a wrong automaton";
        } else {
            EXPECT_FALSE(result.diagnostics.empty());
        }
    }
}

TEST(Learn, GarbledTeacherConflictIsDetected)
{
    // A dense fault rate cannot stay consistent across overlapping
    // prefixes: the ledger must expose it and the learner abstain.
    query::PolicyOracle oracle("plru", 2);
    learn::OracleTeacher inner(oracle);
    GarbledTeacher teacher(inner, 2);
    LStarLearner learner(teacher);
    const auto result = learner.run();
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_NE(result.diagnostics.find("conflict"), std::string::npos)
        << result.diagnostics;
}

TEST(Learn, ConcretizeMapsRolesToBlocks)
{
    using learn::LStarLearner;
    // Concrete semantics: symbol s is block s + 1.
    const Word concrete = LStarLearner::concretize(
        {0, 2, 1}, SymbolSemantics::kConcreteBlocks, 3);
    EXPECT_EQ(concrete, (Word{1, 3, 2}));
    // Role semantics over alphabet 3 (ranks 0, 1 + fresh symbol 2):
    // fresh, fresh, most-recent, second-most-recent, fresh.
    const Word roles = LStarLearner::concretize(
        {2, 2, 0, 1, 2}, SymbolSemantics::kRecencyRoles, 3);
    EXPECT_EQ(roles, (Word{1, 2, 2, 1, 3}));
}

} // namespace
