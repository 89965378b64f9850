/**
 * @file
 * The inference pipeline against hidden modern-policy machines: a
 * set-dueling LLC is outside the paper's permutation class, so the
 * pipeline must classify it as non-permutation and either learn its
 * automaton exactly or abstain — never report a wrong permutation
 * verdict. Also covers the learner's behaviour on the modern policy
 * oracles directly, and the modern machine catalog's integrity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "recap/common/error.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/pipeline.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/teacher.hh"
#include "recap/query/oracle.hh"

namespace
{

using namespace recap;

// ------------------------------------------------------- catalog

TEST(ModernCatalog, RosterIsPinnedAndSeparate)
{
    const std::vector<std::string> expected = {
        "haswell-dip", "skylake-drrip", "icelake-ship",
        "gracemont-eaf"};
    EXPECT_EQ(hw::modernCatalogNames(), expected);

    // The paper-reproduction catalog stays exactly Table 2's parts.
    const auto intel = hw::catalogNames();
    EXPECT_EQ(intel.size(), 8u);
    for (const auto& name : expected)
        EXPECT_EQ(std::find(intel.begin(), intel.end(), name),
                  intel.end())
            << name << " leaked into the Intel catalog";
}

TEST(ModernCatalog, LookupSpansBothCatalogs)
{
    EXPECT_EQ(hw::catalogMachine("haswell-dip").name, "haswell-dip");
    EXPECT_EQ(hw::catalogMachine("ivybridge-i5").name, "ivybridge-i5");
    EXPECT_THROW(hw::catalogMachine("no-such-part"), UsageError);
}

TEST(ModernCatalog, MachinesValidateAndBuild)
{
    for (const auto& spec : hw::modernCatalog()) {
        // Reduced geometry: construction exercises full validation
        // (policy specs parse, geometry is coherent) without paying
        // for multi-megabyte simulated caches.
        const auto reduced = hw::reducedSpec(spec, 64);
        hw::Machine machine(reduced);
        EXPECT_GE(machine.spec().levels.size(), 2u) << spec.name;
        // Every modern machine hides a dueling/predictor LLC.
        const auto& llc = spec.levels.back();
        const auto base = llc.policySpec.substr(
            0, llc.policySpec.find(':'));
        EXPECT_TRUE(base == "dip" || base == "drrip" ||
                    base == "ship" || base == "eaf")
            << spec.name << " LLC runs " << llc.policySpec;
    }
}

// ------------------------------------------------------- learner

learn::LearnOptions
testLearnOptions()
{
    learn::LearnOptions opts;
    opts.maxStates = 512;
    opts.maxWords = 200'000;
    return opts;
}

TEST(ModernLearning, LearnsSmallEafExactly)
{
    // Without metadata the oracle-driven EAF degenerates to BIP,
    // whose throttle-4 epoch automaton is small enough to close.
    query::PolicyOracle oracle("eaf:4,4", 2);
    learn::OracleTeacher teacher(oracle);
    learn::LStarLearner learner(teacher, testLearnOptions());
    const auto res = learner.run();
    ASSERT_EQ(res.outcome, learn::LearnOutcome::kLearned);
    EXPECT_EQ(res.states, 16u); // pinned minimal machine size
}

TEST(ModernLearning, AbstainsOnOversizedModernAutomata)
{
    // SHiP's SHCT and DIP's duel blow past the 512-state budget;
    // the learner must abstain rather than return a wrong machine.
    for (const char* spec : {"ship", "dip:4,3,4"}) {
        query::PolicyOracle oracle(spec, 2);
        learn::OracleTeacher teacher(oracle);
        learn::LStarLearner learner(teacher, testLearnOptions());
        const auto res = learner.run();
        EXPECT_EQ(res.outcome, learn::LearnOutcome::kAbstained)
            << spec;
    }
}

// ------------------------------------------------------ pipeline

/** Single-level machine hiding @p policySpec at 2 ways. */
hw::MachineSpec
hiddenRig(const std::string& policySpec)
{
    hw::MachineSpec spec;
    spec.name = "rig-" + policySpec;
    spec.description = "hidden modern-policy rig";
    hw::CacheLevelSpec lvl;
    lvl.name = "L1";
    lvl.capacityBytes = uint64_t{64} * 64 * 2;
    lvl.ways = 2;
    lvl.hitLatency = 4;
    lvl.policySpec = policySpec;
    spec.levels = {lvl};
    spec.memoryLatency = 100;
    return spec;
}

/**
 * The acceptance criterion: inference against a hidden DIP level
 * must return a correct non-permutation classification — here, the
 * learning escalation converges on the exact automaton — and under
 * no circumstances a permutation-policy verdict.
 */
TEST(ModernPipeline, HiddenDipIsLearnedNeverMisclassified)
{
    hw::Machine machine(hiddenRig("dip"));
    infer::InferenceOptions opts;
    opts.adaptive.windowSets = 16;
    const auto report = infer::inferMachine(machine, opts);
    ASSERT_EQ(report.levels.size(), 1u);
    const auto& level = report.levels[0];

    // Never a wrong permutation verdict.
    EXPECT_FALSE(level.isPermutation);

    // Either learned exactly or honestly undetermined; on this rig
    // the learner converges, and the model predicts perfectly.
    ASSERT_TRUE(level.learned ||
                level.outcome == infer::LevelOutcome::kUndetermined);
    EXPECT_TRUE(level.learned);
    EXPECT_EQ(level.outcome, infer::LevelOutcome::kDecided);
    EXPECT_EQ(level.learnedStates, 178u); // pinned
    EXPECT_EQ(level.learnerQueries, 189723u); // pinned
    EXPECT_EQ(level.loadsUsed, 725481u);      // pinned
    EXPECT_NE(level.verdict.find("learned automaton"),
              std::string::npos)
        << level.verdict;
    EXPECT_DOUBLE_EQ(level.agreement, 1.0);
}

} // namespace
