/**
 * @file
 * Tests for the query oracles: PolicyOracle must agree with a direct
 * SetModel walk, MachineOracle (both observation modes) must agree
 * with the machine's ground-truth policy model, and every experiment
 * must flow through MeasurementContext's cost accounting.
 */

#include <gtest/gtest.h>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/learn/learned_policy.hh"
#include "recap/learn/mealy.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/query/oracle.hh"
#include "recap/query/parse.hh"

namespace
{

using namespace recap;
using infer::MeasurementContext;
using query::BlockId;
using query::CompiledQuery;
using query::MachineOracle;
using query::ObservationMode;
using query::PolicyOracle;
using query::QueryVerdict;
using query::Step;

CompiledQuery
parse(const std::string& text)
{
    return query::compile(query::parseQuery(text));
}

/** Reference walk: the verdict a fresh SetModel gives to a query. */
std::vector<bool>
modelWalk(policy::SetModel model, const CompiledQuery& q)
{
    model.flush();
    std::vector<bool> probeHits;
    for (const Step& step : q.steps) {
        if (step.flush) {
            model.flush();
            continue;
        }
        const bool hit = model.access(step.block);
        if (step.probe)
            probeHits.push_back(hit);
    }
    return probeHits;
}

std::vector<bool>
probeHits(const QueryVerdict& verdict)
{
    std::vector<bool> hits;
    for (const auto& probe : verdict.probes)
        hits.push_back(probe.hit);
    return hits;
}

TEST(PolicyOracle, AnswersTheFileHeaderExample)
{
    PolicyOracle oracle("lru", 4);
    const auto verdict = oracle.evaluate(parse("a b c d a? @ a?"));
    ASSERT_EQ(verdict.probes.size(), 2u);
    EXPECT_TRUE(verdict.probes[0].hit);
    EXPECT_EQ(verdict.probes[0].level, 0u);
    EXPECT_FALSE(verdict.probes[1].hit);
    EXPECT_EQ(verdict.probes[1].level, 1u);
    EXPECT_EQ(verdict.experiments, 1u);
    EXPECT_EQ(verdict.accesses, 6u);
}

TEST(PolicyOracle, MatchesDirectSetModelWalkAcrossBaselines)
{
    const char* kQueries[] = {
        "a b c d e f g h a? b? e?",
        "a b a b a c? ( d e )^3 a?",
        "a b c d @ a? b c d e a?",
        "x^9 y? x?",
    };
    for (const auto& spec : policy::baselineSpecs()) {
        for (unsigned ways : {4u, 8u}) {
            if (!policy::specSupportsWays(spec, ways))
                continue;
            PolicyOracle oracle(spec, ways, /*seed=*/3);
            for (const char* text : kQueries) {
                const CompiledQuery q = parse(text);
                const auto verdict = oracle.evaluate(q);
                policy::SetModel reference(
                    policy::makePolicy(spec, ways, /*seed=*/3));
                EXPECT_EQ(probeHits(verdict),
                          modelWalk(std::move(reference), q))
                    << spec << " k=" << ways << ": " << text;
            }
        }
    }
}

TEST(PolicyOracle, ConcreteLearnedPrototypeAnswersInterpreted)
{
    // A concrete-block learned automaton has no total table, so the
    // batch evaluator must fall back to the prototype's SetModel.
    const auto truth = policy::makePolicy("lru", 4);
    const learn::LearnedPolicy learned(
        4, learn::automatonOfPolicy(*truth, 5),
        learn::SymbolSemantics::kConcreteBlocks, "Learned LRU");
    PolicyOracle oracle(learned.clone());
    EXPECT_EQ(oracle.compiledTable(), nullptr);

    std::vector<CompiledQuery> queries;
    for (const char* text : {"a b c d a? e a? b?", "a b c d e f a? f?",
                             "a b a c a d e b? a?"})
        queries.push_back(parse(text));
    const auto verdicts = oracle.evaluateBatch(queries);
    ASSERT_EQ(verdicts.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(probeHits(verdicts[i]),
                  modelWalk(policy::SetModel(learned.clone()), queries[i]))
            << i;
        EXPECT_EQ(probeHits(verdicts[i]),
                  modelWalk(policy::SetModel(truth->clone()), queries[i]))
            << i;
    }
}

TEST(PolicyOracle, AccumulatesCost)
{
    PolicyOracle oracle("lru", 4);
    oracle.evaluate(parse("a b c?"));
    oracle.evaluate(parse("a b c d?"));
    EXPECT_EQ(oracle.experimentsRun(), 2u);
    EXPECT_EQ(oracle.accessesIssued(), 7u);
    EXPECT_EQ(oracle.ways(), 4u);
    EXPECT_NE(oracle.describe().find("lru"), std::string::npos);
}

TEST(MachineOracle, CounterModeMatchesGroundTruthPolicy)
{
    for (unsigned level : {0u, 1u}) {
        const auto spec =
            hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), level);

        const char* kQueries[] = {
            "a b c d e f g h a? e? @ a?",
            "( a b c )^4 d e f g h i j a? b?",
        };
        for (const char* text : kQueries) {
            const CompiledQuery q = parse(text);
            const auto verdict = oracle.evaluate(q);
            policy::SetModel reference(
                machine.groundTruthPolicy(level));
            EXPECT_EQ(probeHits(verdict),
                      modelWalk(std::move(reference), q))
                << "L" << level + 1 << ": " << text;
        }
    }
}

TEST(MachineOracle, LatencyModeReportsServingLevels)
{
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    query::MachineOracleConfig cfg;
    cfg.mode = ObservationMode::kLatency;
    MachineOracle oracle(ctx, infer::assumedGeometry(spec),
                         /*targetLevel=*/1, cfg);
    EXPECT_NE(oracle.describe().find("latency"), std::string::npos);

    // Filling the 8-way L2 set and re-probing: every block is still
    // L2-resident and inner levels are evicted before each timed
    // load, so probes serve from L2 (level 1). A fresh block misses
    // the whole hierarchy: served by memory (level == depth).
    const auto verdict =
        oracle.evaluate(parse("a b c d e f g h a? h? fresh?"));
    ASSERT_EQ(verdict.probes.size(), 3u);
    EXPECT_TRUE(verdict.probes[0].hit);
    EXPECT_EQ(verdict.probes[0].level, 1u);
    EXPECT_TRUE(verdict.probes[1].hit);
    EXPECT_EQ(verdict.probes[1].level, 1u);
    EXPECT_FALSE(verdict.probes[2].hit);
    EXPECT_EQ(verdict.probes[2].level, ctx.depth());
}

TEST(MachineOracle, LatencyAndCounterModesAgreeOnHits)
{
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("sandybridge-i5"), 512);
    const char* kText = "a b c d e f a? b? @ c? ( g h )^2 g?";
    std::vector<bool> byMode[2];
    for (int m = 0; m < 2; ++m) {
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        query::MachineOracleConfig cfg;
        cfg.mode = m == 0 ? ObservationMode::kCounter
                          : ObservationMode::kLatency;
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 2,
                             cfg);
        byMode[m] = probeHits(oracle.evaluate(parse(kText)));
    }
    EXPECT_EQ(byMode[0], byMode[1]);
}

TEST(MachineOracle, EveryExperimentFlowsThroughTheContext)
{
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);

    const uint64_t expBefore = ctx.experimentsRun();
    const uint64_t loadsBefore = ctx.loadsIssued();
    const auto verdict = oracle.evaluate(parse("a b c a? @ b?"));

    // Two flush-delimited segments -> two experiments, and the
    // oracle's own counters are exactly the context deltas (the
    // centralized-accounting contract).
    EXPECT_EQ(verdict.experiments, 2u);
    EXPECT_EQ(oracle.experimentsRun(),
              ctx.experimentsRun() - expBefore);
    EXPECT_EQ(oracle.accessesIssued(), ctx.loadsIssued() - loadsBefore);
    EXPECT_EQ(verdict.accesses, oracle.accessesIssued());
    EXPECT_GT(verdict.accesses, 0u);
}

TEST(MachineOracle, VotingDefeatsDisturbanceNoise)
{
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.02;
    hw::Machine machine(spec, /*seed=*/1, noise);
    MeasurementContext ctx(machine);
    query::MachineOracleConfig cfg;
    cfg.prober.voteRepeats = 9;
    MachineOracle oracle(ctx, infer::assumedGeometry(spec), 0, cfg);

    Rng rng(5);
    std::vector<BlockId> seq;
    for (int i = 0; i < 40; ++i)
        seq.push_back(1 + rng.nextBelow(10));
    const auto verdict =
        oracle.evaluate(query::makeObserveAllQuery(seq));

    policy::SetModel model(machine.groundTruthPolicy(0));
    unsigned mismatches = 0;
    for (size_t i = 0; i < seq.size(); ++i)
        if (verdict.probes[i].hit != model.access(seq[i]))
            ++mismatches;
    EXPECT_LE(mismatches, 1u);
}

} // namespace
