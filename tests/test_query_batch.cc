/**
 * @file
 * Tests for the prefix-sharing batch evaluator: batch verdicts must
 * be bit-identical to naive per-query re-execution across every
 * registered policy and both oracle backends (including noisy
 * machines with pinned seeds), for any worker-thread count, while the
 * sharing statistics prove work was actually saved.
 */

#include <gtest/gtest.h>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/policy/factory.hh"
#include "recap/query/chaos.hh"
#include "recap/query/oracle.hh"
#include "recap/query/parse.hh"

namespace
{

using namespace recap;
using infer::MeasurementContext;
using query::BatchOptions;
using query::BatchStats;
using query::CompiledQuery;
using query::BlockId;
using query::FlakyOracle;
using query::MachineOracle;
using query::PolicyOracle;
using query::PositionOutcome;
using query::ProbeOutcome;
using query::QueryVerdict;

/** A workload with heavy prefix overlap, flushes and duplicates. */
std::vector<CompiledQuery>
sharedWorkload()
{
    const char* kTexts[] = {
        "a b c d a?",
        "a b c d e a?",
        "a b c d e f a? b?",
        "a b c d d? @ a?",
        "a b c x y? a?",
        "( a b )^3 c? a?",
        "a b c d a?",          // exact duplicate
        "p q r s p?",          // alpha-equivalent to query 0
        "x1 x2 x3 x4 x5 x1?",
        "@ a b c d a? @ e f g h e?",
    };
    std::vector<CompiledQuery> queries;
    for (const char* text : kTexts)
        queries.push_back(query::compile(query::parseQuery(text)));
    return queries;
}

std::vector<std::vector<ProbeOutcome>>
probesOf(const std::vector<QueryVerdict>& verdicts)
{
    std::vector<std::vector<ProbeOutcome>> out;
    for (const auto& verdict : verdicts)
        out.push_back(verdict.probes);
    return out;
}

TEST(QueryBatch, PolicyBatchBitIdenticalToNaiveAcrossAllPolicies)
{
    const auto queries = sharedWorkload();
    for (const auto& spec : policy::baselineSpecs()) {
        for (unsigned ways : {4u, 8u}) {
            if (!policy::specSupportsWays(spec, ways))
                continue;
            PolicyOracle shared(spec, ways, /*seed=*/7);
            PolicyOracle naive(spec, ways, /*seed=*/7);
            BatchOptions on;
            BatchOptions off;
            off.prefixSharing = false;
            EXPECT_EQ(probesOf(shared.evaluateBatch(queries, on)),
                      probesOf(naive.evaluateBatch(queries, off)))
                << spec << " k=" << ways;
        }
    }
}

TEST(QueryBatch, PolicyBatchInvariantUnderThreadCount)
{
    const auto queries = sharedWorkload();
    PolicyOracle oracle("qlru:H1,M1,R0,U2", 8);
    std::vector<std::vector<std::vector<ProbeOutcome>>> runs;
    for (unsigned threads : {1u, 3u, 0u}) {
        BatchOptions opts;
        opts.numThreads = threads;
        runs.push_back(probesOf(oracle.evaluateBatch(queries, opts)));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(QueryBatch, PolicyStatsProveSharing)
{
    const auto queries = sharedWorkload();
    PolicyOracle oracle("lru", 4);
    BatchStats stats;
    const auto verdicts =
        oracle.evaluateBatch(queries, BatchOptions{}, &stats);

    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_LT(stats.sharedCost, stats.naiveCost);
    EXPECT_EQ(stats.prefixReuses, stats.naiveCost - stats.sharedCost);
    EXPECT_GT(stats.experimentsSaved, 0u);

    // Marginal attribution: the batch-wide cost is exactly the sum
    // of per-query costs, and fully-shared queries ride for free.
    uint64_t accounted = 0;
    for (const auto& verdict : verdicts)
        accounted += verdict.accesses;
    EXPECT_EQ(accounted, stats.sharedCost);
    EXPECT_EQ(verdicts[6].accesses, 0u); // duplicate of query 0
    EXPECT_EQ(verdicts[7].accesses, 0u); // alpha-equivalent to it
}

TEST(QueryBatch, MachineBatchBitIdenticalToNaiveNoiseless)
{
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    std::vector<std::vector<ProbeOutcome>> byMode[2];
    uint64_t experiments[2];
    for (int shared = 0; shared < 2; ++shared) {
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);
        BatchOptions opts;
        opts.prefixSharing = shared == 1;
        byMode[shared] = probesOf(oracle.evaluateBatch(queries, opts));
        experiments[shared] = ctx.experimentsRun();
    }
    EXPECT_EQ(byMode[0], byMode[1]);
    // Duplicate queries and shared segment prefixes mean the sharing
    // path replays strictly fewer experiments on the machine.
    EXPECT_LT(experiments[1], experiments[0]);
}

TEST(QueryBatch, MachineBatchBitIdenticalToNaiveUnderNoise)
{
    // Pinned machine seed + enough votes: the voted verdicts are
    // stable, so sharing (which reorders and dedups experiments)
    // still answers bit-identically.
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.01;
    std::vector<std::vector<ProbeOutcome>> byMode[2];
    for (int shared = 0; shared < 2; ++shared) {
        hw::Machine machine(spec, /*seed=*/11, noise);
        MeasurementContext ctx(machine);
        query::MachineOracleConfig cfg;
        cfg.prober.voteRepeats = 15;
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 0,
                             cfg);
        BatchOptions opts;
        opts.prefixSharing = shared == 1;
        byMode[shared] = probesOf(oracle.evaluateBatch(queries, opts));
    }
    EXPECT_EQ(byMode[0], byMode[1]);
}

TEST(QueryBatch, MachineLatencyModeBatchMatchesNaive)
{
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("sandybridge-i5"), 512);
    std::vector<std::vector<ProbeOutcome>> byMode[2];
    for (int shared = 0; shared < 2; ++shared) {
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        query::MachineOracleConfig cfg;
        cfg.mode = query::ObservationMode::kLatency;
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 2,
                             cfg);
        BatchOptions opts;
        opts.prefixSharing = shared == 1;
        byMode[shared] = probesOf(oracle.evaluateBatch(queries, opts));
    }
    EXPECT_EQ(byMode[0], byMode[1]);
}

TEST(QueryBatch, MachineStatsCountReusesAndSavedExperiments)
{
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);
    BatchStats stats;
    const auto verdicts =
        oracle.evaluateBatch(queries, BatchOptions{}, &stats);

    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_GT(stats.prefixReuses, 0u);
    EXPECT_GT(stats.experimentsSaved, 0u);
    EXPECT_LT(stats.sharedCost, stats.naiveCost);
    EXPECT_EQ(stats.experimentsRun, ctx.experimentsRun());

    uint64_t accounted = 0;
    for (const auto& verdict : verdicts)
        accounted += verdict.accesses;
    EXPECT_EQ(accounted, ctx.loadsIssued());
    EXPECT_EQ(verdicts[6].experiments, 0u); // duplicate rides free
}

TEST(QueryBatch, SingletonBatchEqualsEvaluate)
{
    const CompiledQuery q =
        query::compile(query::parseQuery("a b c d b? @ d?"));
    PolicyOracle batched("srrip", 8);
    PolicyOracle direct("srrip", 8);
    const auto batch = batched.evaluateBatch({q});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].probes, direct.evaluate(q).probes);
}

TEST(QueryBatch, ShuffledBatchPreservesInputOrder)
{
    // Order-preservation regression: the evaluator sorts internally
    // for prefix grouping, but verdict i must always belong to
    // query i. Shuffle the workload and check every index against an
    // individually evaluated reference, on both backends.
    auto queries = sharedWorkload();
    Rng rng(2024);
    rng.shuffle(queries);

    PolicyOracle policyBatch("slru", 4, /*seed=*/7);
    PolicyOracle policyRef("slru", 4, /*seed=*/7);
    const auto verdicts = policyBatch.evaluateBatch(queries);
    ASSERT_EQ(verdicts.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(verdicts[i].probes,
                  policyRef.evaluate(queries[i]).probes)
            << "policy backend, index " << i;
    }

    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 64);
    hw::Machine shared(spec);
    hw::Machine naive(spec);
    MeasurementContext sharedCtx(shared);
    MeasurementContext naiveCtx(naive);
    MachineOracle machineBatch(sharedCtx, infer::assumedGeometry(spec),
                               0);
    MachineOracle machineRef(naiveCtx, infer::assumedGeometry(spec),
                             0);
    const auto measured = machineBatch.evaluateBatch(queries);
    ASSERT_EQ(measured.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(measured[i].probes,
                  machineRef.evaluate(queries[i]).probes)
            << "machine backend, index " << i;
    }
}

TEST(QueryBatch, LargeGeneratedWorkloadMatchesNaive)
{
    // Randomized closure: many queries built from a small alphabet so
    // prefixes collide organically.
    Rng rng(99);
    std::vector<CompiledQuery> queries;
    for (int i = 0; i < 60; ++i) {
        std::string text;
        const auto len = 3 + rng.nextBelow(10);
        for (std::size_t j = 0; j < len; ++j) {
            if (rng.nextBool(0.08))
                text += "@ ";
            text += static_cast<char>('a' + rng.nextBelow(5));
            if (j + 1 == len || rng.nextBool(0.2))
                text += '?';
            text += ' ';
        }
        queries.push_back(query::compile(query::parseQuery(text)));
    }
    for (const char* spec : {"lru", "nru", "bip"}) {
        PolicyOracle shared(spec, 4);
        PolicyOracle naive(spec, 4);
        BatchOptions off;
        off.prefixSharing = false;
        EXPECT_EQ(probesOf(shared.evaluateBatch(queries)),
                  probesOf(naive.evaluateBatch(queries, off)))
            << spec;
    }
}

/** Observe-all words laid end to end, as observeWords() takes them. */
struct Words
{
    std::vector<BlockId> blocks;
    std::vector<uint32_t> ends;

    /** Word @p w as an observe-all query. */
    CompiledQuery query(std::size_t w) const
    {
        const std::size_t begin = w == 0 ? 0 : ends[w - 1];
        return query::makeObserveAllQuery(
            {blocks.begin() + begin, blocks.begin() + ends[w]});
    }

    std::vector<CompiledQuery> queries() const
    {
        std::vector<CompiledQuery> all;
        for (std::size_t w = 0; w < ends.size(); ++w)
            all.push_back(query(w));
        return all;
    }
};

/**
 * Seeded random words over @p alphabet blocks. Half of them extend a
 * prefix of an earlier word, so the batch shares prefixes the way
 * L*'s rows do, and some repeat one outright.
 */
Words
randomWords(uint64_t seed, unsigned count, unsigned alphabet)
{
    Rng rng(seed);
    Words words;
    for (unsigned w = 0; w < count; ++w) {
        const std::size_t begin = words.blocks.size();
        if (w > 0 && rng.nextBool(0.5)) {
            const auto from = rng.nextBelow(w);
            const std::size_t start = from == 0 ? 0 : words.ends[from - 1];
            const auto keep = 1 + rng.nextBelow(words.ends[from] - start);
            for (std::size_t i = 0; i < keep; ++i)
                words.blocks.push_back(words.blocks[start + i]);
        }
        const auto extra = words.blocks.size() > begin && rng.nextBool(0.1)
                               ? 0
                               : 1 + rng.nextBelow(8);
        for (std::size_t i = 0; i < extra; ++i)
            words.blocks.push_back(1 + rng.nextBelow(alphabet));
        words.ends.push_back(static_cast<uint32_t>(words.blocks.size()));
    }
    return words;
}

/** The probes of @p verdicts, flattened as observeWords() returns them. */
std::vector<PositionOutcome>
outcomesOf(const std::vector<QueryVerdict>& verdicts)
{
    std::vector<PositionOutcome> out;
    for (const QueryVerdict& verdict : verdicts)
        for (const ProbeOutcome& probe : verdict.probes)
            out.push_back({probe.hit, probe.determined, probe.level,
                           probe.confidence});
    return out;
}

TEST(QueryBatch, ObserveWordsMatchesEvaluateAndBatchAcrossCatalog)
{
    // Every catalog spec at 2 and 4 ways, plus two that take the
    // interpreted walk: "random" never compiles, and 24 ways is above
    // the compiled walk's associativity cap.
    std::vector<std::pair<std::string, unsigned>> cells;
    for (const auto& spec : policy::catalogSpecs())
        for (const unsigned ways : {2u, 4u})
            if (policy::specSupportsWays(spec, ways))
                cells.emplace_back(spec, ways);
    cells.emplace_back("random", 4);
    cells.emplace_back("lru", 24);
    uint64_t seed = 1;
    for (const auto& [spec, ways] : cells) {
        const Words words = randomWords(seed++, 120, ways + 2);
        const auto queries = words.queries();
        const std::string cell = spec + "@" + std::to_string(ways);

        PolicyOracle perWord(spec, ways, /*seed=*/7);
        std::vector<QueryVerdict> expected;
        for (const CompiledQuery& q : queries)
            expected.push_back(perWord.evaluate(q));

        PolicyOracle batch(spec, ways, /*seed=*/7);
        BatchStats batchStats;
        const auto verdicts = batch.evaluateBatch(queries, {}, &batchStats);
        ASSERT_EQ(outcomesOf(verdicts), outcomesOf(expected)) << cell;

        for (const unsigned threads : {1u, 4u}) {
            PolicyOracle flat(spec, ways, /*seed=*/7);
            BatchOptions opts;
            opts.numThreads = threads;
            BatchStats stats;
            EXPECT_EQ(flat.observeWords(words.blocks, words.ends, opts,
                                        &stats),
                      outcomesOf(expected))
                << cell << " threads=" << threads;
            EXPECT_EQ(flat.accessesIssued(), batch.accessesIssued())
                << cell;
            EXPECT_EQ(flat.experimentsRun(), batch.experimentsRun())
                << cell;
            EXPECT_EQ(stats, batchStats) << cell;
        }
    }
}

TEST(QueryBatch, ObserveWordsWithoutSharingMatchesNaiveBatch)
{
    const Words words = randomWords(11, 80, 6);
    BatchOptions off;
    off.prefixSharing = false;
    for (const char* spec : {"lru", "plru", "random"}) {
        PolicyOracle naive(spec, 4);
        BatchStats naiveStats;
        const auto verdicts =
            naive.evaluateBatch(words.queries(), off, &naiveStats);
        PolicyOracle flat(spec, 4);
        BatchStats stats;
        EXPECT_EQ(flat.observeWords(words.blocks, words.ends, off, &stats),
                  outcomesOf(verdicts))
            << spec;
        EXPECT_EQ(stats, naiveStats) << spec;
        EXPECT_EQ(flat.accessesIssued(), naive.accessesIssued()) << spec;
        EXPECT_EQ(flat.experimentsRun(), naive.experimentsRun()) << spec;
        // Naive replay pays every position of every word.
        EXPECT_EQ(stats.sharedCost, words.blocks.size()) << spec;
    }
}

TEST(QueryBatch, ObserveWordsOnFlakyOracleTakesTheDefaultPath)
{
    // observeWords() is an adapter over the flat entry the wrapper
    // overrides, so the wrapper's injected failure fires, then the
    // answers are the wrapped oracle's own.
    const Words words = randomWords(5, 40, 6);
    PolicyOracle inner("qlru:H1,M1,R0,U2", 4);
    FlakyOracle flaky(inner, 1);
    EXPECT_THROW(flaky.observeWords(words.blocks, words.ends),
                 std::runtime_error);
    EXPECT_EQ(flaky.failuresLeft(), 0u);
    BatchStats stats;
    const auto outcomes =
        flaky.observeWords(words.blocks, words.ends, {}, &stats);

    PolicyOracle direct("qlru:H1,M1,R0,U2", 4);
    BatchStats directStats;
    EXPECT_EQ(outcomes, direct.observeWords(words.blocks, words.ends, {},
                                            &directStats));
    EXPECT_EQ(stats, directStats);
    EXPECT_EQ(inner.accessesIssued(), direct.accessesIssued());
}

TEST(QueryBatch, ObserveWordsOnMachineMatchesReplayBatch)
{
    // Words and DSL queries reach the same replay-sharing entry.
    const Words words = randomWords(3, 30, 6);
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    std::vector<PositionOutcome> byPath[2];
    BatchStats stats[2];
    uint64_t loads[2];
    for (int wordPath = 0; wordPath < 2; ++wordPath) {
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);
        byPath[wordPath] =
            wordPath == 1
                ? oracle.observeWords(words.blocks, words.ends, {},
                                      &stats[wordPath])
                : outcomesOf(oracle.evaluateBatch(words.queries(), {},
                                                  &stats[wordPath]));
        loads[wordPath] = ctx.loadsIssued();
    }
    EXPECT_EQ(byPath[0], byPath[1]);
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_EQ(loads[0], loads[1]);
}

TEST(QueryBatch, ObserveWordsRejectsMalformedEnds)
{
    PolicyOracle oracle("lru", 4);
    const std::vector<BlockId> blocks = {1, 2, 3};
    for (const std::vector<uint32_t>& ends :
         {std::vector<uint32_t>{2}, std::vector<uint32_t>{2, 1, 3},
          std::vector<uint32_t>{1, 1, 3}, std::vector<uint32_t>{}}) {
        EXPECT_THROW(oracle.observeWords(blocks, ends), UsageError);
        FlakyOracle wrapped(oracle, 0);
        EXPECT_THROW(wrapped.observeWords(blocks, ends), UsageError);
    }
    EXPECT_EQ(oracle.accessesIssued(), 0u);
}

TEST(QueryBatch, SnapshotCoreRejectsMalformedInput)
{
    PolicyOracle oracle("lru", 4);
    const std::vector<BlockId> blocks = {1, 2, 3, 4, 5};
    for (const std::vector<uint32_t>& ends :
         {std::vector<uint32_t>{5, 3}, std::vector<uint32_t>{4, 2, 5},
          std::vector<uint32_t>{3}, std::vector<uint32_t>{2, 6},
          std::vector<uint32_t>{}})
        EXPECT_THROW(oracle.evaluateFlat(blocks, {}, ends), UsageError);
    const std::vector<uint8_t> flushes = {0, 1, 0};
    EXPECT_THROW(
        oracle.evaluateFlat(blocks, flushes, std::vector<uint32_t>{5}),
        UsageError);
    // Empty sequences are well formed: they cost nothing.
    BatchStats stats;
    const auto answers = oracle.evaluateFlat(
        blocks, {}, std::vector<uint32_t>{0, 5, 5}, {}, &stats);
    EXPECT_EQ(answers.outcomes.size(), blocks.size());
    EXPECT_EQ(answers.accesses, (std::vector<uint64_t>{0, 5, 0}));
    EXPECT_EQ(answers.experiments, (std::vector<uint64_t>{0, 1, 0}));
    EXPECT_EQ(stats.experimentsRun, 1u);
    EXPECT_EQ(oracle.accessesIssued(), 5u);
}

} // namespace
