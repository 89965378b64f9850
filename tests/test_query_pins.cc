/**
 * @file
 * Pins of every answer the query oracles give through their three
 * batch APIs.
 *
 * evaluate(), evaluateBatch() and observeWords() all answer "replay
 * this sequence from a flush and report what hit". These tests drive
 * PolicyOracle and MachineOracle through all three on fixed inputs:
 * a shuffled DSL batch with flushes and repeated segments, observe-all
 * words that share prefixes, and single queries (one of them nothing
 * but flushes). Each run folds every probe field, every per-query
 * cost, the BatchStats and the number of checkpoint calls of each API
 * call into a digest, and pins it with the accesses and experiments
 * the oracle counted. The machine runs cover counter and latency mode,
 * a noiseless and a hostile machine, fixed votes and the sequential
 * test. A change to what an oracle answers, what it charges, the
 * order of its experiments or how often it checks its deadline moves
 * a pin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/faults.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/query/chaos.hh"
#include "recap/query/oracle.hh"
#include "recap/query/parse.hh"

namespace
{

using namespace recap;
using infer::MeasurementContext;
using query::BatchOptions;
using query::BatchStats;
using query::BlockId;
using query::CompiledQuery;
using query::FlakyOracle;
using query::MachineOracle;
using query::ObservationMode;
using query::PolicyOracle;
using query::PositionOutcome;
using query::ProbeOutcome;
using query::QueryOracle;
using query::QueryVerdict;
using query::Step;

/** FNV-1a over a textual record of every answer. */
class Digest
{
  public:
    void add(uint64_t v) { mix(std::to_string(v)); }

    void add(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%a", v);
        mix(buf);
    }

    void add(const PositionOutcome& o)
    {
        add(static_cast<uint64_t>(o.hit));
        add(static_cast<uint64_t>(o.determined));
        add(static_cast<uint64_t>(o.level));
        add(o.confidence);
    }

    void add(const QueryVerdict& v)
    {
        add(static_cast<uint64_t>(v.probes.size()));
        for (const ProbeOutcome& p : v.probes) {
            add(static_cast<uint64_t>(p.step));
            add(p.block);
            add(PositionOutcome{p.hit, p.determined, p.level,
                                p.confidence});
        }
        add(v.experiments);
        add(v.accesses);
    }

    void add(const BatchStats& s)
    {
        add(s.queries);
        add(s.naiveCost);
        add(s.sharedCost);
        add(s.experimentsRun);
        add(s.experimentsSaved);
        add(s.prefixReuses);
    }

    uint64_t value() const { return hash_; }

  private:
    void mix(const std::string& s)
    {
        for (unsigned char c : s + ";") {
            hash_ ^= c;
            hash_ *= 1099511628211ull;
        }
    }

    uint64_t hash_ = 14695981039346656037ull;
};

struct Pin
{
    uint64_t digest;
    uint64_t accesses;
    uint64_t experiments;
};

std::string
describe(const Pin& p)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "{0x%016llxull, %llu, %llu}",
                  static_cast<unsigned long long>(p.digest),
                  static_cast<unsigned long long>(p.accesses),
                  static_cast<unsigned long long>(p.experiments));
    return buf;
}

void
expectPin(const Pin& got, const Pin& want, const std::string& what)
{
    EXPECT_TRUE(got.digest == want.digest &&
                got.accesses == want.accesses &&
                got.experiments == want.experiments)
        << what << ": got " << describe(got) << ", pinned "
        << describe(want);
}

/**
 * A DSL batch with flushes, segments repeated inside one query (one
 * of them a prefix of longer segments, one not), segments repeated
 * across queries, an exact duplicate and a query that is a prefix of
 * others, in a fixed shuffled order.
 */
std::vector<CompiledQuery>
dslBatch()
{
    const char* kTexts[] = {
        "a b c d a?",
        "a b c d e a? b?",
        "a b @ a b c? @ a b",
        "a b c? @ a b c?",
        "a b a? @ a b a?",
        "a b c d a?",
        "( a b c )^2 d? @ e f a?",
        "x y z w x? y?",
        "a b c d e f g h i a? e? i?",
        "@ a? b? @ a? b?",
        "a b c d a? @ a b c d a?",
        "a b c d e f g h i j k a? k?",
        "a b",
    };
    std::vector<CompiledQuery> queries;
    for (const char* text : kTexts)
        queries.push_back(query::compile(query::parseQuery(text)));
    Rng rng(27);
    rng.shuffle(queries);
    return queries;
}

/** Single queries, the last of them nothing but flushes. */
std::vector<CompiledQuery>
singleQueries()
{
    std::vector<CompiledQuery> queries;
    for (const char* text :
         {"a b c d e f g h i a? b? i?", "a @ a?", "a b a b c c? a?"})
        queries.push_back(query::compile(query::parseQuery(text)));
    CompiledQuery flushes;
    flushes.steps = {Step{0, true, false}, Step{0, true, false}};
    queries.push_back(flushes);
    return queries;
}

/** Observe-all words laid end to end, as observeWords() takes them. */
struct Words
{
    std::vector<BlockId> blocks;
    std::vector<uint32_t> ends;
};

/**
 * Seeded random words over @p alphabet blocks; half of them extend a
 * prefix of an earlier word and some repeat one outright.
 */
Words
randomWords(unsigned count, unsigned alphabet)
{
    Rng rng(41);
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
        const auto extra =
            words.blocks.size() > begin && rng.nextBool(0.1)
                ? 0
                : 1 + rng.nextBelow(8);
        for (std::size_t i = 0; i < extra; ++i)
            words.blocks.push_back(1 + rng.nextBelow(alphabet));
        words.ends.push_back(static_cast<uint32_t>(words.blocks.size()));
    }
    return words;
}

/**
 * Asks @p oracle one DSL batch, one batch of words and each single
 * query, and digests every answer with the checkpoint calls each API
 * call made.
 */
Pin
drive(QueryOracle& oracle, const BatchOptions& opts)
{
    uint64_t checkpoints = 0;
    oracle.setCheckpoint([&checkpoints] { ++checkpoints; });
    Digest d;
    const auto endCall = [&] {
        d.add(checkpoints);
        checkpoints = 0;
    };

    BatchStats batchStats;
    for (const QueryVerdict& v :
         oracle.evaluateBatch(dslBatch(), opts, &batchStats))
        d.add(v);
    d.add(batchStats);
    endCall();

    const Words words = randomWords(40, oracle.ways() + 2);
    BatchStats wordStats;
    for (const PositionOutcome& o :
         oracle.observeWords(words.blocks, words.ends, opts, &wordStats))
        d.add(o);
    d.add(wordStats);
    endCall();

    for (const CompiledQuery& q : singleQueries()) {
        d.add(oracle.evaluate(q));
        endCall();
    }
    oracle.setCheckpoint(nullptr);
    return {d.value(), oracle.accessesIssued(), oracle.experimentsRun()};
}

BatchOptions
options(bool sharing, unsigned threads)
{
    BatchOptions opts;
    opts.prefixSharing = sharing;
    opts.numThreads = threads;
    return opts;
}

TEST(QueryPins, PolicyOracleAcrossSharingAndThreads)
{
    // qlru and plru walk compiled tables; random never compiles and
    // lru at 24 ways is above the compiled walk's cap, so both take
    // the interpreted model.
    struct Cell
    {
        const char* spec;
        unsigned ways;
        Pin shared;
        Pin naive;
    };
    const Cell cells[] = {
        {"lru", 4, {0x28611040acb4f390ull, 250, 50},
         {0x500457ae90b0beb8ull, 383, 57}},
        {"qlru:H1,M1,R0,U2", 8, {0x04a60ee229b5ba42ull, 256, 51},
         {0x6511c4d89a991738ull, 383, 57}},
        {"plru", 16, {0xeab074bf00f92eacull, 262, 53},
         {0x819fb4f982893ab8ull, 383, 57}},
        {"random", 4, {0x1ce98572b950c3b0ull, 250, 50},
         {0x621dd1ce5f517f98ull, 383, 57}},
        {"lru", 24, {0xd8fb99c1ec4f6d38ull, 267, 53},
         {0x897da922968c1478ull, 383, 57}},
    };
    for (const Cell& cell : cells) {
        for (const bool sharing : {true, false}) {
            for (const unsigned threads : {1u, 4u}) {
                PolicyOracle oracle(cell.spec, cell.ways, /*seed=*/7);
                expectPin(drive(oracle, options(sharing, threads)),
                          sharing ? cell.shared : cell.naive,
                          std::string(cell.spec) + "@" +
                              std::to_string(cell.ways) +
                              (sharing ? " shared" : " naive") +
                              " threads=" + std::to_string(threads));
            }
        }
    }
}

/** The sequential test with a budget tight enough to abstain. */
infer::AdaptiveVoteConfig
sequentialSchedule()
{
    infer::AdaptiveVoteConfig vote;
    vote.enabled = true;
    vote.initialRepeats = 3;
    vote.escalationStep = 2;
    vote.maxRepeats = 5;
    vote.settleMargin = 4;
    vote.minConfidence = 0.9;
    return vote;
}

Pin
machinePin(ObservationMode mode, bool hostile, bool sequential,
           bool sharing)
{
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec, /*seed=*/11,
                        hostile ? hw::FaultConfig::hostile(0.5)
                                : hw::FaultConfig{});
    MeasurementContext ctx(machine);
    query::MachineOracleConfig cfg;
    cfg.mode = mode;
    if (sequential) {
        ctx.calibrateLatencyFence();
        cfg.prober.vote = sequentialSchedule();
    } else {
        cfg.prober.voteRepeats = 3;
    }
    MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1, cfg);
    return drive(oracle, options(sharing, 1));
}

TEST(QueryPins, MachineOracleAcrossModesNoiseAndVotes)
{
    struct Cell
    {
        ObservationMode mode;
        bool hostile;
        bool sequential;
        Pin shared;
        Pin naive;
    };
    // On a noiseless machine a timed load at the target level reads
    // as that level and a miss as memory, which is what counter mode
    // reports, so the two modes pin the same digests there.
    constexpr auto kCounter = ObservationMode::kCounter;
    constexpr auto kLatency = ObservationMode::kLatency;
    const Cell cells[] = {
        {kCounter, false, false, {0x270376c4d75f9481ull, 15861, 129},
         {0xb17d0f1c7c4e1102ull, 19533, 192}},
        {kCounter, false, true, {0x0d2d4e7a35913a21ull, 21148, 172},
         {0x7a5f1a81e167fcb1ull, 26044, 256}},
        {kCounter, true, false, {0x77831fb4dedf1e2aull, 15933, 129},
         {0x6df3d3e5b15646fbull, 19646, 192}},
        {kCounter, true, true, {0xd02e8ebe16316528ull, 21696, 175},
         {0x7f0bd64eb901da8aull, 26383, 259}},
        {kLatency, false, false, {0x270376c4d75f9481ull, 15861, 129},
         {0xb17d0f1c7c4e1102ull, 19533, 192}},
        {kLatency, false, true, {0x0d2d4e7a35913a21ull, 21148, 172},
         {0x7a5f1a81e167fcb1ull, 26044, 256}},
        {kLatency, true, false, {0xf3f749d07ecf62f1ull, 15908, 129},
         {0xbd4c3fcea464fc10ull, 19588, 192}},
        {kLatency, true, true, {0x28930e52ba2a97b2ull, 21798, 175},
         {0x06107046c8055b27ull, 26762, 260}},
    };
    for (const Cell& cell : cells) {
        for (const bool sharing : {true, false}) {
            expectPin(machinePin(cell.mode, cell.hostile,
                                 cell.sequential, sharing),
                      sharing ? cell.shared : cell.naive,
                      std::string(cell.mode == kCounter ? "counter"
                                                        : "latency") +
                          (cell.hostile ? " hostile" : " noiseless") +
                          (cell.sequential ? " sequential"
                                           : " fixed-3") +
                          (sharing ? " shared" : " naive"));
        }
    }
}

TEST(QueryPins, MachineReplaySharingBillsEachSegmentOnce)
{
    // The query repeats one flush-free segment: one experiment
    // observes both instances, and the query pays for that one.
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec, /*seed=*/11);
    MeasurementContext ctx(machine);
    MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);
    BatchStats stats;
    const auto verdicts = oracle.evaluateBatch(
        {query::compile(query::parseQuery("a b c? @ a b c?"))},
        options(true, 1), &stats);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(oracle.accessesIssued(), 51u);
    EXPECT_EQ(oracle.experimentsRun(), 1u);
    EXPECT_EQ(verdicts[0].accesses, 51u);
    EXPECT_EQ(verdicts[0].experiments, 1u);
    EXPECT_EQ(stats.sharedCost, 51u);
    EXPECT_EQ(stats.experimentsRun, 1u);
}

TEST(QueryPins, FlakyOracleFailsOncePerApiCall)
{
    const auto batch = dslBatch();
    const CompiledQuery single = singleQueries().front();
    const Words words = randomWords(40, 6);
    PolicyOracle inner("lru", 4);
    FlakyOracle flaky(inner, 3);
    unsigned failures = 0;
    const auto attempt = [&](const auto& call) {
        try {
            call();
        } catch (const std::runtime_error&) {
            ++failures;
        }
    };
    const auto askAll = [&](const BatchOptions& opts) {
        attempt([&] { flaky.evaluate(single); });
        attempt([&] { flaky.evaluateBatch(batch, opts, nullptr); });
        attempt([&] {
            flaky.observeWords(words.blocks, words.ends, opts, nullptr);
        });
    };

    // Each API call spends exactly one armed failure, and a failed
    // call never reaches the wrapped oracle.
    askAll({});
    EXPECT_EQ(failures, 3u);
    EXPECT_EQ(flaky.failuresLeft(), 0u);
    EXPECT_EQ(inner.accessesIssued(), 0u);
    askAll({});
    EXPECT_EQ(failures, 3u);
    EXPECT_EQ(inner.accessesIssued(), 241u);
    EXPECT_EQ(inner.experimentsRun(), 47u);

    flaky.arm(2);
    const uint64_t accessesBefore = inner.accessesIssued();
    const uint64_t experimentsBefore = inner.experimentsRun();
    askAll(options(false, 1));
    EXPECT_EQ(failures, 5u);
    EXPECT_EQ(flaky.failuresLeft(), 0u);
    // Only observeWords got through, and naive replay pays every
    // position of every word.
    EXPECT_EQ(inner.accessesIssued() - accessesBefore,
              words.blocks.size());
    EXPECT_EQ(inner.experimentsRun() - experimentsBefore,
              words.ends.size());
}

} // namespace
