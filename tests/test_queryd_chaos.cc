/**
 * @file
 * Chaos-harness tests for the fault-tolerant query service.
 *
 * The contract under test: NO request is ever lost — every line
 * handed to ServerCore ends in exactly one taxonomy outcome
 * (answered / aborted / shed / degraded, or silent for blank lines),
 * under concurrent hostile clients, injected disconnects, slow
 * readers, malformed floods, scripted clock jumps and a machine
 * running FaultConfig::hostile(2). Breaker trip / half-open / close
 * transitions are pinned deterministically with an injected flaky
 * oracle and a scripted clock.
 *
 * RECAP_CHAOS_SMOKE=N scales the stochastic scenarios up N-fold (CI
 * runs a larger sweep; the default is sized for tier-1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/measurement.hh"
#include "recap/query/chaos.hh"
#include "recap/query/service.hh"

namespace
{

using namespace recap;
using namespace recap::query;

bool
contains(const std::string& haystack, const std::string& needle)
{
    return haystack.find(needle) != std::string::npos;
}

unsigned
chaosScale()
{
    if (const char* env = std::getenv("RECAP_CHAOS_SMOKE")) {
        const int v = std::atoi(env);
        if (v > 1)
            return static_cast<unsigned>(v);
    }
    return 1;
}

/** The canonical reason names a request may legitimately end with. */
const std::set<std::string>&
knownReasons()
{
    static const std::set<std::string> names = {
        "timeout",        "access-budget", "shed",
        "breaker-open",   "line-too-long", "too-many-queries",
        "query-too-long", "no-quorum",     "oracle-failure",
        "disconnect",
    };
    return names;
}

TEST(ChaosPrimitives, ZipfSamplerIsDeterministicAndHotHeaded)
{
    const ZipfSampler zipf(10, 1.1);
    Rng a(42);
    Rng b(42);
    std::vector<std::size_t> counts(10, 0);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t s = zipf.sample(a);
        ASSERT_EQ(s, zipf.sample(b)); // seed-deterministic
        ++counts[s];
    }
    // Index 0 carries the most mass, strictly more than the tail.
    EXPECT_GT(counts[0], counts[5]);
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[0], 400u);
}

TEST(ChaosPrimitives, ChaosClockTicksAndJumps)
{
    ChaosClock clock(2, 3, 100);
    EXPECT_EQ(clock.read(), 3u);   // 1 + 2
    EXPECT_EQ(clock.read(), 5u);
    EXPECT_EQ(clock.read(), 107u); // third reading jumps +100
    EXPECT_EQ(clock.read(), 109u);
}

TEST(ChaosPrimitives, OutcomeNamesAreCanonical)
{
    EXPECT_STREQ(outcomeName(Outcome::kAnswered), "answered");
    EXPECT_STREQ(outcomeName(Outcome::kAborted), "aborted");
    EXPECT_STREQ(outcomeName(Outcome::kShed), "shed");
    EXPECT_STREQ(outcomeName(Outcome::kDegraded), "degraded");
    EXPECT_STREQ(outcomeName(Outcome::kSilent), "silent");
}

TEST(ChaosTaxonomy, EveryRequestClassifiedUnderConcurrentChaos)
{
    // >= 10k requests, 16 concurrent clients over 2 policy shards,
    // with disconnects, slow readers, malformed floods and oversized
    // lines all injected. The invariant: nothing crashes, nothing
    // hangs, and every single request ends in exactly one outcome.
    PolicyOracle shard0("lru", 8, 1);
    PolicyOracle shard1("lru", 8, 2);

    ServiceConfig cfg;
    cfg.session.limits.maxLineBytes = 1024;
    cfg.maxConcurrent = 4;
    cfg.maxQueue = 8;
    ServerCore core({&shard0, &shard1}, cfg);

    ChaosConfig chaos;
    chaos.clients = 16;
    chaos.requestsPerClient = 640 * chaosScale();
    chaos.seed = 7;
    chaos.disconnectEveryN = 7;
    chaos.slowReaderEveryN = 13;
    chaos.slowReaderMillis = 1;
    chaos.malformedEveryN = 11;
    chaos.oversizeEveryN = 17;

    const ChaosReport report = runChaos(core, chaos);

    EXPECT_EQ(report.issued,
              uint64_t{chaos.clients} * chaos.requestsPerClient);
    EXPECT_TRUE(report.complete())
        << report.classified() << " classified of " << report.issued;
    EXPECT_GT(report.answered, report.issued / 2);
    EXPECT_GT(report.aborted, 0u); // oversized lines
    EXPECT_GT(report.deliveredFailures, 0u); // disconnect injection
    for (const auto& [reason, count] : report.byReason)
        EXPECT_TRUE(knownReasons().count(reason))
            << "unknown reason " << reason << " x" << count;

    // The service's own accounting agrees with the client tallies.
    const ServiceStats stats = core.stats();
    EXPECT_EQ(stats.answered, report.answered);
    EXPECT_EQ(stats.aborted, report.aborted);
    EXPECT_EQ(stats.shed, report.shed);
    EXPECT_EQ(stats.degraded, report.degraded);
    EXPECT_EQ(stats.disconnects, report.deliveredFailures);

    // A healthy policy backend never trips its breakers.
    EXPECT_EQ(core.breaker(0).state(),
              CircuitBreaker::State::kClosed);
    EXPECT_EQ(core.breaker(1).state(),
              CircuitBreaker::State::kClosed);
    EXPECT_EQ(core.breaker(0).counters().trips, 0u);
}

TEST(ChaosService, HealthAnswersShardBreakerAndOutcomeState)
{
    PolicyOracle oracle("lru", 4, 1);
    ServerCore core({&oracle}, {});
    EXPECT_EQ(core.handle(0, "a b c d a?").outcome,
              Outcome::kAnswered);
    const auto health = core.handle(0, ":health");
    EXPECT_EQ(health.outcome, Outcome::kAnswered);
    EXPECT_TRUE(contains(health.json, "\"health\"")) << health.json;
    EXPECT_TRUE(contains(health.json, "\"breaker\":\"closed\""))
        << health.json;
    EXPECT_TRUE(contains(health.json, "\"answered\":1"))
        << health.json;
}

TEST(ChaosService, HealthReportsPerShardLatencyHistogram)
{
    PolicyOracle oracle("lru", 4, 1);
    ChaosClock clock(1);
    ServiceConfig cfg;
    cfg.session.clock = clock.fn();
    ServerCore core({&oracle}, cfg);

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(core.handle(0, "a b c d a?").outcome,
                  Outcome::kAnswered);

    const auto health = core.handle(0, ":health");
    // Three admitted requests landed in the histogram; :health
    // itself is served before admission and must not count.
    EXPECT_TRUE(contains(health.json, "\"latency\":{\"count\":3"))
        << health.json;
    EXPECT_TRUE(contains(health.json, "\"p50_ms\":")) << health.json;
    EXPECT_TRUE(contains(health.json, "\"p99_ms\":")) << health.json;
    EXPECT_TRUE(contains(health.json, "\"buckets\":["))
        << health.json;
    // With a 1 ms/reading scripted clock every request takes a few
    // ms, so the quantiles are small but non-trivial to compute —
    // p99 can never undercut p50.
    const auto at = [&](const char* key) {
        const std::size_t pos = health.json.find(key);
        EXPECT_NE(pos, std::string::npos) << key;
        return std::strtoull(
            health.json.c_str() + pos + std::strlen(key), nullptr,
            10);
    };
    EXPECT_GE(at("\"p99_ms\":"), at("\"p50_ms\":"));
}

TEST(ChaosService, HealthExposesBreakerTransitionLog)
{
    PolicyOracle inner("lru", 4, 1);
    FlakyOracle flaky(inner, 0);
    ChaosClock clock(1);
    ServiceConfig cfg;
    cfg.session.clock = clock.fn();
    cfg.breaker.failureThreshold = 3;
    cfg.breaker.openMillis = 50;
    cfg.breaker.halfOpenSuccesses = 2;
    ServerCore core({&flaky}, cfg);

    // A fresh breaker has an empty transition log.
    const auto before = core.handle(0, ":health");
    EXPECT_TRUE(contains(before.json, "\"transitions\":[]"))
        << before.json;

    // Trip it: three consecutive oracle failures.
    flaky.arm(3);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(core.handle(0, "a b c d a?").outcome,
                  Outcome::kAborted);
    ASSERT_EQ(core.breaker(0).state(), CircuitBreaker::State::kOpen);

    const auto after = core.handle(0, ":health");
    EXPECT_TRUE(contains(after.json, "\"breaker\":\"open\""))
        << after.json;
    EXPECT_TRUE(contains(
        after.json,
        "\"transitions\":[{\"from\":\"closed\",\"to\":\"open\","
        "\"at\":"))
        << after.json;
}

TEST(ChaosAdmission, ShedsWithStructuredAnswerWhenSaturated)
{
    PolicyOracle oracle("lru", 4, 1);
    ServiceConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.maxQueue = 0; // no waiting: busy means shed
    ServerCore core({&oracle}, cfg);

    std::promise<void> entered;
    std::promise<void> unblock;
    std::thread holder([&] {
        // The slow reader holds its admission slot while its sink
        // blocks — that is the backpressure the shed relies on.
        core.handle(0, "a b a?", [&](const std::string&) {
            entered.set_value();
            unblock.get_future().wait();
        });
    });
    entered.get_future().wait();

    const auto resp = core.handle(1, "a b a?");
    EXPECT_EQ(resp.outcome, Outcome::kShed);
    EXPECT_EQ(resp.reason, AbortReason::kShed);
    EXPECT_TRUE(contains(resp.json, "\"aborted\":\"shed\""))
        << resp.json;

    unblock.set_value();
    holder.join();
    EXPECT_EQ(core.stats().shed, 1u);
    EXPECT_EQ(core.stats().answered, 1u);
}

TEST(ChaosAdmission, QueueWaitCountsAgainstTheRequestDeadline)
{
    PolicyOracle oracle("lru", 4, 1);
    ChaosClock clock(20); // 20 ms per reading
    ServiceConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.maxQueue = 4;
    cfg.session.limits.timeoutMillis = 50;
    cfg.session.clock = clock.fn();
    ServerCore core({&oracle}, cfg);

    std::promise<void> entered;
    std::promise<void> unblock;
    std::thread holder([&] {
        core.handle(0, "a b a?", [&](const std::string&) {
            entered.set_value();
            unblock.get_future().wait();
        });
    });
    entered.get_future().wait();

    // The queued request's 50 ms budget burns at 20 ms per clock
    // reading while it waits; it must abort as a timeout, not hang.
    const auto resp = core.handle(1, "a b a?");
    EXPECT_EQ(resp.outcome, Outcome::kAborted);
    EXPECT_EQ(resp.reason, AbortReason::kTimeout);
    EXPECT_TRUE(contains(resp.json, "queued")) << resp.json;

    unblock.set_value();
    holder.join();
}

TEST(ChaosRetry, TransientOracleFailuresAreRetriedAndRecover)
{
    PolicyOracle inner("lru", 4, 1);
    FlakyOracle flaky(inner, 0);
    ServiceConfig cfg;
    cfg.retry.maxAttempts = 3;
    cfg.retry.baseDelayMillis = 1;
    cfg.retry.jitter = 0.0;
    cfg.breaker.failureThreshold = 100; // keep it closed here
    ServerCore core({&flaky}, cfg);

    flaky.arm(2); // first two attempts fail, the third succeeds
    const auto resp = core.handle(0, "a b c d a?");
    EXPECT_EQ(resp.outcome, Outcome::kAnswered);
    EXPECT_EQ(resp.attempts, 3u);
    EXPECT_TRUE(contains(resp.json, "\"ok\":true")) << resp.json;
    EXPECT_EQ(core.stats().retries, 2u);

    // With retries exhausted the failure surfaces structurally.
    flaky.arm(5);
    const auto failed = core.handle(0, "a b c d a?");
    EXPECT_EQ(failed.outcome, Outcome::kAborted);
    EXPECT_EQ(failed.reason, AbortReason::kOracleFailure);
    EXPECT_TRUE(
        contains(failed.json, "\"aborted\":\"oracle-failure\""))
        << failed.json;
}

TEST(ChaosBreaker, TripsServesDegradedHalfOpensAndCloses)
{
    PolicyOracle inner("lru", 4, 1);
    FlakyOracle flaky(inner, 0);
    ChaosClock clock(1);
    ServiceConfig cfg;
    cfg.session.clock = clock.fn();
    cfg.breaker.failureThreshold = 3;
    cfg.breaker.openMillis = 50;
    cfg.breaker.halfOpenSuccesses = 2;
    ServerCore core({&flaky}, cfg);

    // 1. A healthy answer populates the degraded cache.
    EXPECT_EQ(core.handle(0, "a b c d a?").outcome,
              Outcome::kAnswered);

    // 2. Three consecutive oracle failures trip the breaker.
    flaky.arm(3);
    for (int i = 0; i < 3; ++i) {
        const auto resp = core.handle(0, "a b c d a?");
        EXPECT_EQ(resp.outcome, Outcome::kAborted);
        EXPECT_EQ(resp.reason, AbortReason::kOracleFailure);
    }
    EXPECT_EQ(core.breaker(0).state(), CircuitBreaker::State::kOpen);

    // 3. While open: the hot request replays from the cache...
    const auto cached = core.handle(0, "a b c d a?");
    EXPECT_EQ(cached.outcome, Outcome::kDegraded);
    EXPECT_TRUE(cached.fromCache);
    EXPECT_TRUE(contains(cached.json, "\"degraded\":true"))
        << cached.json;
    EXPECT_TRUE(contains(cached.json, "\"cached\":true"))
        << cached.json;
    EXPECT_TRUE(contains(cached.json, "\"probes\"")) << cached.json;

    // ...and a cold request abstains, structurally.
    const auto cold = core.handle(0, "x y z x?");
    EXPECT_EQ(cold.outcome, Outcome::kDegraded);
    EXPECT_FALSE(cold.fromCache);
    EXPECT_TRUE(contains(cold.json, "\"aborted\":\"breaker-open\""))
        << cold.json;

    // 4. After the open dwell the next request is the half-open
    // probe; two successes close the breaker again.
    for (int i = 0; i < 70; ++i)
        clock.read();
    EXPECT_EQ(core.handle(0, "a b c d a?").outcome,
              Outcome::kAnswered);
    EXPECT_EQ(core.handle(0, "a b c d a?").outcome,
              Outcome::kAnswered);
    EXPECT_EQ(core.breaker(0).state(),
              CircuitBreaker::State::kClosed);

    // 5. The transition log pins the exact state sequence.
    const auto transitions = core.breaker(0).transitions();
    ASSERT_EQ(transitions.size(), 3u);
    EXPECT_EQ(transitions[0].from, CircuitBreaker::State::kClosed);
    EXPECT_EQ(transitions[0].to, CircuitBreaker::State::kOpen);
    EXPECT_EQ(transitions[1].from, CircuitBreaker::State::kOpen);
    EXPECT_EQ(transitions[1].to, CircuitBreaker::State::kHalfOpen);
    EXPECT_EQ(transitions[2].from,
              CircuitBreaker::State::kHalfOpen);
    EXPECT_EQ(transitions[2].to, CircuitBreaker::State::kClosed);
    EXPECT_EQ(core.breaker(0).counters().trips, 1u);
    EXPECT_EQ(core.breaker(0).counters().closes, 1u);
}

namespace
{

/**
 * Aborts (with a structured reason) any batch holding a flush;
 * everything else goes to the real policy oracle. Lets one session
 * abort deterministically while another stays healthy on the SAME
 * shard.
 */
class PoisonOracle : public QueryOracle
{
  public:
    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override
    {
        return "poison(" + inner_.describe() + ")";
    }
    uint64_t experimentsRun() const override
    {
        return inner_.experimentsRun();
    }
    uint64_t accessesIssued() const override
    {
        return inner_.accessesIssued();
    }

  protected:
    FlatAnswers runFlat(std::span<const BlockId> blocks,
                        std::span<const uint8_t> flushes,
                        std::span<const uint32_t> ends,
                        const BatchOptions& opts,
                        BatchStats* stats) override
    {
        if (std::find(flushes.begin(), flushes.end(), 1) != flushes.end())
            throw RequestAborted("poisoned request",
                                 AbortReason::kAccessBudget);
        return inner_.evaluateFlat(blocks, flushes, ends, opts, stats);
    }

  private:
    PolicyOracle inner_{"lru", 4, 1};
};

} // namespace

TEST(ChaosIsolation, SessionsOnTheSameShardDoNotShareAborts)
{
    // Sessions 0 and 1 both pin to the single shard. Session 1's
    // every request aborts; session 0 must never see anything but
    // clean answers, no matter how the threads interleave. Run under
    // -DRECAP_SANITIZE=thread this also proves the checkpoint
    // install/clear and cache handoff are race-free.
    PoisonOracle oracle;
    ServiceConfig cfg;
    cfg.breaker.enabled = false; // aborts here must not trip it
    cfg.maxConcurrent = 4;
    ServerCore core({&oracle}, cfg);

    constexpr int kRequests = 250;
    std::vector<ServerCore::Response> healthy(kRequests);
    std::vector<ServerCore::Response> poisoned(kRequests);
    std::thread a([&] {
        for (int i = 0; i < kRequests; ++i)
            healthy[i] = core.handle(0, "a b c a?");
    });
    std::thread b([&] {
        for (int i = 0; i < kRequests; ++i)
            poisoned[i] = core.handle(1, "x @ x?");
    });
    a.join();
    b.join();

    for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(healthy[i].outcome, Outcome::kAnswered)
            << i << ": " << healthy[i].json;
        EXPECT_TRUE(contains(healthy[i].json, "\"ok\":true"))
            << healthy[i].json;
        EXPECT_EQ(poisoned[i].outcome, Outcome::kAborted) << i;
        EXPECT_EQ(poisoned[i].reason, AbortReason::kAccessBudget)
            << i;
    }
}

namespace
{

/** One machine-backed oracle shard for the hostile chaos run. */
struct HostileShard
{
    hw::Machine machine;
    infer::MeasurementContext ctx;
    MachineOracle oracle;

    HostileShard(const hw::MachineSpec& spec, uint64_t seed,
                 double hostileIntensity,
                 const MachineOracleConfig& cfg)
        : machine(spec, seed,
                  hw::FaultConfig::hostile(hostileIntensity)),
          ctx(machine),
          oracle(ctx, infer::assumedGeometry(spec), 0, cfg)
    {}
};

} // namespace

TEST(ChaosHostile, MachineShardsSurviveHostileIntensity2)
{
    // The acceptance scenario: MachineOracle shards over
    // FaultConfig::hostile(2.0) with adaptive voting, concurrent
    // clients, disconnect + slow-reader + malformed injection and
    // retries enabled. Every request must classify; abstentions
    // (no-quorum) and aborts are legitimate outcomes, crashes and
    // hangs are not.
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 64);
    MachineOracleConfig mcfg;
    mcfg.prober.vote.enabled = true;
    HostileShard shard0(spec, 11, 2.0, mcfg);
    HostileShard shard1(spec, 12, 2.0, mcfg);

    ServiceConfig cfg;
    cfg.session.limits.timeoutMillis = 10'000;
    cfg.retry.maxAttempts = 2;
    cfg.retry.baseDelayMillis = 1;
    cfg.breaker.failureThreshold = 5;
    cfg.breaker.openMillis = 20;
    ServerCore core({&shard0.oracle, &shard1.oracle}, cfg);

    ChaosConfig chaos;
    chaos.clients = 4;
    chaos.requestsPerClient = 12 * chaosScale();
    chaos.seed = 23;
    chaos.requestPool = {"a b a?", "a b c a?", "b a b?", ":stats"};
    chaos.disconnectEveryN = 5;
    chaos.slowReaderEveryN = 7;
    chaos.slowReaderMillis = 1;
    chaos.malformedEveryN = 9;

    const ChaosReport report = runChaos(core, chaos);

    EXPECT_EQ(report.issued,
              uint64_t{chaos.clients} * chaos.requestsPerClient);
    EXPECT_TRUE(report.complete())
        << report.classified() << " classified of " << report.issued;
    EXPECT_GT(report.answered, 0u);
    for (const auto& [reason, count] : report.byReason)
        EXPECT_TRUE(knownReasons().count(reason))
            << "unknown reason " << reason << " x" << count;
}

TEST(ChaosService, FramingRoutesSessionsAndEchoesPrefixes)
{
    PolicyOracle oracle("lru", 4, 1);
    ServerCore core({&oracle}, {});
    std::istringstream in("a b c d a?\n"
                          "1> :ways\n"
                          "9> :quit\n" // only ends session 9
                          "# comment\n"
                          ":quit\n");
    std::ostringstream out;
    const unsigned answered = runService(in, out, core);
    EXPECT_EQ(answered, 4u);

    std::vector<std::string> lines;
    std::istringstream parsed(out.str());
    for (std::string line; std::getline(parsed, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(contains(lines[0], "\"ok\":true")) << lines[0];
    EXPECT_FALSE(contains(lines[0], ">")) << lines[0];
    EXPECT_TRUE(lines[1].rfind("1> ", 0) == 0) << lines[1];
    EXPECT_TRUE(contains(lines[1], "\"ways\":4")) << lines[1];
    EXPECT_TRUE(lines[2].rfind("9> ", 0) == 0) << lines[2];
    EXPECT_TRUE(contains(lines[2], "\"bye\":true")) << lines[2];
    EXPECT_TRUE(contains(lines[3], "\"bye\":true")) << lines[3];
}

TEST(ChaosService, SessionIdsBeyondTheLimitAreRefusedCleanly)
{
    PolicyOracle oracle("lru", 4, 1);
    ServiceConfig cfg;
    cfg.maxSessions = 4;
    ServerCore core({&oracle}, cfg);
    const auto resp = core.handle(99, ":ways");
    EXPECT_EQ(resp.outcome, Outcome::kAnswered);
    EXPECT_TRUE(resp.clientFault);
    EXPECT_TRUE(contains(resp.json, "out of range")) << resp.json;
}

} // namespace
