/**
 * @file
 * Chaos harness for the fault-tolerant query service.
 *
 * The service's robustness claims (every request ends in exactly one
 * taxonomy outcome, no crashes, no hangs, breakers trip and recover)
 * are only worth anything under adversarial conditions. This harness
 * drives a ServerCore with:
 *
 *   - many concurrent scripted clients (one thread each, session =
 *     client id, so clients share shards),
 *   - a Zipf-distributed request mix over a pool of lines (hot
 *     requests repeat — exactly what the degraded-answer cache is
 *     for),
 *   - service-layer injections: mid-request disconnects (the sink
 *     throws), slow readers (the sink blocks while holding its
 *     admission slot), malformed-line floods and oversized lines,
 *   - hostile machines (hw::FaultConfig::hostile) underneath the
 *     MachineOracle shards — wired up by the caller, and
 *   - scripted clocks with forward jumps (ChaosClock), so deadline
 *     and breaker logic is exercised deterministically.
 *
 * Everything is seed-deterministic per client; only thread
 * interleaving varies between runs, and the assertions (taxonomy
 * completeness, outcome counts' consistency) hold for every
 * interleaving.
 */

#ifndef RECAP_QUERY_CHAOS_HH_
#define RECAP_QUERY_CHAOS_HH_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/query/service.hh"

namespace recap::query
{

/**
 * A deterministic scripted clock: every reading advances time by
 * @p tickMillis, and every @p jumpEvery-th reading additionally
 * jumps forward by @p jumpMillis (modelling NTP steps / suspends).
 * Thread-safe; hand fn() to ServerOptions::clock.
 */
class ChaosClock
{
  public:
    explicit ChaosClock(uint64_t tickMillis = 1,
                        uint64_t jumpEvery = 0,
                        uint64_t jumpMillis = 0)
        : tick_(tickMillis), jumpEvery_(jumpEvery),
          jump_(jumpMillis)
    {}

    uint64_t read()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        now_ += tick_;
        if (jumpEvery_ != 0 && ++readings_ % jumpEvery_ == 0)
            now_ += jump_;
        return now_;
    }

    ClockFn fn()
    {
        return [this] { return read(); };
    }

  private:
    std::mutex mutex_;
    uint64_t now_ = 1; // never 0: Deadline treats 0 as unbounded
    uint64_t readings_ = 0;
    uint64_t tick_;
    uint64_t jumpEvery_;
    uint64_t jump_;
};

/**
 * Zipf(s) sampler over indices [0, n): index k has weight
 * 1 / (k+1)^s. s = 0 is uniform; s around 1 gives the classic
 * hot-head distribution of real query traffic.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double exponent);

    std::size_t sample(Rng& rng) const;

  private:
    std::vector<double> cdf_;
};

/**
 * A deliberately sick oracle for deterministic breaker tests: the
 * first @p failFirstN calls of any API (evaluate, evaluateBatch,
 * observeWords) throw, then it behaves exactly like the wrapped
 * oracle.
 */
class FlakyOracle : public QueryOracle
{
  public:
    FlakyOracle(QueryOracle& inner, unsigned failFirstN)
        : inner_(inner), failuresLeft_(failFirstN)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override
    {
        return "flaky(" + inner_.describe() + ")";
    }
    uint64_t experimentsRun() const override
    {
        return inner_.experimentsRun();
    }
    uint64_t accessesIssued() const override
    {
        return inner_.accessesIssued();
    }
    void setCheckpoint(std::function<void()> hook) override
    {
        inner_.setCheckpoint(std::move(hook));
    }

    /** Re-arms the fault: the NEXT @p n evaluations throw. */
    void arm(unsigned n) { failuresLeft_ = n; }

    /** Injected failures still pending. */
    unsigned failuresLeft() const { return failuresLeft_; }

  protected:
    FlatAnswers runFlat(std::span<const BlockId> blocks,
                        std::span<const uint8_t> flushes,
                        std::span<const uint32_t> ends,
                        const BatchOptions& opts,
                        BatchStats* stats) override;

  private:
    QueryOracle& inner_;
    unsigned failuresLeft_;
};

/** What the chaos clients inject and how much load they apply. */
struct ChaosConfig
{
    /** Concurrent client threads; client c drives session c. */
    unsigned clients = 8;

    unsigned requestsPerClient = 128;

    /** Determinism root; client c uses deriveTaskSeed(seed, c). */
    uint64_t seed = 1;

    /**
     * The request mix, sampled Zipf(zipfExponent); empty selects
     * defaultRequestPool().
     */
    std::vector<std::string> requestPool;
    double zipfExponent = 1.1;

    /** Every Nth delivery to this client throws (0 = never). */
    unsigned disconnectEveryN = 0;

    /** Every Nth delivery blocks ~slowReaderMillis (0 = never). */
    unsigned slowReaderEveryN = 0;
    unsigned slowReaderMillis = 2;

    /** Every Nth request is a malformed line (0 = never). */
    unsigned malformedEveryN = 0;

    /** Every Nth request is an oversized line (0 = never). */
    unsigned oversizeEveryN = 0;
};

/** Aggregated end states of one chaos run. */
struct ChaosReport
{
    uint64_t issued = 0;

    uint64_t silent = 0;
    uint64_t answered = 0;
    uint64_t aborted = 0;
    uint64_t shed = 0;
    uint64_t degraded = 0;

    uint64_t deliveredFailures = 0; ///< responses lost to disconnects
    uint64_t extraAttempts = 0;     ///< sum of (attempts - 1)

    /** Abort/degrade/shed causes by canonical reason name. */
    std::map<std::string, uint64_t> byReason;

    uint64_t classified() const
    {
        return silent + answered + aborted + shed + degraded;
    }

    /** Every issued request ended in exactly one outcome. */
    bool complete() const { return classified() == issued; }
};

/**
 * A query mix exercising single queries, batches, commands and
 * client errors, for an oracle of @p ways ways. Hot head first (the
 * Zipf sampler favours low indices).
 */
std::vector<std::string> defaultRequestPool(unsigned ways);

/**
 * Runs the chaos scenario against @p core: cfg.clients threads each
 * issue cfg.requestsPerClient requests through ServerCore::handle
 * with the configured injections, then the per-client tallies merge
 * into one report. Deterministic per client given cfg.seed.
 */
ChaosReport runChaos(ServerCore& core, const ChaosConfig& cfg);

} // namespace recap::query

#endif // RECAP_QUERY_CHAOS_HH_
