#include "recap/query/chaos.hh"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"

namespace recap::query
{

ZipfSampler::ZipfSampler(std::size_t n, double exponent)
{
    require(n > 0, "ZipfSampler: need at least one item");
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
        cdf_.push_back(total);
    }
    for (double& c : cdf_)
        c /= total;
}

std::size_t
ZipfSampler::sample(Rng& rng) const
{
    const double u = rng.nextDouble();
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

FlatAnswers
FlakyOracle::runFlat(std::span<const BlockId> blocks,
                     std::span<const uint8_t> flushes,
                     std::span<const uint32_t> ends,
                     const BatchOptions& opts, BatchStats* stats)
{
    if (failuresLeft_ > 0) {
        --failuresLeft_;
        throw std::runtime_error("injected oracle failure");
    }
    return inner_.evaluateFlat(blocks, flushes, ends, opts, stats);
}

std::vector<std::string>
defaultRequestPool(unsigned ways)
{
    // The hot head (index 0/1) repeats often under Zipf sampling, so
    // those answers populate the degraded cache; the tail mixes
    // batches, metadata commands and client errors.
    std::vector<std::string> pool = {
        "a b c d a?",
        "a b a? b?",
        "a b c a? ; a b c b?",
        ":stats",
        "@ a b a?",
        "a b c d e f a? b? c?",
        ":ways",
        "a? ; b? ; c?",
        "this is ! not a query",  // parse error: answered, clientFault
        ":no-such-command",       // unknown command
    };
    if (ways >= 4) {
        std::string sweep;
        for (unsigned i = 0; i < ways; ++i) {
            sweep += static_cast<char>('a' + (i % 26));
            sweep += ' ';
        }
        pool.push_back(sweep + "a?");
    }
    return pool;
}

namespace
{

void
runClient(ServerCore& core, const ChaosConfig& cfg, unsigned client,
          const std::vector<std::string>& pool,
          const ZipfSampler& zipf, ChaosReport& report)
{
    Rng rng(deriveTaskSeed(cfg.seed, client));
    const std::string oversized(
        core.config().session.limits.maxLineBytes + 16, 'a');
    for (unsigned r = 0; r < cfg.requestsPerClient; ++r) {
        const unsigned n = r + 1;
        std::string line;
        if (cfg.oversizeEveryN != 0 && n % cfg.oversizeEveryN == 0)
            line = oversized;
        else if (cfg.malformedEveryN != 0 &&
                 n % cfg.malformedEveryN == 0) {
            // Random garbage bytes, embedded NULs included.
            const std::size_t len = 1 + rng.nextBelow(32);
            for (std::size_t i = 0; i < len; ++i)
                line += static_cast<char>(rng.nextBelow(256));
        } else {
            line = pool[zipf.sample(rng)];
        }

        const bool disconnect = cfg.disconnectEveryN != 0 &&
                                n % cfg.disconnectEveryN == 0;
        const bool slow = cfg.slowReaderEveryN != 0 &&
                          n % cfg.slowReaderEveryN == 0;
        const auto sink = [&](const std::string&) {
            if (slow)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(cfg.slowReaderMillis));
            if (disconnect)
                throw std::runtime_error("client disconnected");
        };

        const ServerCore::Response resp =
            core.handle(client, line, sink);

        ++report.issued;
        switch (resp.outcome) {
        case Outcome::kSilent: ++report.silent; break;
        case Outcome::kAnswered: ++report.answered; break;
        case Outcome::kAborted: ++report.aborted; break;
        case Outcome::kShed: ++report.shed; break;
        case Outcome::kDegraded: ++report.degraded; break;
        }
        if (resp.outcome == Outcome::kAborted ||
            resp.outcome == Outcome::kShed ||
            resp.outcome == Outcome::kDegraded)
            ++report.byReason[abortReasonName(resp.reason)];
        if (!resp.delivered)
            ++report.deliveredFailures;
        report.extraAttempts += resp.attempts - 1;
    }
}

} // namespace

ChaosReport
runChaos(ServerCore& core, const ChaosConfig& cfg)
{
    const std::vector<std::string> requests =
        cfg.requestPool.empty() ? defaultRequestPool(8)
                                : cfg.requestPool;
    const ZipfSampler zipf(requests.size(), cfg.zipfExponent);

    std::vector<ChaosReport> tallies(cfg.clients);
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (unsigned c = 0; c < cfg.clients; ++c) {
        threads.emplace_back([&, c] {
            runClient(core, cfg, c, requests, zipf, tallies[c]);
        });
    }
    for (std::thread& t : threads)
        t.join();

    ChaosReport merged;
    for (const ChaosReport& t : tallies) {
        merged.issued += t.issued;
        merged.silent += t.silent;
        merged.answered += t.answered;
        merged.aborted += t.aborted;
        merged.shed += t.shed;
        merged.degraded += t.degraded;
        merged.deliveredFailures += t.deliveredFailures;
        merged.extraAttempts += t.extraAttempts;
        for (const auto& [reason, count] : t.byReason)
            merged.byReason[reason] += count;
    }
    return merged;
}

} // namespace recap::query
