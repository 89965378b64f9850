#include "recap/infer/eviction_sets.hh"

#include <algorithm>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"

namespace recap::infer
{

EvictionSetFinder::EvictionSetFinder(MeasurementContext& ctx,
                                     const EvictionSetConfig& cfg)
    : ctx_(ctx), cfg_(cfg)
{
    require(cfg_.level < ctx.depth(),
            "EvictionSetFinder: level out of range");
    require(cfg_.ways >= 1, "EvictionSetFinder: ways must be >= 1");
}

bool
EvictionSetFinder::evicts(cache::Addr target,
                          const std::vector<cache::Addr>& lines)
{
    // Each probe line is accessed this many times, so policies that
    // insert with low priority (LIP-style) still build up pressure.
    constexpr unsigned kHammerRounds = 2;
    ++tests_;
    return majorityVote(cfg_.voteRepeats, [&] {
        ctx_.beginExperiment();
        ctx_.flush();
        ctx_.access(target);
        for (unsigned round = 0; round < kHammerRounds; ++round)
            for (cache::Addr line : lines)
                ctx_.access(line);
        return !ctx_.countedHit(cfg_.level, target);
    });
}

EvictionSetResult
EvictionSetFinder::reduce(cache::Addr target,
                          std::vector<cache::Addr> pool)
{
    EvictionSetResult result;
    const uint64_t loads_before = ctx_.loadsIssued();
    tests_ = 0;

    auto finish = [&](std::optional<std::vector<cache::Addr>> set) {
        result.evictionSet = std::move(set);
        result.tests = tests_;
        result.loadsUsed = ctx_.loadsIssued() - loads_before;
        return result;
    };

    if (!evicts(target, pool))
        return finish(std::nullopt);

    // Group-testing reduction: repeatedly try to drop one of ways + 1
    // groups (the classic split factor). The split must produce
    // exactly `groups` non-empty groups whenever the pool allows it
    // — the pigeonhole argument (ways same-set survivors across
    // ways+1 groups leave one group free of them) breaks if rounding
    // collapses the group count.
    const unsigned groups = cfg_.ways + 1;
    unsigned stuck = 0;
    while (pool.size() > cfg_.ways) {
        bool dropped = false;
        for (unsigned g = 0; g < groups && !dropped; ++g) {
            const size_t lo = pool.size() * g / groups;
            const size_t hi = pool.size() * (g + 1) / groups;
            if (lo >= hi)
                continue;
            std::vector<cache::Addr> without;
            without.reserve(pool.size() - (hi - lo));
            without.insert(without.end(), pool.begin(),
                           pool.begin() + static_cast<long>(lo));
            without.insert(without.end(),
                           pool.begin() + static_cast<long>(hi),
                           pool.end());
            if (evicts(target, without)) {
                pool = std::move(without);
                dropped = true;
            }
        }
        if (!dropped) {
            // No single group is droppable. With k+1 groups over a
            // same-set superset this cannot happen for stack-like
            // policies; tolerate a couple of retries with a rotated
            // pool before giving up.
            if (++stuck > 2)
                return finish(std::nullopt);
            std::rotate(pool.begin(), pool.begin() + 1, pool.end());
        } else {
            stuck = 0;
        }
    }

    // Final sanity: the reduced set must still evict.
    if (!evicts(target, pool))
        return finish(std::nullopt);
    return finish(pool);
}

EvictionSetResult
EvictionSetFinder::findFromRegion(cache::Addr target, cache::Addr base,
                                  uint64_t spanBytes, size_t poolSize,
                                  uint64_t seed)
{
    require(spanBytes >= 64, "findFromRegion: span too small");
    Rng rng(seed);
    std::vector<cache::Addr> pool;
    pool.reserve(poolSize);
    const uint64_t lines = spanBytes / 64;
    for (size_t i = 0; i < poolSize; ++i)
        pool.push_back(base + 64 * rng.nextBelow(lines));
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    rng.shuffle(pool);
    return reduce(target, pool);
}

} // namespace recap::infer
