#include "recap/eval/opt.hh"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "recap/common/bitops.hh"

namespace recap::eval
{

namespace
{

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/**
 * next[i]: index of the next access to the block of t[i] after
 * position i (kNever if none). Blocks spanning fewer numbers than the
 * trace has accesses index a flat array, no larger than the result;
 * sparser ones fall back to a hash map.
 */
std::vector<uint64_t>
nextUses(const trace::Trace& t, unsigned lineBits)
{
    std::vector<uint64_t> next(t.size(), kNever);
    if (t.empty())
        return next;
    const auto [lo, hi] = std::minmax_element(t.begin(), t.end());
    const uint64_t base = *lo >> lineBits;
    const uint64_t span = (*hi >> lineBits) - base;
    if (span < t.size()) {
        std::vector<uint64_t> lastSeen(span + 1, kNever);
        for (std::size_t i = t.size(); i-- > 0;) {
            uint64_t& last = lastSeen[(t[i] >> lineBits) - base];
            next[i] = last;
            last = i;
        }
        return next;
    }
    std::unordered_map<uint64_t, uint64_t> lastSeen;
    for (std::size_t i = t.size(); i-- > 0;) {
        auto [it, fresh] = lastSeen.try_emplace(t[i] >> lineBits, i);
        if (!fresh) {
            next[i] = it->second;
            it->second = i;
        }
    }
    return next;
}

/** One resident block of an OPT set. */
struct Resident
{
    uint64_t block;
    uint64_t nextUse;
};

} // namespace

cache::LevelStats
simulateOpt(const cache::Geometry& geom, const trace::Trace& t)
{
    geom.validate();
    const unsigned lineBits = log2Floor(geom.lineSize);
    const std::vector<uint64_t> next = nextUses(t, lineBits);

    // One row of `ways` resident blocks per set, filled left to right;
    // used[s] counts the blocks of set s.
    const unsigned ways = geom.ways;
    std::vector<Resident> rows(std::size_t{geom.numSets} * ways);
    std::vector<unsigned> used(geom.numSets, 0);
    cache::LevelStats stats;
    stats.accesses = t.size();

    for (std::size_t i = 0; i < t.size(); ++i) {
        const uint64_t block = t[i] >> lineBits;
        const unsigned set = static_cast<unsigned>(block &
                                                   (geom.numSets - 1));
        Resident* row = &rows[std::size_t{set} * ways];
        const unsigned n = used[set];

        unsigned w = 0;
        while (w < n && row[w].block != block)
            ++w;
        if (w < n) {
            ++stats.hits;
            row[w].nextUse = next[i];
            continue;
        }

        ++stats.misses;
        if (n < ways) {
            row[n] = {block, next[i]};
            ++used[set];
            continue;
        }
        // Evict the farthest next use; ties (blocks never used again)
        // go to the larger block.
        unsigned victim = 0;
        for (w = 1; w < ways; ++w) {
            if (row[w].nextUse > row[victim].nextUse ||
                (row[w].nextUse == row[victim].nextUse &&
                 row[w].block > row[victim].block))
                victim = w;
        }
        row[victim] = {block, next[i]};
        ++stats.evictions;
    }
    return stats;
}

} // namespace recap::eval
