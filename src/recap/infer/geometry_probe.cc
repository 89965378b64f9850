#include "recap/infer/geometry_probe.hh"

#include "recap/common/error.hh"

namespace recap::infer
{

DiscoveredGeometry
assumedGeometry(const hw::MachineSpec& spec)
{
    DiscoveredGeometry geom;
    for (const auto& lvl : spec.levels) {
        const auto g = lvl.geometry();
        geom.lineSize = g.lineSize;
        geom.levels.push_back({g.lineSize, g.numSets, g.ways});
    }
    return geom;
}

namespace
{

constexpr unsigned kMaxLineSize = 1024;
constexpr unsigned kMaxWays = 64; ///< associativity search cap

/** A multiple of every set stride, so all lines share every set. */
constexpr uint64_t kUniversalStride = uint64_t{1} << 27;

/** Cycles before measuring, then cycles measured (at least two). */
constexpr unsigned kWarmupRounds = 4;
constexpr unsigned kMeasureRounds = 6;

} // namespace

unsigned
GeometryProbe::discoverLineSize()
{
    // After loading base, base+delta hits L1 iff both fall into the
    // same line. The smallest power-of-two delta that misses is the
    // line size.
    for (unsigned delta = 1; delta <= kMaxLineSize; delta *= 2) {
        const bool missed = majorityVote(cfg_.voteRepeats, [&] {
            ctx_.beginExperiment();
            ctx_.flush();
            ctx_.access(cfg_.baseAddr);
            return !ctx_.countedHit(0, cfg_.baseAddr + delta);
        });
        if (missed)
            return delta;
    }
    throw UsageError("GeometryProbe: line size above 1024 bytes");
}

LevelGeometry
GeometryProbe::discoverLevel(unsigned level, unsigned lineSize)
{
    LevelGeometry geom;
    geom.lineSize = lineSize;

    // Associativity: largest cycling working set (at a universal
    // stride, so all lines conflict at every level) with no steady
    // misses at this level.
    unsigned ways = 0;
    for (unsigned n = 2; n <= kMaxWays + 1; ++n) {
        const bool missing = majorityVote(cfg_.voteRepeats, [&] {
            return steadyMisses(level, n, kUniversalStride);
        });
        if (missing) {
            ways = n - 1;
            break;
        }
    }
    require(ways >= 1,
            "GeometryProbe: associativity above the search cap");
    geom.ways = ways;

    // Set stride: smallest power-of-two stride at which ways+1
    // cycling lines still thrash this level.
    for (uint64_t stride = lineSize; stride <= kUniversalStride;
         stride *= 2) {
        const bool missing = majorityVote(cfg_.voteRepeats, [&] {
            return steadyMisses(level, ways + 1, stride);
        });
        if (missing) {
            geom.numSets = static_cast<unsigned>(stride / lineSize);
            return geom;
        }
    }
    throw UsageError("GeometryProbe: set stride above universal stride");
}

DiscoveredGeometry
GeometryProbe::discoverAll()
{
    DiscoveredGeometry all;
    all.lineSize = discoverLineSize();
    for (unsigned level = 0; level < ctx_.depth(); ++level)
        all.levels.push_back(discoverLevel(level, all.lineSize));
    return all;
}

bool
GeometryProbe::steadyMisses(unsigned level, unsigned count,
                            uint64_t stride)
{
    ctx_.beginExperiment();
    ctx_.flush();

    auto cycle_once = [&] {
        for (unsigned i = 0; i < count; ++i)
            ctx_.access(cfg_.baseAddr + stride * i);
    };

    for (unsigned r = 0; r < kWarmupRounds; ++r)
        cycle_once();

    uint64_t misses = 0;
    for (unsigned r = 0; r < kMeasureRounds; ++r) {
        for (unsigned i = 0; i < count; ++i) {
            const auto obs = ctx_.observeAtLevel(
                level, cfg_.baseAddr + stride * i);
            if (obs.reached && !obs.hit)
                ++misses;
        }
    }
    // A fitting working set gives ~0 misses; a thrashing one at
    // least one per round.
    return misses >= kMeasureRounds / 2 + 1;
}

} // namespace recap::infer
