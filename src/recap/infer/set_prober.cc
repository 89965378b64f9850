#include "recap/infer/set_prober.hh"

#include <algorithm>
#include <unordered_map>

#include "recap/common/error.hh"

namespace recap::infer
{

SetProber::SetProber(MeasurementContext& ctx,
                     const DiscoveredGeometry& geom,
                     unsigned targetLevel, const SetProberConfig& cfg)
    : ctx_(ctx), geom_(geom), targetLevel_(targetLevel), cfg_(cfg),
      schedule_(cfg.vote.enabled ? cfg.vote
                                 : fixedSchedule(cfg.voteRepeats))
{
    require(targetLevel < geom_.levels.size(),
            "SetProber: target level out of range");
    // The conflict-line construction needs each level's set stride to
    // strictly divide the next one's.
    for (unsigned u = 0; u + 1 <= targetLevel_; ++u) {
        const uint64_t inner = geom_.levels[u].setStride();
        const uint64_t outer = geom_.levels[u + 1].setStride();
        require(outer % inner == 0 && outer / inner >= 2,
                "SetProber: inner level must have strictly fewer sets "
                "than the next outer level");
    }
    buildEvictorPools();
}

void
SetProber::buildEvictorPools()
{
    // Per outer-level set, how many pool lines have been placed so
    // far — pool lines must stay resident in outer levels, so no set
    // may be overfilled.
    std::vector<std::unordered_map<uint64_t, unsigned>> load(
        geom_.levels.size());

    pools_.resize(targetLevel_);
    for (unsigned u = 0; u < targetLevel_; ++u) {
        const uint64_t stride_u = geom_.levels[u].setStride();
        const uint64_t ratio =
            geom_.levels[u + 1].setStride() / stride_u;
        // Cycling more lines than the level has ways guarantees the
        // pool keeps missing (and thus filling) there.
        const unsigned pool_size = geom_.levels[u].ways + 2;

        EvictorPool pool;
        for (uint64_t j = 1; pool.lines.size() < pool_size; ++j) {
            if (j % ratio == 0)
                continue; // would alias the probed outer sets
            const cache::Addr addr = cfg_.baseAddr + stride_u * j;
            // Keep every outer set below its capacity so the pool
            // stays resident there.
            bool fits = true;
            for (unsigned v = u + 1; v < geom_.levels.size(); ++v) {
                const uint64_t set =
                    (addr / geom_.lineSize) & (geom_.levels[v].numSets
                                               - 1);
                if (load[v][set] + 1 > geom_.levels[v].ways) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                continue;
            for (unsigned v = u + 1; v < geom_.levels.size(); ++v) {
                const uint64_t set =
                    (addr / geom_.lineSize) & (geom_.levels[v].numSets
                                               - 1);
                ++load[v][set];
            }
            pool.lines.push_back(addr);
        }
        pools_[u] = std::move(pool);
    }
}

unsigned
SetProber::ways() const
{
    return geom_.levels[targetLevel_].ways;
}

cache::Addr
SetProber::blockAddr(BlockId block) const
{
    // Blocks are spaced one target set stride apart: same set index
    // at the target level AND at every inner level, distinct target
    // tags.
    return cfg_.baseAddr + geom_.levels[targetLevel_].setStride() * block;
}

bool
SetProber::survives(const std::vector<BlockId>& seq, BlockId probe)
{
    return survivesVote(seq, probe).value();
}

VoteOutcome
SetProber::survivesVote(const std::vector<BlockId>& seq, BlockId probe)
{
    return adaptiveVote(schedule_, [&] {
        run(seq);
        return routedObservedAccess(probe);
    });
}

std::vector<bool>
SetProber::observe(const std::vector<BlockId>& seq)
{
    return observeRobust(seq).hits;
}

SetProber::ObservedSequence
SetProber::observeRobust(const std::vector<BlockId>& seq)
{
    SequenceVote vote(schedule_, seq.size());
    while (!vote.done())
        vote.addReplay(replayObserved(seq));

    ObservedSequence out;
    out.hits.resize(seq.size());
    out.confidence.resize(seq.size());
    out.determined.resize(seq.size());
    const std::vector<VoteOutcome> outcomes = vote.outcomes();
    for (size_t i = 0; i < seq.size(); ++i) {
        out.hits[i] = outcomes[i].value();
        out.confidence[i] = outcomes[i].confidence;
        out.determined[i] = outcomes[i].determined();
    }
    out.replays = vote.replays();
    return out;
}

std::vector<unsigned>
SetProber::observeLevels(const std::vector<BlockId>& seq)
{
    return observeLevelsRobust(seq).levels;
}

SetProber::ObservedLevels
SetProber::observeLevelsRobust(const std::vector<BlockId>& seq)
{
    // One class per level plus memory.
    const unsigned classes = ctx_.depth() + 1;
    SequenceVote vote(schedule_, seq.size(), classes);
    std::vector<unsigned> levels(seq.size());
    std::vector<bool> counted(seq.size());
    while (!vote.done()) {
        beginReplay();
        for (std::size_t i = 0; i < seq.size(); ++i) {
            evictInnerLevels();
            const auto reading = ctx_.timedReading(blockAddr(seq[i]));
            levels[i] = std::min(reading.level, classes - 1);
            counted[i] = !reading.outlier; // fenced readings abstain
        }
        vote.addClassReplay(levels, counted);
    }

    ObservedLevels out;
    out.levels.resize(seq.size());
    out.confidence.resize(seq.size());
    out.determined.resize(seq.size());
    const std::vector<VoteOutcome> outcomes = vote.outcomes();
    for (size_t i = 0; i < seq.size(); ++i) {
        out.levels[i] = outcomes[i].winner;
        out.confidence[i] = outcomes[i].confidence;
        out.determined[i] = outcomes[i].determined();
    }
    out.replays = vote.replays();
    return out;
}

void
SetProber::thrash(unsigned count)
{
    // Ids above 2^40 never collide with experiment block ids.
    const BlockId base = (uint64_t{1} << 40) + thrashEpoch_;
    thrashEpoch_ += count;
    for (unsigned i = 0; i < count; ++i)
        ctx_.access(blockAddr(base + i));
}

void
SetProber::run(const std::vector<BlockId>& seq)
{
    beginReplay();
    for (BlockId b : seq) {
        evictInnerLevels();
        ctx_.access(blockAddr(b));
    }
}

void
SetProber::beginReplay()
{
    checkpoint();
    ctx_.beginExperiment();
    ctx_.flush();
}

std::vector<bool>
SetProber::replayObserved(const std::vector<BlockId>& seq)
{
    beginReplay();
    std::vector<bool> outcome;
    outcome.reserve(seq.size());
    for (BlockId b : seq)
        outcome.push_back(routedObservedAccess(b));
    return outcome;
}

void
SetProber::evictInnerLevels()
{
    // Conflict lines per inner level: this many times its ways.
    constexpr unsigned kEvictorFactor = 2;
    for (unsigned u = 0; u < targetLevel_; ++u) {
        EvictorPool& pool = pools_[u];
        const unsigned needed = kEvictorFactor * geom_.levels[u].ways;
        for (unsigned i = 0; i < needed; ++i) {
            ctx_.access(pool.lines[pool.cursor]);
            pool.cursor = (pool.cursor + 1) % pool.lines.size();
        }
    }
}

bool
SetProber::routedObservedAccess(BlockId block)
{
    evictInnerLevels();
    return ctx_.countedHit(targetLevel_, blockAddr(block));
}

} // namespace recap::infer
