/**
 * @file
 * SetProber: runs block-access experiments against ONE set of a
 * chosen cache level of the machine under test.
 *
 * The hard part of probing an outer level (the part the paper spends
 * much of its measurement craft on) is that inner levels filter
 * accesses: a load that hits L1 never reaches L2, so the L2
 * replacement state would not advance. SetProber solves this the way
 * the paper's microbenchmarks do — before every probe access it
 * evicts the target line from all inner levels using freshly-tagged
 * conflict lines that
 *   - map to the same inner-level set as the probed blocks (so they
 *     evict the inner copies), but
 *   - never map to the probed set of the target level or of any
 *     intermediate level (so they cannot disturb the state being
 *     reverse-engineered).
 *
 * Such conflict lines exist whenever each outer level has strictly
 * more sets than the next inner one, which holds on all modelled
 * machines; the constructor checks it.
 *
 * The conflict lines are organized as small persistent pools that
 * are cycled rather than freshly tagged: a pool slightly larger than
 * the inner level's associativity keeps missing there (so it keeps
 * evicting), while its lines stay resident in all outer levels after
 * one cold pass — so probing pollutes the outer levels' other sets
 * with (almost) no misses. This matters on set-dueling caches, where
 * stray misses in leader sets would otherwise train the selector as
 * a side effect of the measurement itself.
 */

#ifndef RECAP_INFER_SET_PROBER_HH_
#define RECAP_INFER_SET_PROBER_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/policy/set_model.hh"

namespace recap::infer
{

/** Abstract block identifier within the probed set. */
using BlockId = policy::BlockId;

/** Tuning knobs for SetProber. */
struct SetProberConfig
{
    /** Anchor address; the probed set is this address's set. */
    cache::Addr baseAddr = uint64_t{1} << 32;

    /**
     * Fixed-N majority: each reading votes over voteRepeats replays
     * (0 reads as 1, even counts round up to odd) — the
     * fixedSchedule() of the sequential test.
     */
    unsigned voteRepeats = 1;

    /**
     * The sequential test's own schedule; when enabled it replaces
     * the fixed voteRepeats schedule and observations may abstain
     * (undetermined) instead of guessing.
     */
    AdaptiveVoteConfig vote;
};

/**
 * Experiment runner for one set of one level.
 *
 * Experiments always start from a full flush, replay a block-access
 * sequence routed to the target level, and then observe hit/miss
 * evidence. Because observation is destructive, experiments are
 * replayed from scratch for every measured bit, exactly as on real
 * hardware.
 */
class SetProber
{
  public:
    SetProber(MeasurementContext& ctx, const DiscoveredGeometry& geom,
              unsigned targetLevel, const SetProberConfig& cfg = {});

    /** Associativity of the probed level. */
    unsigned ways() const;

    /** Target level index. */
    unsigned targetLevel() const { return targetLevel_; }

    /** Address of abstract block @p block in the probed set. */
    cache::Addr blockAddr(BlockId block) const;

    /**
     * Replays flush + @p seq, then reports whether @p probe is still
     * resident in the probed set: survivesVote()'s value().
     */
    bool survives(const std::vector<BlockId>& seq, BlockId probe);

    /**
     * Like survives(), but reports the full vote outcome: verdict
     * (which may be kUndetermined under cfg.vote), confidence, and
     * the experiment repetitions consumed. Under the fixed schedule
     * the verdict is always determined.
     */
    VoteOutcome survivesVote(const std::vector<BlockId>& seq,
                             BlockId probe);

    /** Per-position robust observation of a replayed sequence. */
    struct ObservedSequence
    {
        std::vector<bool> hits;         ///< majority reading
        std::vector<double> confidence; ///< majority fraction
        std::vector<bool> determined;   ///< false = contradictory
        unsigned replays = 0;           ///< whole-sequence replays
    };

    /** Per-position robust level observation (timed replays). */
    struct ObservedLevels
    {
        std::vector<unsigned> levels;
        std::vector<double> confidence;
        std::vector<bool> determined;
        unsigned replays = 0;
    };

    /**
     * Replays flush + @p seq and reports the hit/miss outcome of
     * every access: observeRobust()'s hits.
     */
    std::vector<bool> observe(const std::vector<BlockId>& seq);

    /**
     * observe() with per-position confidence: replays the sequence
     * until every position settles under the prober's schedule
     * (escalating on contradiction under cfg.vote). An undetermined
     * position reads as a miss.
     */
    ObservedSequence observeRobust(const std::vector<BlockId>& seq);

    /**
     * Replays flush + @p seq timing every access instead of reading
     * counters, and reports the level each access was served from:
     * observeLevelsRobust()'s levels. An access served at the target
     * level or any inner one is a hit on the probed set; depth()
     * means memory.
     */
    std::vector<unsigned> observeLevels(const std::vector<BlockId>& seq);

    /**
     * observeLevels() with per-position confidence. Each position
     * votes one class per level (ties resolve to the innermost
     * level); readings above the context's calibrated latency fence
     * abstain instead of voting, so TLB/interrupt outliers cannot
     * flip a level verdict.
     */
    ObservedLevels observeLevelsRobust(const std::vector<BlockId>& seq);

    /**
     * Floods the probed set with @p count never-before-seen lines
     * (no observation) — used to train set-dueling counters.
     */
    void thrash(unsigned count);

    /**
     * Replays flush + @p seq routed to the target level without any
     * observation — used to apply training patterns cheaply.
     */
    void run(const std::vector<BlockId>& seq);

    /** Measurement context, for cost accounting. */
    MeasurementContext& context() { return ctx_; }

    /** The prober's configuration (vote mode is read by callers). */
    const SetProberConfig& config() const { return cfg_; }

    /**
     * Installs (or clears, with nullptr) a hook run before every
     * individual experiment replay. Deadline propagation: the query
     * service routes per-request budgets through here so an adaptive
     * vote that keeps escalating on a hostile machine aborts between
     * replays instead of running its full schedule past the deadline.
     * The hook aborts by throwing; the machine is left consistent
     * (the next experiment starts from a flush anyway).
     */
    void setCheckpoint(std::function<void()> hook)
    {
        checkpoint_ = std::move(hook);
    }

  private:
    /** Runs the installed replay checkpoint hook, if any. */
    void checkpoint() const
    {
        if (checkpoint_)
            checkpoint_();
    }

    /** Starts one experiment replay from a flushed machine. */
    void beginReplay();

    /** One un-voted replay of flush + seq with per-access outcomes. */
    std::vector<bool> replayObserved(const std::vector<BlockId>& seq);

    /** Evicts the probed blocks' lines from every inner level. */
    void evictInnerLevels();

    /** Routed, observed access to @p block. */
    bool routedObservedAccess(BlockId block);

    /** Builds the persistent evictor pools (see file comment). */
    void buildEvictorPools();

    MeasurementContext& ctx_;
    DiscoveredGeometry geom_;
    unsigned targetLevel_;
    SetProberConfig cfg_;

    /** cfg_.vote when enabled, else fixedSchedule(cfg_.voteRepeats). */
    AdaptiveVoteConfig schedule_;

    std::function<void()> checkpoint_;

    /** One persistent conflict-line pool per inner level. */
    struct EvictorPool
    {
        std::vector<cache::Addr> lines;
        size_t cursor = 0;
    };
    std::vector<EvictorPool> pools_;

    /** Monotone counter so thrash lines are always fresh. */
    uint64_t thrashEpoch_ = 0;
};

} // namespace recap::infer

#endif // RECAP_INFER_SET_PROBER_HH_
