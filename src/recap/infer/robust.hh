/**
 * @file
 * Robust measurement primitives: the confidence-driven sequential
 * vote (with fixed-N majority voting as one of its schedules), and
 * robust statistics for latency-threshold calibration with outlier
 * rejection.
 *
 * The sequential test follows the noise-hardening discipline of real
 * reverse-engineering rigs (nanoBench, CacheQuery): repeat an
 * experiment only until its outcome is statistically settled, retry
 * with escalation when readings contradict each other, and — instead
 * of guessing — report an explicit undetermined verdict with a
 * confidence score when the budget runs out before a quorum forms.
 *
 * Everything here is deterministic: the sample count and verdict are
 * a pure function of the (deterministic) experiment outcome stream.
 */

#ifndef RECAP_INFER_ROBUST_HH_
#define RECAP_INFER_ROBUST_HH_

#include <cstdint>
#include <functional>
#include <vector>

namespace recap::infer
{

/** Three-valued outcome of a robust boolean measurement. */
enum class Verdict : uint8_t
{
    kNo = 0,
    kYes = 1,
    kUndetermined = 2,
};

/** Result of one sequential vote. */
struct VoteOutcome
{
    Verdict verdict = Verdict::kUndetermined;

    /** Majority fraction in [0.5, 1]; 1.0 = unanimous. */
    double confidence = 0.0;

    /** Experiment repetitions actually consumed. */
    unsigned samples = 0;

    /** Top class (ties to the lower), even when undetermined; 1 = yes. */
    unsigned winner = 0;

    /** True iff the vote settled on yes (false when undetermined). */
    bool value() const { return verdict == Verdict::kYes; }

    bool determined() const
    {
        return verdict != Verdict::kUndetermined;
    }
};

/**
 * Schedule of the confidence-driven sequential test, the one vote
 * every measurement in recap::infer casts. Semantics: run
 * initialRepeats experiments; once the margin between the top class
 * and the runner-up reaches settleMargin the vote settles early with
 * the majority verdict. While unsettled, escalate in
 * escalationStep-sized batches up to maxRepeats. A vote that exhausts
 * the budget settles only if the majority fraction reaches
 * minConfidence; otherwise it is kUndetermined (the readings were
 * contradictory).
 *
 * Fixed-N majority voting is the degenerate schedule
 * fixedSchedule(N): exactly N repetitions, no early settling, and
 * every vote with a strict majority settles. In the zero-noise limit
 * every reading agrees, so the test settles after initialRepeats
 * (or settleMargin, whichever is smaller) with the same verdict a
 * fixed-N majority returns — the property the tests pin.
 */
struct AdaptiveVoteConfig
{
    /** Probers vote with this schedule, else fixedSchedule(voteRepeats). */
    bool enabled = false;

    unsigned initialRepeats = 3;
    unsigned escalationStep = 4;
    unsigned maxRepeats = 31;

    /** Top-minus-runner-up margin that settles the vote early. */
    unsigned settleMargin = 3;

    /** Majority fraction below which an exhausted vote abstains. */
    double minConfidence = 0.65;
};

/**
 * Fixed-N majority as a schedule of the sequential test: max(1,
 * @p repeats) rounded up to odd repetitions, never settling early,
 * and always determined (an odd count cannot tie two classes).
 */
AdaptiveVoteConfig fixedSchedule(unsigned repeats);

/**
 * Runs @p experiment under the sequential test of @p cfg.
 * cfg.enabled is ignored here — the caller chose the schedule.
 */
VoteOutcome adaptiveVote(const AdaptiveVoteConfig& cfg,
                         const std::function<bool()>& experiment);

/**
 * Incremental per-position sequential vote over whole-sequence
 * replays: feed one replay's readings at a time; done() reports when
 * every position is settled (or the budget is spent). Each reading
 * is one of @p classes classes: hit/miss is the two-class case (1 =
 * yes), the serving level of a timed load one class per level.
 *
 * Used by SetProber to vote an observed sequence position-by-position
 * while still paying for whole replays only.
 */
class SequenceVote
{
  public:
    SequenceVote(const AdaptiveVoteConfig& cfg, std::size_t positions,
                 unsigned classes = 2);

    /**
     * Accumulates one boolean replay of size positions. Positions
     * false in a non-empty @p counted abstain (outlier readings
     * rejected by calibration).
     */
    void addReplay(const std::vector<bool>& outcome,
                   const std::vector<bool>& counted = {});

    /** addReplay() over class readings, each below classes. */
    void addClassReplay(const std::vector<unsigned>& readings,
                        const std::vector<bool>& counted);

    /** True once every position is settled or the budget is spent. */
    bool done() const;

    /** Replays consumed so far. */
    unsigned replays() const { return replays_; }

    /** Final (or current) per-position outcomes. */
    std::vector<VoteOutcome> outcomes() const;

  private:
    /** Votes per class of position @p i. */
    const unsigned* votesAt(std::size_t i) const
    {
        return votes_.data() + i * classes_;
    }

    AdaptiveVoteConfig cfg_;
    unsigned classes_;
    std::vector<unsigned> votes_; ///< positions x classes
    std::vector<unsigned> counted_;
    unsigned replays_ = 0;
};

/**
 * Robust location/scale estimates for latency calibration.
 * Median and MAD (median absolute deviation) of @p samples; the
 * input is copied and sorted internally.
 */
struct RobustStats
{
    uint64_t median = 0;
    uint64_t mad = 0; ///< raw MAD (unscaled)
};

RobustStats robustStats(std::vector<uint64_t> samples);

/**
 * Outlier fence for latency readings: median + max(floor,
 * madMultiplier * mad). Readings above the fence are rejected as
 * interference (TLB walks, interrupt stalls) rather than classified.
 */
uint64_t outlierFence(const RobustStats& stats,
                      double madMultiplier = 6.0,
                      uint64_t floor = 24);

} // namespace recap::infer

#endif // RECAP_INFER_ROBUST_HH_
