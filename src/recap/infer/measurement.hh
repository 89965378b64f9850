/**
 * @file
 * The measurement interface the reverse-engineering engine is written
 * against.
 *
 * Everything in recap::infer observes the machine under test only
 * through this context: issue loads, flush, and read hit/miss
 * evidence either from load latencies or from performance-counter
 * deltas — the same two observables the paper's microbenchmarks use.
 */

#ifndef RECAP_INFER_MEASUREMENT_HH_
#define RECAP_INFER_MEASUREMENT_HH_

#include <functional>

#include "recap/cache/geometry.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/robust.hh"

namespace recap::infer
{

/**
 * Thin measurement layer over a Machine.
 *
 * Also keeps an experiment counter so benches can report the
 * measurement cost of each inference technique.
 */
class MeasurementContext
{
  public:
    explicit MeasurementContext(hw::Machine& machine);

    /** Number of cache levels on the machine. */
    unsigned depth() const { return machine_.depth(); }

    /** wbinvd. */
    void flush();

    /** Untimed load. */
    void access(cache::Addr addr);

    /**
     * Counter-mode observation: issues one load and reports whether
     * level @p level served it as a hit, judged from the hit-counter
     * delta around the load. Mirrors sampling MEM_LOAD_RETIRED-style
     * events around a probe access.
     */
    bool countedHit(unsigned level, cache::Addr addr);

    /**
     * Like countedHit(), but additionally reports whether the load
     * reached the level at all (i.e. missed every inner level).
     */
    struct LevelObservation
    {
        bool reached = false; ///< missed all inner levels
        bool hit = false;     ///< level's hit counter advanced
    };

    LevelObservation observeAtLevel(unsigned level, cache::Addr addr);

    /** One timed load with outlier flagging. */
    struct TimedReading
    {
        unsigned level = 0;   ///< classified serving level
        uint64_t cycles = 0;  ///< raw reading
        bool outlier = false; ///< above the calibrated fence
    };

    /**
     * Timed load classified into a level, with the reading flagged
     * as an interference outlier (TLB walk, interrupt stall) when it
     * exceeds the calibrated fence. Without calibration no reading
     * is ever flagged.
     */
    TimedReading timedReading(cache::Addr addr);

    /**
     * Calibrates the latency outlier fence the way a real
     * experimenter does: samples cold (memory-served) loads, takes
     * robust statistics (median + MAD, so TLB/interrupt outliers in
     * the calibration run itself are rejected), and fences readings
     * that no genuine memory access could produce. Costs @p samples
     * loads, accounted as one experiment.
     */
    void calibrateLatencyFence(unsigned samples = 33);

    /** The calibrated fence; 0 = uncalibrated (gate disabled). */
    uint64_t latencyOutlierFence() const { return outlierFence_; }

    /** Loads issued on the machine so far. */
    uint64_t loadsIssued() const { return machine_.loadsIssued(); }

    /** Experiments started so far (see beginExperiment()). */
    uint64_t experimentsRun() const { return experiments_; }

    /** Marks the start of one experiment (for cost accounting). */
    void beginExperiment() { ++experiments_; }

  private:
    hw::Machine& machine_;
    uint64_t experiments_ = 0;
    uint64_t outlierFence_ = 0;
};

/**
 * Runs @p experiment an odd number of times and returns the majority
 * boolean outcome — the standard defence against measurement noise;
 * the sequential test under fixedSchedule(@p repeats).
 *
 * @param repeats Number of repetitions; forced up to the next odd
 *                value; 1 means "trust a single run".
 */
bool majorityVote(unsigned repeats,
                  const std::function<bool()>& experiment);

} // namespace recap::infer

#endif // RECAP_INFER_MEASUREMENT_HH_
