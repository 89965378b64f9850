/**
 * @file
 * Eviction-set discovery without geometry knowledge.
 *
 * The geometry probe (geometry_probe.hh) assumes it may choose
 * addresses freely at power-of-two strides. On real hardware that is
 * not always possible (physical indexing behind virtual memory,
 * hashed set functions), and the practical fallback — also the
 * foundation of the follow-on work around this paper — is
 * conflict-based eviction-set discovery: given a target address and
 * a pool of random candidate lines, find a minimal subset that maps
 * to the target's set, using only hit/miss observations.
 *
 * The reduction is classic group testing: while the set is larger
 * than the associativity, split it into groups and drop any group
 * whose removal keeps the remainder evicting. Each round removes at
 * least a (1/(k+1)) fraction, giving O(k^2 log n) accesses overall.
 */

#ifndef RECAP_INFER_EVICTION_SETS_HH_
#define RECAP_INFER_EVICTION_SETS_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "recap/infer/measurement.hh"

namespace recap::infer
{

/** Tuning knobs for eviction-set discovery. */
struct EvictionSetConfig
{
    /** Cache level the sets are built for (0 = L1). */
    unsigned level = 0;

    /**
     * Associativity of that level (from the geometry probe or a
     * datasheet); the reduction stops at this size.
     */
    unsigned ways = 8;

    /** Majority-vote repeats per eviction test. */
    unsigned voteRepeats = 1;
};

/** Result of one discovery run. */
struct EvictionSetResult
{
    /** A minimal (size == ways) eviction set, when found. */
    std::optional<std::vector<cache::Addr>> evictionSet;

    /** Eviction tests performed. */
    uint64_t tests = 0;

    /** Loads issued. */
    uint64_t loadsUsed = 0;
};

/**
 * Conflict-based eviction-set discovery.
 */
class EvictionSetFinder
{
  public:
    EvictionSetFinder(MeasurementContext& ctx,
                      const EvictionSetConfig& cfg);

    /**
     * Tests whether accessing @p lines (in order, hammered) evicts
     * @p target from the configured level, starting from a flush and
     * a target load.
     */
    bool evicts(cache::Addr target,
                const std::vector<cache::Addr>& lines);

    /**
     * Reduces @p pool to a minimal eviction set for @p target.
     * Returns nullopt if the pool does not evict the target at all
     * (not enough same-set candidates) or the reduction gets stuck
     * (non-LRU pathologies beyond the safety margin).
     */
    EvictionSetResult reduce(cache::Addr target,
                             std::vector<cache::Addr> pool);

    /**
     * Convenience: builds a pool of @p poolSize lines spread at
     * line-size granularity over @p spanBytes above @p base, then
     * reduces it. With a uniform mapping, a pool covering
     * ways * numSets lines in expectation suffices.
     */
    EvictionSetResult findFromRegion(cache::Addr target,
                                     cache::Addr base,
                                     uint64_t spanBytes,
                                     size_t poolSize, uint64_t seed);

  private:
    MeasurementContext& ctx_;
    EvictionSetConfig cfg_;
    uint64_t tests_ = 0;
};

} // namespace recap::infer

#endif // RECAP_INFER_EVICTION_SETS_HH_
