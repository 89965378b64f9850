/**
 * @file
 * Multi-level cache hierarchy: an ordered stack of Cache levels plus
 * a memory latency, the structure the simulated machines are made of.
 */

#ifndef RECAP_CACHE_HIERARCHY_HH_
#define RECAP_CACHE_HIERARCHY_HH_

#include <string>
#include <vector>

#include "recap/cache/cache.hh"

namespace recap::cache
{

/** One level of a hierarchy: the cache plus its hit latency. */
struct Level
{
    Cache cache;
    unsigned hitLatency; ///< cycles for a hit in this level
};

/**
 * Cross-level content discipline of a hierarchy.
 *
 * The exact semantics each mode implements (tests/test_hierarchy.cc
 * checks each mode, and tests/test_hierarchy_eval.cc pins the
 * counters of one catalog machine in every mode):
 *
 *  - kNonInclusive ("mostly inclusive", the modelled Intel parts'
 *    behaviour and the historical default): an access walks the
 *    levels from L1 outward until it hits, and every missed level
 *    fills the line independently. Evictions at one level leave the
 *    other levels alone.
 *  - kInclusive: like kNonInclusive, plus back-invalidation — when
 *    level i evicts a victim line, every inner level j < i
 *    invalidates its copy of that line (counted in the inner level's
 *    LevelStats::backInvalidations; a dirty copy counts a writeback),
 *    so outer levels remain a superset of inner ones.
 *  - kExclusive: a line lives in at most one level. The walk probes
 *    levels outward without filling; a hit at an outer level removes
 *    the line there (no policy input — "invalidate" is outside the
 *    touch/fill alphabet) and re-installs it at L1, and the displaced
 *    L1 victim cascades outward level by level (each displacement
 *    fills the next level's lowest invalid way or evicts its
 *    decider's victim). Dirty bits travel with blocks; each dirty
 *    displacement counts a writeback at the displacing level
 *    (modelling its victim-path traffic).
 */
enum class InclusionMode
{
    kNonInclusive,
    kInclusive,
    kExclusive,
};

/** Canonical name: "non-inclusive", "inclusive", "exclusive". */
const char* inclusionModeName(InclusionMode mode);

/**
 * A multi-level, fill-on-miss hierarchy with a selectable inclusion
 * discipline (see InclusionMode; kNonInclusive reproduces the
 * historical behaviour bit for bit).
 */
class Hierarchy
{
  public:
    /**
     * @param memoryLatency Cycles for an access that misses all
     *                      levels.
     * @param mode          Cross-level content discipline. Inclusive
     *                      and exclusive modes require every level to
     *                      share one line size (checked by addLevel).
     */
    explicit Hierarchy(unsigned memoryLatency = 200,
                       InclusionMode mode =
                           InclusionMode::kNonInclusive);

    /** Appends a level (L1 first). */
    void addLevel(Cache cache, unsigned hitLatency);

    /** Number of cache levels. */
    unsigned depth() const { return static_cast<unsigned>(
        levels_.size()); }

    /**
     * Performs one access; stores mark lines dirty at every level
     * they fill (write-back, write-allocate).
     * @return Index of the level that hit, or depth() for memory.
     */
    unsigned access(Addr addr, bool write = false);

    /** Cycles the last access pattern would take for a hit at level
     *  @p level (depth() = memory). */
    unsigned latencyOf(unsigned level) const;

    /** Access + latency in one call. */
    unsigned accessLatency(Addr addr);

    /** Flushes every level (the machine's wbinvd). */
    void flushAll();

    /** Mutable level access for configuration and inspection. */
    Level& level(unsigned idx);
    const Level& level(unsigned idx) const;

    unsigned memoryLatency() const { return memoryLatency_; }

    /** Cross-level content discipline this hierarchy maintains. */
    InclusionMode inclusionMode() const { return mode_; }

    /** Clears the statistics of every level. */
    void resetStats();

  private:
    unsigned accessInclusive(Addr addr, bool write);
    unsigned accessExclusive(Addr addr, bool write);

    std::vector<Level> levels_;
    unsigned memoryLatency_;
    InclusionMode mode_;
};

} // namespace recap::cache

#endif // RECAP_CACHE_HIERARCHY_HH_
