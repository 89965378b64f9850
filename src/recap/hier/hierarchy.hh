/**
 * @file
 * Compiled multi-level hierarchy simulation: the whole-machine fast
 * path of the simulation stack.
 *
 * PR 5's compiled-automata kernel (S10) removed the interpreter from
 * single-level simulation, but every consumer that walks a *machine*
 * — eval::evaluateHierarchy, hw::Machine, the oracle replays behind
 * infer::SetProber — still paid a virtual touch/fill/victim dispatch
 * and a unique_ptr-laden Set object per level per access.
 * hier::Hierarchy is the multi-level counterpart: per level it keeps
 * the true contents in structure-of-arrays form (one flat tag array,
 * one valid bitmask and one dirty bitmask per set) and the
 * replacement state as one integer per set indexing the S10 dense
 * state x input -> (state, victim) tables, so the per-access walk is
 * bitmask scans and table lookups only.
 *
 * The subsystem is *hybrid* per level and per constituent policy:
 * a policy whose reachable state space exceeds the compile budget
 * (LRU at k = 12, NRU at k = 24, the stochastic "random" policy...)
 * falls back to one interpreted automaton per set, with identical
 * seeds, while its sibling levels — and, in an adaptive level, the
 * sibling duel policy — stay compiled. Behaviour is bit-identical to
 * the interpreted cache::Hierarchy either way; tests/test_hier*.cc
 * pin the equivalence per access, per counter, and per tag image.
 *
 * Set-dueling adaptivity is just more integer state: PSEL is one
 * saturating counter per level, set roles are a precomputed byte per
 * set, and both constituent automatons advance on every access (as
 * in cache::Cache, so their state always reflects the true
 * contents), which keeps DIP/DRRIP/TemporalDuel machines on the
 * compiled path end to end.
 *
 * Inclusion semantics follow cache::InclusionMode exactly, including
 * back-invalidation on inclusive victim eviction and the exclusive
 * probe/extract/promote walk.
 */

#ifndef RECAP_HIER_HIERARCHY_HH_
#define RECAP_HIER_HIERARCHY_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "recap/cache/cache.hh"
#include "recap/cache/hierarchy.hh"
#include "recap/hw/spec.hh"
#include "recap/policy/compiled.hh"

namespace recap::hier
{

/** Construction-time knobs for a compiled hierarchy. */
struct Options
{
    /** Cross-level content discipline (see cache::InclusionMode). */
    cache::InclusionMode mode = cache::InclusionMode::kNonInclusive;

    /**
     * Budget handed to compiledTableFor() per constituent policy; a
     * policy over it runs on the interpreted per-set fallback.
     */
    policy::CompileBudget budget;
};

/**
 * A multi-level cache hierarchy in structure-of-arrays form, walking
 * compiled policy tables where they fit the budget and interpreted
 * automatons where they do not.
 *
 * Construction mirrors eval::buildHierarchy()/hw::Machine exactly:
 * level seeds start at @p seed and advance by 0x10001 per level;
 * within a level, set s's first policy is seeded level_seed + s and
 * its duel partner level_seed + numSets + s — so stochastic fallback
 * policies reproduce the interpreted hierarchy bit for bit.
 */
class Hierarchy
{
  public:
    /**
     * @param spec Machine description; validated. Every level must
     *             have at most 32 ways (the bitmask word width).
     * @param seed Seed for stochastic (fallback) policies.
     * @param opts Inclusion mode and compile budget.
     */
    explicit Hierarchy(const hw::MachineSpec& spec, uint64_t seed = 1,
                       const Options& opts = {});

    /** Number of cache levels. */
    unsigned depth() const
    {
        return static_cast<unsigned>(levels_.size());
    }

    /**
     * Performs one access; stores mark lines dirty at every level
     * they fill (write-back, write-allocate).
     * @return Index of the level that hit, or depth() for memory.
     */
    unsigned access(cache::Addr addr, bool write = false);

    /** Cycles for a hit at @p level (depth() = memory). */
    unsigned latencyOf(unsigned level) const;

    /** Access + latency in one call. */
    unsigned accessLatency(cache::Addr addr)
    {
        return latencyOf(access(addr));
    }

    /**
     * Flushes every level (the machine's wbinvd): dirty lines count
     * writebacks, contents and policy states reset, PSEL deliberately
     * survives — exactly like cache::Cache::flush().
     */
    void flushAll();

    /** Clears the statistics of every level. */
    void resetStats();

    unsigned memoryLatency() const { return memoryLatency_; }

    /** Cross-level content discipline this hierarchy maintains. */
    cache::InclusionMode inclusionMode() const { return mode_; }

    /** Display name of level @p level. */
    const std::string& name(unsigned level) const;

    /** Counters of level @p level. */
    const cache::LevelStats& stats(unsigned level) const;

    /** Geometry of level @p level. */
    const cache::Geometry& geometry(unsigned level) const;

    /** True iff level @p level duels two policies. */
    bool isAdaptive(unsigned level) const;

    /** Current PSEL value of an adaptive level. */
    unsigned psel(unsigned level) const;

    /** PSEL midpoint; PSEL >= midpoint selects policy B. */
    unsigned pselMidpoint(unsigned level) const;

    /** Duel role of set @p set at level @p level. */
    cache::Cache::SetRole setRole(unsigned level, unsigned set) const;

    /**
     * Debug snapshot of one set (same encoding as
     * cache::Cache::setImage, policyKey from the first policy), for
     * the differential tests.
     */
    cache::Cache::SetImage setImage(unsigned level,
                                    unsigned set) const;

    /**
     * True iff every constituent policy of level @p level runs on a
     * compiled table (no interpreted fallback).
     */
    bool levelCompiled(unsigned level) const;

    /** True iff every level is fully compiled. */
    bool fullyCompiled() const;

  private:
    /** One level in structure-of-arrays form. */
    struct Level
    {
        cache::Geometry geom;
        std::string name;
        unsigned hitLatency = 1;
        unsigned ways = 0;
        unsigned setShift = 0; ///< log2(lineSize)
        unsigned tagShift = 0; ///< log2(lineSize) + log2(numSets)
        uint32_t setMask = 0;
        uint32_t fullMask = 0; ///< all @ref ways valid bits set

        std::vector<uint64_t> tags; ///< numSets * ways, row-major
        std::vector<uint32_t> valid; ///< per-set way bitmask
        std::vector<uint32_t> dirty; ///< per-set way bitmask

        /**
         * Raw transition-table pointers hoisted out of a
         * CompiledTable once at construction, so the per-access
         * state updates are plain array indexing with no handle
         * dereference. Exactly one width per kind is non-null
         * (narrow when the automaton fits 2^16 states).
         */
        struct TablePtrs
        {
            const uint16_t* touch16 = nullptr;
            const uint32_t* touch32 = nullptr;
            const uint16_t* fill16 = nullptr;
            const uint32_t* fill32 = nullptr;
            const uint16_t* victim = nullptr;
        };

        // Constituent policy A: compiled (tableA + stateA) or
        // interpreted (interpA), never both.
        policy::CompiledTablePtr tableA;
        TablePtrs ptrA;
        std::vector<uint32_t> stateA;
        std::vector<policy::PolicyPtr> interpA;
        bool metaA = false; ///< interpreted A consumes AccessMeta

        bool adaptive = false;
        policy::CompiledTablePtr tableB;
        TablePtrs ptrB;
        std::vector<uint32_t> stateB;
        std::vector<policy::PolicyPtr> interpB;
        bool metaB = false;

        bool anyMeta = false; ///< metaA || metaB, hot-path gate

        cache::DuelingConfig duel;
        unsigned psel = 0;
        unsigned pselMax = 0;
        std::vector<uint8_t> roles; ///< SetRole per set

        cache::LevelStats stats;
    };

    /** Outcome of one in-level access, for the inclusive walk. */
    struct LevelAccess
    {
        bool hit = false;
        bool evicted = false;
        cache::Addr evictedBlock = 0;
    };

    void publishMeta(Level& lvl, unsigned set, cache::Addr addr);
    void touchBoth(Level& lvl, unsigned set, unsigned way);
    void fillBoth(Level& lvl, unsigned set, unsigned way);
    unsigned victimOf(const Level& lvl, unsigned set) const;
    void trainPsel(Level& lvl, uint8_t role);
    cache::Addr blockAddr(const Level& lvl, unsigned set,
                          unsigned way) const;

    /** Fill-on-miss access to one level (shared by both walks). */
    LevelAccess accessLevel(Level& lvl, cache::Addr addr, bool write);

    /** Probe for the exclusive walk: counts but never fills. */
    bool probeLevel(Level& lvl, cache::Addr addr, bool write,
                    bool touchOnHit);

    /** Removes a line, dirty bit travelling with it (no stats). */
    cache::Cache::Extracted extractLevel(Level& lvl,
                                         cache::Addr addr);

    /** Victim-cascade insertion (no access counted). */
    bool insertLevel(Level& lvl, cache::Addr addr, bool dirty,
                     cache::Cache::Displaced* displaced);

    /** Inclusion maintenance: drop a line, count backInvalidations. */
    void backInvalidateLevel(Level& lvl, cache::Addr addr);

    unsigned accessNonInclusive(cache::Addr addr, bool write);
    unsigned accessInclusive(cache::Addr addr, bool write);
    unsigned accessExclusive(cache::Addr addr, bool write);

    const Level& checkedLevel(unsigned level, const char* what) const;

    std::vector<Level> levels_;
    unsigned memoryLatency_;
    cache::InclusionMode mode_;
};

} // namespace recap::hier

#endif // RECAP_HIER_HIERARCHY_HH_
