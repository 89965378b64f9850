/**
 * @file
 * Set-associative single-level cache model, including the set-dueling
 * adaptive mode used by the Ivy-Bridge-style last-level cache.
 */

#ifndef RECAP_CACHE_CACHE_HH_
#define RECAP_CACHE_CACHE_HH_

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "recap/cache/geometry.hh"
#include "recap/policy/policy.hh"

namespace recap::cache
{

/** Counters for one cache level. */
struct LevelStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  ///< misses that displaced a valid line
    uint64_t writes = 0;     ///< accesses that were stores
    uint64_t writebacks = 0; ///< dirty lines displaced or flushed

    /** Lines invalidated to restore inclusion (inclusive mode). */
    uint64_t backInvalidations = 0;

    /** misses / accesses; 0 when no accesses. */
    double missRatio() const
    {
        return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses) : 0.0;
    }

    void reset() { *this = LevelStats{}; }

    bool operator==(const LevelStats&) const = default;
};

/** Set-dueling configuration for adaptive caches (DIP-style). */
struct DuelingConfig
{
    unsigned leaderSetsPerPolicy = 32; ///< leaders dedicated to each
    unsigned pselBits = 10;            ///< saturating-counter width
};

/** Result of one cache access, for callers that need details. */
struct AccessResult
{
    bool hit = false;
    unsigned setIndex = 0;
    policy::Way way = 0;               ///< way hit or filled
    std::optional<Addr> evictedBlock;  ///< base addr of displaced line
    bool writeback = false;            ///< displaced line was dirty
};

/**
 * A single cache level with one replacement-policy automaton per set.
 * Tags and valid/dirty bits live in flat row-major arrays (one row of
 * ways per set), and flush() resets only the sets an access changed
 * since the previous flush.
 *
 * In adaptive mode every set carries *two* policy automatons (both
 * observe every access so their state always reflects the true
 * contents); leader sets always decide victims with their dedicated
 * policy, and follower sets follow the PSEL counter, which is trained
 * by misses in leader sets.
 */
class Cache
{
  public:
    /**
     * Static-policy cache.
     *
     * @param geom       Geometry (validated).
     * @param policySpec Policy spec per policy::makePolicy().
     * @param name       Display name, e.g. "L1".
     * @param seed       Seed for stochastic policies; each set derives
     *                   its own stream from it.
     */
    Cache(const Geometry& geom, const std::string& policySpec,
          std::string name = "cache", uint64_t seed = 1);

    /**
     * Adaptive (set-dueling) cache choosing between two policies.
     *
     * @param specA First constituent policy (PSEL low half).
     * @param specB Second constituent policy (PSEL high half).
     */
    Cache(const Geometry& geom, const std::string& specA,
          const std::string& specB, const DuelingConfig& duel,
          std::string name = "cache", uint64_t seed = 1);

    Cache(Cache&&) noexcept = default;
    Cache& operator=(Cache&&) noexcept = default;

    /**
     * Performs one access; fills on miss. Stores mark the line dirty
     * (write-back, write-allocate). @return true on hit.
     */
    bool access(Addr addr, bool write = false);

    /** Like access(), but reports details. */
    AccessResult accessDetailed(Addr addr, bool write = false);

    /**
     * Like access(), annotated with the program counter of the
     * accessing instruction for PC-indexed predictor policies
     * (SHiP). Policies that ignore metadata behave exactly as under
     * access().
     */
    bool accessWithPc(Addr addr, uint64_t pc, bool write = false);

    /** Like accessWithPc(), but reports details. */
    AccessResult accessDetailedWithPc(Addr addr, uint64_t pc,
                                      bool write = false);

    /**
     * Observing probe for the exclusive-hierarchy walk: counts the
     * access (and hit/miss, PSEL training) like access(), but never
     * fills on a miss. On a hit the policy automatons are touched
     * only when @p touchOnHit is set (the innermost level keeps the
     * line, an outer level is about to surrender it to extract()).
     * @return true on hit.
     */
    bool probeAccess(Addr addr, bool write, bool touchOnHit);

    /** Result of extract(): was the line present, and was it dirty? */
    struct Extracted
    {
        bool present = false;
        bool dirty = false;
    };

    /**
     * Removes the line containing @p addr without statistics, policy
     * input, or a writeback — the dirty bit travels with the block
     * (exclusive-hierarchy promotion). The policy automatons are
     * deliberately not notified: "invalidate" is outside the
     * touch/fill input alphabet, matching invalidate().
     */
    Extracted extract(Addr addr);

    /** A line displaced by insertLine(), to cascade outward. */
    struct Displaced
    {
        Addr addr = 0;  ///< base address of the displaced line
        bool dirty = false;
    };

    /**
     * Installs the line containing @p addr without counting an
     * access (victim-cascade insertion in exclusive hierarchies):
     * fills the lowest invalid way, else evicts the decider's victim
     * (counting the eviction, and a writeback when the victim was
     * dirty). @return the displaced line, if any.
     */
    std::optional<Displaced> insertLine(Addr addr, bool dirty);

    /**
     * invalidate() for inclusion maintenance: additionally counts
     * stats().backInvalidations when a line was actually removed.
     */
    void backInvalidate(Addr addr);

    /** True iff the line containing @p addr is resident and dirty. */
    bool isDirty(Addr addr) const;

    /** True iff the line containing @p addr is resident (no update). */
    bool probe(Addr addr) const;

    /** Invalidates all lines and resets every policy automaton. */
    void flush();

    /** Invalidates the line containing @p addr, if present. */
    void invalidate(Addr addr);

    const Geometry& geometry() const { return geom_; }
    const std::string& name() const { return name_; }
    const LevelStats& stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** True iff this cache was built in set-dueling mode. */
    bool isAdaptive() const { return adaptive_; }

    /** Current PSEL value (adaptive mode only). */
    unsigned psel() const;

    /** PSEL midpoint; PSEL >= midpoint selects policy B. */
    unsigned pselMidpoint() const;

    /** Role of a set in the duel. */
    enum class SetRole { kFollower, kLeaderA, kLeaderB };

    /** Role of set @p set (kFollower for static caches). */
    SetRole setRole(unsigned set) const;

    /** Policy spec(s) this cache was built with. */
    const std::string& policySpec() const { return specA_; }
    const std::string& policySpecB() const { return specB_; }

    /** Debug snapshot of one set, for differential tests. */
    struct SetImage
    {
        std::vector<uint64_t> tags;  ///< zeroed where invalid
        std::vector<bool> valid;
        std::string policyKey;       ///< policy-A stateKey()

        bool operator==(const SetImage&) const = default;
    };

    /** Snapshot of set @p set. */
    SetImage setImage(unsigned set) const;

  private:
    /** Replacement state of one set; its lines live in tags_/lines_. */
    struct Set
    {
        policy::PolicyPtr policyA;
        policy::PolicyPtr policyB; ///< null for static caches
        bool touched = true;       ///< listed in touched_
        /**
         * Set when a free-way scan found no invalid way; whatever
         * invalidates a line clears it. While set, a miss skips the
         * scan.
         */
        bool full = false;
    };

    /** lines_ bits of one way. */
    static constexpr uint8_t kValid = 1;
    static constexpr uint8_t kDirty = 2;

    /** Sets up the slicing shifts and the empty line rows. */
    void initLines();

    /** Lists @p set for the next flush() (it is about to change). */
    [[gnu::always_inline]] void markTouched(unsigned set)
    {
        if (!sets_[set].touched) {
            sets_[set].touched = true;
            touched_.push_back(set);
        }
    }

    unsigned setOf(Addr addr) const
    {
        return static_cast<unsigned>((addr >> offsetBits_) &
                                     (geom_.numSets - 1));
    }

    uint64_t tagOf(Addr addr) const
    {
        return addr >> (offsetBits_ + setBits_);
    }

    /**
     * Way of @p set holding @p tag, or geom_.ways when absent. Every
     * way is compared (a valid tag appears at most once per set), so
     * the loop has no early exit.
     */
    unsigned findWay(unsigned set, uint64_t tag) const
    {
        const std::size_t row = std::size_t{set} * geom_.ways;
        const uint64_t* tags = &tags_[row];
        const uint8_t* lines = &lines_[row];
        unsigned found = geom_.ways;
        for (unsigned w = 0; w < geom_.ways; ++w)
            if ((lines[w] & kValid) && tags[w] == tag)
                found = w;
        return found;
    }

    /** First byte address of the line in (@p set, @p way). */
    Addr lineAddr(unsigned set, unsigned way) const
    {
        const std::size_t i = std::size_t{set} * geom_.ways + way;
        return ((tags_[i] << setBits_) | set) << offsetBits_;
    }

    /** Automaton deciding victims for @p set (adaptive caches). */
    const policy::ReplacementPolicy& decider(unsigned set) const;

    /**
     * The one access path behind access(), accessDetailed() and
     * their WithPc forms: counts the access, touches on a hit, fills
     * on a miss. The plain form (@p kDetailed false) returns the hit
     * bit and builds no AccessResult. @p pc is null when the access
     * carries no program counter.
     */
    template <bool kDetailed>
    std::conditional_t<kDetailed, AccessResult, bool>
    accessCore(Addr addr, bool write, const uint64_t* pc);

    /** Publishes AccessMeta to the automata of @p set that use it. */
    void publishMeta(unsigned set, Addr addr, const uint64_t* pc);

    /**
     * Lists @p set for flush(), publishes the access's AccessMeta and
     * counts the access. @return the way holding @p addr, or
     * geom_.ways on a miss (counted, training PSEL).
     */
    unsigned lookup(unsigned set, Addr addr, bool write,
                    const uint64_t* pc);

    /**
     * Applies a hit on @p way of @p set to every automaton; a store
     * marks the line dirty.
     */
    void touchWay(unsigned set, unsigned way, bool write);

    /** Where fillLine() put a line and what it displaced. */
    struct Fill
    {
        policy::Way way = 0;
        bool evicted = false; ///< a valid line was displaced
        bool dirty = false;   ///< ... and it was dirty
        Addr victim = 0;      ///< its base address, when evicted
    };

    /**
     * Installs @p tag in @p set: the lowest invalid way, else the
     * decider's victim (counting the eviction, and a writeback when
     * the victim was dirty), then fills the automata.
     */
    Fill fillLine(unsigned set, uint64_t tag, bool dirty);

    /**
     * Invalidates the line containing @p addr, if present, without
     * counting anything. @return its kValid | kDirty bits (0 when it
     * was absent).
     */
    uint8_t removeLine(Addr addr);

    /** Nudges PSEL after a miss in a leader set. */
    void trainPsel(SetRole role);

    Geometry geom_;
    std::string name_;
    std::string specA_;
    std::string specB_;
    bool adaptive_ = false;
    bool metaA_ = false; ///< policy A consumes AccessMeta
    bool metaB_ = false; ///< policy B consumes AccessMeta
    DuelingConfig duel_;
    unsigned psel_ = 0;
    unsigned pselMax_ = 0;
    unsigned offsetBits_ = 0; ///< log2(lineSize)
    unsigned setBits_ = 0;    ///< log2(numSets)
    std::vector<Set> sets_;
    std::vector<uint64_t> tags_; ///< numSets x ways, row-major
    std::vector<uint8_t> lines_; ///< kValid | kDirty, same layout
    /**
     * Sets changed since the last flush(), which resets only these:
     * every other set is already in its reset state. All sets start
     * listed, so the first flush resets every set.
     */
    std::vector<unsigned> touched_;
    LevelStats stats_;
};

} // namespace recap::cache

#endif // RECAP_CACHE_CACHE_HH_
