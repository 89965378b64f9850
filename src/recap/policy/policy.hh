/**
 * @file
 * Abstract interface for cache replacement policies.
 *
 * Following Abel & Reineke's modelling, a replacement policy is a
 * deterministic finite automaton attached to one cache set of
 * associativity k. Its inputs are "hit on way w" and "fill way w";
 * its single output is the victim way it would evict next.
 *
 * The interface deliberately separates victim() (a pure query) from
 * fill() (the state update after installing a line) so that callers
 * such as the cache model can fill invalid ways without consulting the
 * victim logic, exactly as hardware does during cold misses.
 */

#ifndef RECAP_POLICY_POLICY_HH_
#define RECAP_POLICY_POLICY_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

/** Index of a way within one cache set. */
using Way = unsigned;

/**
 * Optional side information about the access currently being applied
 * to the automaton.
 *
 * Classic permutation-class policies decide purely on way indices,
 * but modern predictor policies consume more: SHiP needs the program
 * counter of the accessing instruction, EAF needs the identity of the
 * block being installed. Drivers (SetModel, cache::Cache) publish
 * this record via beginAccess() before the touch()/fill() of each
 * access; policies that do not override usesMeta() never see it.
 */
struct AccessMeta
{
    uint64_t block = 0; ///< identifier of the block being accessed
    bool hasBlock = false;
    uint64_t pc = 0;    ///< program counter of the access
    bool hasPc = false;
};

/**
 * Fixed-width encoding of one control state (see
 * ReplacementPolicy::packState()).
 */
using PackedState = Bits128;

/**
 * A replacement policy automaton for a single cache set.
 *
 * Implementations must be deterministic given their constructor
 * arguments (including any RNG seed), must keep victim() free of side
 * effects, and must support cloning so that the inference engine can
 * fork hypothetical futures.
 */
class ReplacementPolicy
{
  public:
    /**
     * @param ways Associativity of the set; must be at least 1.
     *             Subclasses may impose further constraints (e.g.
     *             tree-PLRU requires a power of two).
     */
    explicit ReplacementPolicy(unsigned ways);

    virtual ~ReplacementPolicy() = default;

    ReplacementPolicy(const ReplacementPolicy&) = default;
    ReplacementPolicy& operator=(const ReplacementPolicy&) = default;

    /** Associativity this instance was built for. */
    unsigned ways() const { return ways_; }

    /** Returns to the initial (post-flush) state. */
    virtual void reset() = 0;

    /** Updates state after a hit on @p way. */
    virtual void touch(Way way) = 0;

    /**
     * Returns the way that would be evicted by the next miss.
     * Must not change observable state.
     */
    virtual Way victim() const = 0;

    /** Updates state after installing a new line into @p way. */
    virtual void fill(Way way) = 0;

    /** Canonical human-readable policy name, e.g. "PLRU" or "QLRU". */
    virtual std::string name() const = 0;

    /** Deep copy preserving the current state. */
    virtual std::unique_ptr<ReplacementPolicy> clone() const = 0;

    /**
     * Canonical encoding of the current control state: the key of the
     * explorers' states when the policy cannot pack (see
     * policy/state_space.hh) and of compiled tables' states. Two
     * states with equal keys must behave identically.
     */
    virtual std::string stateKey() const = 0;

    /**
     * Encodes the current control state in at most 128 bits, the
     * clone-free counterpart of stateKey() that compilePolicy()
     * enumerates over. For two instances built with the same
     * arguments, the packs are equal exactly when the stateKey()s
     * are.
     *
     * @return false when this policy cannot pack (the default). The
     *         answer depends only on the constructor arguments, never
     *         on the current state: the stochastic policy ("random",
     *         whose stream position is unbounded), the metadata
     *         consumers, and any instance whose state needs more than
     *         128 bits say no.
     */
    virtual bool packState(PackedState& out) const
    {
        (void)out;
        return false;
    }

    /**
     * Restores a state that packState() produced on an instance
     * built with the same arguments. Only meaningful where
     * packState() succeeds; the default throws UsageError.
     */
    virtual void unpackState(const PackedState& in);

    /**
     * True iff the policy consumes AccessMeta. Meta-consuming
     * automata are excluded from table compilation (their behaviour
     * is not a function of way-index inputs alone) and drivers must
     * call beginAccess() before each access's touch()/fill().
     */
    virtual bool usesMeta() const { return false; }

    /**
     * Publishes side information for the access whose touch()/fill()
     * follows. Only called by drivers when usesMeta() is true; the
     * default implementation ignores it.
     */
    virtual void beginAccess(const AccessMeta& meta) { (void)meta; }

  protected:
    /** Throws UsageError unless 0 <= way < ways(). */
    void checkWay(Way way) const
    {
        require(way < ways_, "ReplacementPolicy: way index out of range");
    }

    unsigned ways_;
};

/** Convenience alias for owning policy handles. */
using PolicyPtr = std::unique_ptr<ReplacementPolicy>;

} // namespace recap::policy

#endif // RECAP_POLICY_POLICY_HH_
