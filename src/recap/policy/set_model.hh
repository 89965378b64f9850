/**
 * @file
 * SetModel: one cache set (tag contents + replacement policy state)
 * as a self-contained automaton over abstract block identifiers.
 *
 * This is the object the paper's formalism reasons about: the
 * permutation deriver, the candidate search and the query oracles
 * interact with caches at this level, independent of addresses,
 * sets, and hierarchies.
 */

#ifndef RECAP_POLICY_SET_MODEL_HH_
#define RECAP_POLICY_SET_MODEL_HH_

#include <cstdint>
#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/** Abstract identifier of a memory block mapping to the set. */
using BlockId = uint64_t;

/**
 * One cache set driven by abstract block accesses.
 *
 * Cold misses fill the lowest-index invalid way (as hardware does);
 * once the set is full, the replacement policy chooses victims.
 */
class SetModel
{
  public:
    /** Takes ownership of @p policy; the model starts empty. */
    explicit SetModel(PolicyPtr policy);

    SetModel(const SetModel& other);
    SetModel& operator=(const SetModel& other);
    SetModel(SetModel&&) noexcept = default;
    SetModel& operator=(SetModel&&) noexcept = default;

    /** Associativity. */
    unsigned ways() const;

    /**
     * Performs one access to @p block.
     * @return true on hit, false on miss.
     */
    bool access(BlockId block);

    /**
     * Performs one access to @p block annotated with the program
     * counter @p pc, for PC-indexed predictor policies (SHiP).
     * @return true on hit, false on miss.
     */
    bool accessWithPc(BlockId block, uint64_t pc);

    /** Empties the set and resets the policy (models a flush). */
    void flush();

    /** True iff @p block currently resides in the set. */
    bool contains(BlockId block) const;

    /** Block in @p way; requires the way to be valid. */
    BlockId blockAt(Way way) const;

    /** True iff @p way holds a valid block. */
    bool isValid(Way way) const;

    /** Number of valid ways. */
    unsigned validCount() const;

    /** The way the next miss would fill. */
    Way nextFillWay() const;

    /**
     * The blocks currently resident, in eviction order: element 0
     * would be evicted by the next miss, element ways()-1 last. The
     * computation forks the state; the model itself is unchanged.
     * Requires a full set.
     */
    std::vector<BlockId> evictionOrder() const;

    /** Read-only access to the underlying policy. */
    const ReplacementPolicy& policy() const { return *policy_; }

  private:
    /** Shared access path; publishes @p meta when the policy asks. */
    bool accessImpl(BlockId block, const AccessMeta& meta);

    PolicyPtr policy_;
    /** blocks_[w] holds the block in way w; valid_[w] gates it. */
    std::vector<BlockId> blocks_;
    std::vector<bool> valid_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_SET_MODEL_HH_
