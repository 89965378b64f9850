/**
 * @file
 * The state spaces the automaton explorers walk, numbered by one
 * index. Ids are discovery order, so a breadth-first search is a loop
 * over the ids: compilePolicy(), checkEquivalence(), missTurnover(),
 * evictBound() and automatonOfPolicy() all explore this way.
 */

#ifndef RECAP_POLICY_STATE_SPACE_HH_
#define RECAP_POLICY_STATE_SPACE_HH_

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "recap/policy/policy.hh"
#include "recap/policy/set_model.hh"

namespace recap::policy
{

/**
 * Open-addressing index from word records (all @p width words long,
 * or of any length for width 0) to ids; slots hold a hash tag and an
 * id, the records live back to back. A record's home slot is the top
 * bits of its tag.
 */
class StateIndex
{
  public:
    static constexpr uint32_t kFull = UINT32_MAX; ///< no room left

    explicit StateIndex(unsigned width = 0);

    uint32_t size() const { return size_; }

    /**
     * Forgets every record but keeps the slots, so a search that
     * reuses one index pays for the records it interned, not for the
     * largest table an earlier search grew.
     */
    void clear();

    /**
     * The id of @p record and whether it is new; kFull when it is new
     * and size() has reached @p limit.
     */
    std::pair<uint32_t, bool> intern(std::span<const uint32_t> record,
                                     uint64_t limit = UINT64_MAX);

    std::span<const uint32_t> record(uint32_t id) const
    {
        if (width_ != 0)
            return {words_.data() + std::size_t{id} * width_, width_};
        const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
        return {words_.data() + begin, ends_[id] - begin};
    }

  private:
    struct Slot
    {
        uint32_t tag = 0;
        uint32_t idPlusOne = 0; ///< 0 = empty
    };

    void grow();

    /** 1024 slots to start with. */
    static constexpr unsigned kShift = 22;

    unsigned width_;
    uint32_t size_ = 0;
    std::vector<uint32_t> words_;
    std::vector<std::size_t> ends_; ///< width 0: one past each record
    std::vector<Slot> slots_;
    unsigned shift_; ///< the home slot of tag t is t >> shift_
};

/**
 * Ids for one policy's control states: packState() restored by
 * unpackState() into one scratch policy, or, for a policy that cannot
 * pack ("random", SHiP, EAF, DIP at 24 ways), stateKey() restored
 * from a stored clone.
 */
class PolicyStates
{
  public:
    /** policy() starts as a clone of @p proto in its current state. */
    explicit PolicyStates(const ReplacementPolicy& proto);

    bool packs() const { return packs_; }

    ReplacementPolicy& policy() { return *policy_; }

    /**
     * Restores state @p id into policy() and returns it (on the clone
     * path, a new object: earlier references go stale).
     */
    ReplacementPolicy& load(uint32_t id);

    /** The id of policy()'s current state, numbering it when new. */
    uint32_t intern();

    /** The pack of state @p id; requires packs(). */
    PackedState pack(uint32_t id) const;

    uint32_t size() const { return index_.size(); }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Recent
    {
        PackedState pack;
        uint32_t id = kNone;
    };

    PolicyPtr policy_;
    bool packs_ = false;
    StateIndex index_;
    std::vector<PolicyPtr> clones_; ///< clone path: one per id
    /** The last load(): successors are often the state itself. */
    uint32_t loaded_ = kNone;
    PackedState loadedPack_;
    /**
     * Recently interned packs, direct-mapped: repeats among successors
     * (a fill landing where the touch of the same way did) skip the
     * index.
     */
    std::array<Recent, 64> recent_;
};

/**
 * Ids for the joint states of a tuple of cache sets: records of the
 * sets' policy ids, then their contents with the blocks renamed, a
 * byte each. The pinned blocks keep names of their own; the others
 * are named by first occurrence across the sets, so states that
 * differ only in their naming share an id (pinning every block keys
 * the concrete contents). A state keeps the concrete contents it was
 * first reached with and a parent link.
 */
class SetStates
{
  public:
    /**
     * One empty set per prototype, with a clone of it in its current
     * state. The ways plus the pinned blocks number at most 254, and
     * block ids stay below 2^32 - 2.
     */
    explicit SetStates(const std::vector<const ReplacementPolicy*>& protos,
                       const std::vector<BlockId>& pinned = {});

    uint32_t size() const { return index_.size(); }

    /** Empties the working sets and resets their policies. */
    void flush();

    /** Restores state @p id into the working sets. */
    void load(uint32_t id);

    /** SetModel::access() on working set @p set: true on a hit. */
    bool access(unsigned set, BlockId block);

    /** The valid blocks of working set @p set, in way order. */
    std::vector<BlockId> blocks(unsigned set) const;

    /**
     * The id of the working sets' state, numbering it when new, or
     * StateIndex::kFull when that would pass @p limit states. A new
     * state's parent is the last load()ed one (none after flush()),
     * reached by @p via.
     */
    uint32_t intern(BlockId via, uint64_t limit = UINT64_MAX);

    /** The accesses that first reached @p id from a flushed state. */
    std::vector<BlockId> path(uint32_t id) const;

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Parent
    {
        uint32_t id;
        uint32_t via;
    };

    std::vector<PolicyStates> policies_;
    /** Set s holds ways [offset_[s], offset_[s + 1]) of slots_. */
    std::vector<unsigned> offset_;
    /** Working contents per way: 0 = invalid, else block + 1. */
    std::vector<uint32_t> slots_;
    std::vector<BlockId> pinned_;

    StateIndex index_;
    std::vector<uint32_t> concrete_; ///< slots_ of each state
    std::vector<Parent> parents_;
    uint32_t loaded_ = kNone;

    /** Renaming: slot value v is named name_[v] when stamp_[v] == pass_. */
    std::vector<uint8_t> name_;
    std::vector<uint64_t> stamp_;
    uint64_t pass_ = 0;
    std::vector<uint32_t> record_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_STATE_SPACE_HH_
