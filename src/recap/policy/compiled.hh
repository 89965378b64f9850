/**
 * @file
 * Compiled replacement-policy automata: dense transition tables for
 * the analyses that walk a policy's states — the sec:: game boards,
 * the predictability sweep's compile-and-wrap and the query oracle's
 * snapshot walk. Simulation runs on the interpreted cache::Cache.
 *
 * Every policy in the catalog is a deterministic finite automaton
 * (that is the paper's whole premise), yet the interpreted
 * ReplacementPolicy interface pays a virtual touch/fill/victim
 * dispatch plus unique_ptr clone churn on every simulated access.
 * compilePolicy() enumerates the reachable control states of a policy
 * breadth-first over ReplacementPolicy::packState() — fixed-width
 * (at most 128-bit) encodings, equal exactly when the stateKeys are —
 * into dense state x input -> state transition tables:
 *
 *     touchNext[state * ways + w]  state after a hit on way w
 *     fillNext [state * ways + w]  state after filling way w
 *     victim   [state]             way the next miss would evict
 *
 * so the hot loop becomes three array lookups, state forking becomes
 * an integer copy, and the query/ batch evaluator can keep per-set
 * state in structure-of-arrays form.
 *
 * The states are numbered by policy::PolicyStates (one scratch
 * policy, no per-edge clone or string). A table keeps each state's
 * 16-byte pack and a clone of the source policy, and builds a
 * stateKey() string only when one is asked for.
 *
 * Policies that cannot pack (the stochastic "random" policy, whose
 * stream position is unbounded; the metadata consumers; any state
 * wider than 128 bits) are refused at once. Policies whose reachable
 * state space exceeds the budget (big way-order policies such as LRU
 * at k = 16) are refused once the enumeration passes it. Either way
 * compilePolicy() returns nullptr and every consumer falls back to
 * the interpreted automaton, with behaviour pinned bit-identical by
 * tests/test_compiled_policy.cc.
 */

#ifndef RECAP_POLICY_COMPILED_HH_
#define RECAP_POLICY_COMPILED_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recap/common/error.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/** Limits on the state enumeration of compilePolicy(). */
struct CompileBudget
{
    /**
     * Abort compilation beyond this many control states. The default
     * admits every catalog policy at k <= 8 except the throttled
     * insertion policies (BIP/BRRIP multiply the base state count by
     * their throttle) and covers PLRU/NRU-style policies up to
     * k = 16; LRU-order policies at k = 16 (16! states) exceed it and
     * fall back to interpretation. The stochastic "random" policy
     * never gets this far: it cannot pack, so no budget compiles it.
     */
    uint64_t maxStates = 1u << 17;

    /**
     * Abort when the three tables plus the 16-byte packs would exceed
     * this size (8k + 18 bytes per state at k ways). The enumeration
     * stops as soon as the states found so far pass it.
     */
    uint64_t maxTableBytes = uint64_t{96} << 20;
};

/**
 * Immutable transition tables of one compiled policy. State 0 is the
 * post-reset state; states are numbered in BFS order (ascending
 * touch-then-fill edge exploration), so compiling the same policy
 * twice yields identical tables.
 */
class CompiledTable
{
  public:
    unsigned ways() const { return ways_; }
    uint32_t numStates() const { return numStates_; }

    /** name() of the policy this table was compiled from. */
    const std::string& policyName() const { return policyName_; }

    uint32_t touchNext(uint32_t state, Way way) const
    {
        return touchNext_[static_cast<std::size_t>(state) * ways_ +
                          way];
    }

    uint32_t fillNext(uint32_t state, Way way) const
    {
        return fillNext_[static_cast<std::size_t>(state) * ways_ +
                         way];
    }

    Way victim(uint32_t state) const { return victim_[state]; }

    /**
     * Interpreted stateKey() of @p state (bit-exact passthrough),
     * built on a fresh clone of the source policy; safe to call from
     * several threads at once.
     */
    std::string stateKey(uint32_t state) const;

    /** Raw table base pointers for the batch evaluator's inner loop. */
    const uint32_t* touchData() const { return touchNext_.data(); }
    const uint32_t* fillData() const { return fillNext_.data(); }
    const uint16_t* victimData() const { return victim_.data(); }

    /**
     * Bytes CompileBudget::maxTableBytes counts for this table: the
     * three tables plus the packs, numStates() * (8 * ways() + 18). A
     * budget admits the table exactly when it admits numStates()
     * states and these bytes.
     */
    uint64_t budgetBytes() const { return budgetBytes_; }

  private:
    friend std::shared_ptr<const CompiledTable>
    compilePolicy(const ReplacementPolicy&, const CompileBudget&);

    unsigned ways_ = 0;
    uint32_t numStates_ = 0;
    uint64_t budgetBytes_ = 0;
    std::string policyName_;
    std::vector<uint32_t> touchNext_;
    std::vector<uint32_t> fillNext_;
    std::vector<uint16_t> victim_;
    std::vector<PackedState> packs_; ///< per state, for stateKey()
    PolicyPtr source_;               ///< cloned and unpacked by stateKey()
};

/** Shared, immutable handle: one table serves any number of sets. */
using CompiledTablePtr = std::shared_ptr<const CompiledTable>;

/**
 * Safe read-only view of a compiled table for analysis consumers
 * (the sec:: searches, future model checkers): a copyable value that
 * keeps the shared table alive and exposes exactly the transition
 * and victim lookups plus the canonical derived states every
 * analysis needs, so consumers neither re-compile nor reach into
 * CompiledTable internals.
 */
class CompiledTableView
{
  public:
    /** @throws UsageError when @p table is null. */
    explicit CompiledTableView(CompiledTablePtr table);

    unsigned ways() const { return table_->ways(); }
    uint32_t numStates() const { return table_->numStates(); }
    const std::string& policyName() const
    {
        return table_->policyName();
    }

    uint32_t touchNext(uint32_t state, Way way) const
    {
        return table_->touchNext(state, way);
    }

    uint32_t fillNext(uint32_t state, Way way) const
    {
        return table_->fillNext(state, way);
    }

    Way victim(uint32_t state) const { return table_->victim(state); }

    /** The post-reset state (always index 0 by construction). */
    uint32_t resetState() const { return 0; }

    /**
     * The canonical full-set state: reset followed by a sequential
     * fill of ways 0..k-1 — the same preparation the predictability
     * metrics and the eviction-game roots use.
     */
    uint32_t filledState() const;

    /**
     * Every state reachable from filledState() under full-set inputs
     * (touch on any way, one filled miss per state), in BFS order —
     * the state universe of a warm set, which the security searches
     * take as the set of possible initial policy configurations.
     */
    std::vector<uint32_t> fullSetReachable() const;

    /** The shared table the view reads from. */
    const CompiledTablePtr& table() const { return table_; }

  private:
    CompiledTablePtr table_;
};

/**
 * Enumerates the reachable control states of @p proto (closed under
 * every touch(w)/fill(w) input, so the table is total even for fill
 * patterns only adaptive caches produce) and builds its transition
 * tables.
 *
 * @return nullptr when the state space exceeds @p budget — the
 *         caller must keep using the interpreted policy.
 */
CompiledTablePtr compilePolicy(const ReplacementPolicy& proto,
                               const CompileBudget& budget = {});

/**
 * Process-wide memoized compilation of factory specs, one entry per
 * (spec, ways): once a table compiles it serves every budget it fits
 * (nullptr for the others, as compilePolicy() would answer), and a
 * refusal records the budget it failed under, so no budget within
 * that one enumerates again. Thread-safe. Only deterministic policies
 * compile, so the factory seed is irrelevant to the result; "random"
 * misses the budget by design.
 */
CompiledTablePtr compiledTableFor(const std::string& spec,
                                  unsigned ways,
                                  const CompileBudget& budget = {});

/**
 * Drop-in ReplacementPolicy running on a compiled table: state is one
 * integer, clone() copies no vectors, name()/stateKey() are bit-exact
 * passthroughs of the source policy, and its packs (the state index)
 * are equal exactly when the source policy's are, so every explorer
 * behaves identically on the compiled form.
 */
class CompiledPolicy : public ReplacementPolicy
{
  public:
    explicit CompiledPolicy(CompiledTablePtr table);

    void reset() override { state_ = 0; }

    void touch(Way way) override
    {
        checkWay(way);
        state_ = table_->touchNext(state_, way);
    }

    Way victim() const override { return table_->victim(state_); }

    void fill(Way way) override
    {
        checkWay(way);
        state_ = table_->fillNext(state_, way);
    }

    std::string name() const override { return table_->policyName(); }

    PolicyPtr clone() const override
    {
        return std::make_unique<CompiledPolicy>(*this);
    }

    std::string stateKey() const override
    {
        return table_->stateKey(state_);
    }

    /** The state index; distinct indices carry distinct keys. */
    bool packState(PackedState& out) const override
    {
        out = PackedState{state_, 0};
        return true;
    }

    void unpackState(const PackedState& in) override
    {
        require(in.lo < table_->numStates() && in.hi == 0,
                "CompiledPolicy: packed state out of range");
        state_ = static_cast<uint32_t>(in.lo);
    }

    /** The shared table this instance runs on. */
    const CompiledTablePtr& table() const { return table_; }

    /** Current control state as a table index. */
    uint32_t stateIndex() const { return state_; }

  private:
    CompiledTablePtr table_;
    uint32_t state_ = 0;
};

/**
 * makePolicy(), upgraded to the compiled form when the spec fits the
 * budget; the interpreted policy otherwise. Either result behaves
 * identically — the upgrade is purely a performance choice.
 */
PolicyPtr makeCompiledOrFallback(const std::string& spec,
                                 unsigned ways, uint64_t seed = 1,
                                 const CompileBudget& budget = {});

} // namespace recap::policy

#endif // RECAP_POLICY_COMPILED_HH_
