/**
 * @file
 * LearnedPolicy: a learned Mealy machine wrapped as a first-class
 * policy::ReplacementPolicy, so automata recovered by the active
 * learner plug into everything the rest of recap does with policies —
 * SetModel, cache::Cache, eval::simulate/sweep, the predictability
 * analysis, and the pipeline's agreement measurement.
 *
 * The adapter inverts the learner's abstraction: the machine speaks
 * "block accesses cause hit/miss", the policy interface speaks
 * "touch way / fill way / name a victim". It bridges the two by
 * maintaining the correspondence between ways and machine symbols
 * (a block-assignment map under concrete semantics, an access-recency
 * list under recency-role semantics) and by answering victim() with
 * fork-and-probe simulation: clone the machine state, feed one fresh
 * block, and probe which resident's next access turned into a miss —
 * that resident's way is the victim.
 *
 * victim() degrades gracefully (deepest/last candidate) when the
 * machine is not a perfect policy image; downstream agreement gates
 * catch such models instead of the adapter throwing mid-simulation.
 */

#ifndef RECAP_LEARN_LEARNED_POLICY_HH_
#define RECAP_LEARN_LEARNED_POLICY_HH_

#include <string>
#include <vector>

#include "recap/learn/lstar.hh"
#include "recap/learn/mealy.hh"
#include "recap/policy/policy.hh"

namespace recap::learn
{

/** A learned automaton acting as a replacement policy. */
class LearnedPolicy final : public policy::ReplacementPolicy
{
  public:
    /**
     * @param ways      Associativity the machine was learned at.
     * @param machine   Learned machine; alphabet must be >= ways + 1
     *                  (ways resident symbols plus one fresh block).
     * @param semantics Symbol semantics the machine was learned
     *                  under; the adapter tracks ways accordingly.
     * @param name      Reported policy name.
     */
    LearnedPolicy(unsigned ways, MealyMachine machine,
                  SymbolSemantics semantics,
                  std::string name = "Learned");

    void reset() override;
    void touch(policy::Way way) override;
    policy::Way victim() const override;
    void fill(policy::Way way) override;
    std::string name() const override;
    policy::PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(policy::PackedState& out) const override;
    void unpackState(const policy::PackedState& in) override;

    /** The wrapped machine. */
    const MealyMachine& machine() const { return machine_; }

    /** The symbol semantics the adapter is tracking. */
    SymbolSemantics semantics() const { return semantics_; }

  private:
    /** Machine symbol currently standing for @p way's block. */
    Symbol symbolOf(policy::Way way) const;

    /** Packed field widths: machine state, then the way tracking. */
    unsigned stateBits() const;
    unsigned entryBits() const;
    unsigned lengthBits() const;

    MealyMachine machine_;
    SymbolSemantics semantics_;
    std::string name_;

    /** Current machine state. */
    unsigned state_ = 0;

    /**
     * Concrete semantics: assignment_[w] = machine symbol of the
     * block in way w (kNone = invalid way).
     * Role semantics: recency_ lists ways by access recency, most
     * recent first, capped at alphabet-1 entries; kEvicted entries
     * are stale blocks that were evicted but still occupy a recency
     * rank (role ranks count accesses, not residency).
     */
    std::vector<int> assignment_;
    std::vector<int> recency_;

    static constexpr int kNone = -1;
    static constexpr int kEvicted = -2;
};

} // namespace recap::learn

#endif // RECAP_LEARN_LEARNED_POLICY_HH_
