/**
 * @file
 * DIP — dynamic insertion policy (Qureshi et al., ISCA 2007):
 * set dueling between LRU insertion and bimodal (BIP) insertion over
 * one shared recency stack, realised with the temporal-dueling PSEL
 * of duel.hh so the whole mechanism fits in a single per-set
 * automaton.
 */

#ifndef RECAP_POLICY_DIP_HH_
#define RECAP_POLICY_DIP_HH_

#include "recap/policy/duel.hh"
#include "recap/policy/lru.hh"

namespace recap::policy
{

/**
 * DIP over a single recency stack. Hits promote to MRU regardless of
 * the duel; only the insertion point of a fill is contested:
 * constituent A inserts at MRU (LRU policy), constituent B inserts
 * LIP-style at LRU except for every throttle-th fill (BIP).
 *
 * Defaults are sized for tractability of the compiled enumeration at
 * low associativity rather than to the paper's 10-bit PSEL: the
 * automaton's state space is
 * ways! * throttle * 2^pselBits * 4*epochLen.
 *
 * epochLen must stay small relative to the PSEL range: one leader
 * epoch can train PSEL by at most epochLen, and if that exceeds the
 * counter range a single epoch saturates it and the duel degenerates
 * to "whichever leader epoch ran last". With the defaults (epoch 4,
 * 4-bit PSEL) tipping the counter takes several consistent epochs.
 */
class DipPolicy final : public RecencyStackPolicy
{
  public:
    /**
     * @param ways     Associativity; must be >= 2.
     * @param throttle BIP constituent's 1-in-throttle MRU insertion.
     * @param pselBits PSEL width in bits.
     * @param epochLen Inputs per leader epoch (see duel.hh).
     */
    explicit DipPolicy(unsigned ways, unsigned throttle = 16,
                       unsigned pselBits = 4, unsigned epochLen = 4);

    void reset() override;
    void touch(Way way) override;
    void fill(Way way) override;
    std::string name() const override { return "DIP"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** White-box accessors for the convergence property tests. */
    unsigned psel() const { return duel_.psel(); }
    unsigned pselMidpoint() const { return duel_.pselMidpoint(); }
    bool followerPicksBip() const { return duel_.followerPicksB(); }

  private:
    unsigned throttle_;
    unsigned fillCount_ = 0;
    TemporalDuel duel_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_DIP_HH_
