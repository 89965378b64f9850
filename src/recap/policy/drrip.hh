/**
 * @file
 * DRRIP — dynamic re-reference interval prediction (Jaleel et al.,
 * ISCA 2010): set dueling between SRRIP and BRRIP insertion over one
 * shared RRPV vector, using the temporal-dueling PSEL of duel.hh.
 */

#ifndef RECAP_POLICY_DRRIP_HH_
#define RECAP_POLICY_DRRIP_HH_

#include "recap/policy/duel.hh"
#include "recap/policy/rrip.hh"

namespace recap::policy
{

/**
 * DRRIP over a single RRPV vector. Hits and victim selection follow
 * SRRIP-HP unchanged; only the insertion RRPV of a fill is
 * contested: constituent A inserts long (max-1, SRRIP), constituent B
 * inserts distant (max) except for every throttle-th fill (BRRIP).
 *
 * State space: (maxRrpv+1)^ways * throttle * 2^pselBits * 4*epochLen
 * — tractable at 2 ways with default parameters, beyond the default
 * CompileBudget at 4+ ways, where DRRIP exercises the interpreted
 * fallback. epochLen must stay small relative to the PSEL range
 * (see DipPolicy).
 */
class DrripPolicy final : public SrripPolicy
{
  public:
    /**
     * @param ways     Associativity; must be >= 2.
     * @param bits     RRPV width in bits.
     * @param throttle BRRIP constituent's 1-in-throttle long insert.
     * @param pselBits PSEL width in bits.
     * @param epochLen Inputs per leader epoch (see duel.hh).
     */
    explicit DrripPolicy(unsigned ways, unsigned bits = 2,
                         unsigned throttle = 16,
                         unsigned pselBits = 4, unsigned epochLen = 4);

    void reset() override;
    void touch(Way way) override;
    void fill(Way way) override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** White-box accessors for the convergence property tests. */
    unsigned psel() const { return duel_.psel(); }
    unsigned pselMidpoint() const { return duel_.pselMidpoint(); }
    bool followerPicksBrrip() const { return duel_.followerPicksB(); }

  private:
    unsigned throttle_;
    unsigned fillCount_ = 0;
    TemporalDuel duel_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_DRRIP_HH_
