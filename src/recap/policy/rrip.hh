/**
 * @file
 * Re-reference interval prediction policies: SRRIP and BRRIP
 * (Jaleel et al.), included both as evaluation baselines and as
 * candidate shapes for the age-based L3 policies of the Sandy
 * Bridge / Ivy Bridge generation.
 */

#ifndef RECAP_POLICY_RRIP_HH_
#define RECAP_POLICY_RRIP_HH_

#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * SRRIP-HP: each line carries an M-bit re-reference prediction value
 * (RRPV). Hits set RRPV to 0; fills insert with RRPV = max-1
 * ("long"); the victim is the lowest-index way with RRPV == max,
 * aging every line upward until one exists.
 *
 * victim() is pure: the aging needed to expose a victim is computed
 * functionally and committed by fill().
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param ways Associativity.
     * @param bits RRPV width in bits; must be in [1, 8].
     */
    explicit SrripPolicy(unsigned ways, unsigned bits = 2);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;

    /** Packs the RRPVs (SRRIP); subclasses append. */
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    unsigned maxRrpv() const { return maxRrpv_; }

    /** Raw RRPVs, for white-box tests. */
    std::vector<unsigned> rrpvs() const { return rrpv_; }

  protected:
    /** RRPV a fill assigns to the incoming line. */
    virtual unsigned insertionRrpv();

    /** Ages all lines so at least one reaches maxRrpv_. */
    void ageUntilVictimExists();

    /** Packed width of the RRPVs: bits_ per line. */
    unsigned rrpvBits() const { return ways_ * bits_; }

    void packRrpvs(BitPacker& out) const { out.putAll(rrpv_, bits_); }
    void unpackRrpvs(BitUnpacker& in) { in.getAll(rrpv_, bits_); }

    unsigned bits_;
    unsigned maxRrpv_;
    std::vector<unsigned> rrpv_;
};

/**
 * BRRIP: like SRRIP but inserts with distant RRPV (max) most of the
 * time and long RRPV (max-1) only every throttle-th fill, making it
 * thrash-resistant. Deterministic counter, as with BipPolicy.
 */
class BrripPolicy final : public SrripPolicy
{
  public:
    explicit BrripPolicy(unsigned ways, unsigned bits = 2,
                         unsigned throttle = 32);

    void reset() override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

  protected:
    unsigned insertionRrpv() override;

  private:
    unsigned throttle_;
    unsigned fillCount_ = 0;
};

} // namespace recap::policy

#endif // RECAP_POLICY_RRIP_HH_
