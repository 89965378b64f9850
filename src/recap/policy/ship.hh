/**
 * @file
 * SHiP — signature-based hit prediction (Wu et al., MICRO 2011):
 * SRRIP augmented with a signature history counter table (SHCT)
 * indexed by a hash of the accessing instruction's program counter.
 * Lines whose signature has no history of reuse are inserted distant
 * (immediately evictable); signatures with reuse history insert long.
 *
 * The PC arrives through the AccessMeta side channel (usesMeta()),
 * so SHiP is excluded from table compilation and always runs
 * interpreted. Driven without metadata (e.g. by the learning
 * oracle), every access falls into signature 0 and the policy
 * degenerates to a single-signature adaptive SRRIP — still a
 * well-defined deterministic automaton.
 */

#ifndef RECAP_POLICY_SHIP_HH_
#define RECAP_POLICY_SHIP_HH_

#include <vector>

#include "recap/policy/rrip.hh"

namespace recap::policy
{

class ShipPolicy final : public SrripPolicy
{
  public:
    /**
     * @param ways    Associativity; must be >= 2.
     * @param bits    RRPV width in bits.
     * @param sigBits SHCT index width; the table has 2^sigBits
     *                saturating counters. Must be in [1, 14].
     * @param ctrBits SHCT counter width in bits, in [1, 8].
     */
    explicit ShipPolicy(unsigned ways, unsigned bits = 2,
                        unsigned sigBits = 4, unsigned ctrBits = 2);

    void reset() override;
    void touch(Way way) override;
    void fill(Way way) override;
    std::string name() const override { return "SHiP"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;

    bool usesMeta() const override { return true; }
    void beginAccess(const AccessMeta& meta) override;

    /** Metadata consumers never compile: no packed encoding of the
     *  signature table, and the inherited one would drop it. */
    bool packState(PackedState& out) const override
    {
        return ReplacementPolicy::packState(out);
    }
    void unpackState(const PackedState& in) override
    {
        ReplacementPolicy::unpackState(in);
    }

    /** SHCT counter for @p signature, for white-box tests. */
    unsigned shctAt(unsigned signature) const;

    /** The signature a given PC hashes to. */
    unsigned signatureOf(uint64_t pc) const;

  private:
    unsigned sigBits_;
    unsigned ctrMax_;
    std::vector<unsigned> shct_;     ///< 2^sigBits counters
    std::vector<unsigned> sig_;      ///< per-line signature
    std::vector<bool> outcome_;      ///< line was reused since fill
    std::vector<bool> tracked_;      ///< line was filled with a signature
    uint64_t pendingPc_ = 0;
    bool pendingHasPc_ = false;
};

} // namespace recap::policy

#endif // RECAP_POLICY_SHIP_HH_
