/**
 * @file
 * Not-recently-used replacement (one reference bit per line, cleared
 * lazily at victim-selection time), the style of policy reported for
 * the L3 caches of the Nehalem/Westmere generation.
 */

#ifndef RECAP_POLICY_NRU_HH_
#define RECAP_POLICY_NRU_HH_

#include <cstdint>
#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * NRU: every access sets the line's reference bit. The victim is the
 * lowest-index way whose bit is clear; if all bits are set when a
 * victim is needed, all bits are (conceptually) cleared first.
 *
 * Unlike BitPLRU, saturation is resolved at victim-selection time,
 * not at access time, which yields a different automaton: after
 * saturation NRU forgets *all* recency information, including the
 * most recent access.
 *
 * victim() must be side-effect free, so the lazy clear is modelled
 * functionally there and committed in fill().
 */
class NruPolicy final : public ReplacementPolicy
{
  public:
    explicit NruPolicy(unsigned ways);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override { return "NRU"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** Raw reference bits, for white-box tests. */
    std::vector<bool> referenceBits() const
    {
        return {bits_.begin(), bits_.end()};
    }

  private:
    bool allSet() const;

    std::vector<uint8_t> bits_; ///< one 0/1 entry per bit
};

} // namespace recap::policy

#endif // RECAP_POLICY_NRU_HH_
