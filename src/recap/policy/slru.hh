/**
 * @file
 * Segmented LRU (SLRU): a protected/probationary two-segment policy,
 * included to broaden the candidate library beyond the families the
 * catalog machines use.
 */

#ifndef RECAP_POLICY_SLRU_HH_
#define RECAP_POLICY_SLRU_HH_

#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * SLRU: ways are split into a probationary and a protected segment,
 * each kept in LRU order.
 *
 *  - Fills insert at the MRU end of the probationary segment.
 *  - A hit on a probationary line promotes it to the MRU end of the
 *    protected segment; if the protected segment is over capacity,
 *    its LRU line is demoted to the probationary MRU position.
 *  - A hit on a protected line moves it to the protected MRU end.
 *  - The victim is the probationary LRU line; if the probationary
 *    segment is empty, the protected LRU line.
 *
 * The segmentation gives scan resistance similar to LIP while
 * preserving LRU ordering among reused lines.
 */
class SlruPolicy final : public ReplacementPolicy
{
  public:
    /**
     * @param ways          Associativity.
     * @param protectedWays Capacity of the protected segment; must
     *                      be in [1, ways-1].
     */
    explicit SlruPolicy(unsigned ways, unsigned protectedWays = 0);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override { return "SLRU"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    unsigned protectedCapacity() const { return protectedWays_; }

    /** Protected segment order (MRU first), for white-box tests. */
    std::vector<Way> protectedSegment() const { return protected_; }

    /** Probationary segment order (MRU first), for tests. */
    std::vector<Way> probationarySegment() const { return probation_; }

  private:
    /** Removes @p way from whichever segment holds it. */
    void remove(Way way);

    /** Inserts at the protected MRU end, demoting on overflow. */
    void promote(Way way);

    unsigned protectedWays_;
    /** Both segments store ways MRU-first. */
    std::vector<Way> protected_;
    std::vector<Way> probation_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_SLRU_HH_
