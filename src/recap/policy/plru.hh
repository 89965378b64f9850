/**
 * @file
 * Tree-based pseudo-LRU (the policy Abel & Reineke found in the L1
 * and most L2 caches of the Intel machines they examined).
 */

#ifndef RECAP_POLICY_PLRU_HH_
#define RECAP_POLICY_PLRU_HH_

#include <cstdint>
#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * Tree-PLRU for power-of-two associativities.
 *
 * The state is a complete binary tree of ways-1 direction bits stored
 * in heap order (node 0 is the root; children of node n are 2n+1 and
 * 2n+2). Bit value 0 means "the colder half is the left subtree", so
 * victim() follows bits as-is and an access flips the bits on its
 * root-to-leaf path to point away from the accessed way.
 */
class TreePlruPolicy final : public ReplacementPolicy
{
  public:
    /** @param ways Associativity; must be a power of two >= 2. */
    explicit TreePlruPolicy(unsigned ways);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override { return "PLRU"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** Raw tree bits in heap order, for white-box tests. */
    std::vector<bool> treeBits() const
    {
        return {bits_.begin(), bits_.end()};
    }

  private:
    /** Points every node on the path to @p way away from it. */
    void markAccessed(Way way);

    /** bits_[n]: 0 -> colder side is left child, 1 -> right child. */
    std::vector<uint8_t> bits_;
    unsigned levels_;
};

/**
 * Bit-PLRU, also known as the MRU policy: one status bit per way.
 *
 * Accessing a line sets its bit; when the access would make all bits
 * one, every *other* bit is cleared first, so the most recent access
 * is the only marked line. The victim is the lowest-index way with a
 * clear bit.
 */
class BitPlruPolicy final : public ReplacementPolicy
{
  public:
    explicit BitPlruPolicy(unsigned ways);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override { return "BitPLRU"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** Raw MRU bits, for white-box tests. */
    std::vector<bool> mruBits() const
    {
        return {bits_.begin(), bits_.end()};
    }

  private:
    void mark(Way way);

    std::vector<uint8_t> bits_; ///< one 0/1 entry per bit
};

} // namespace recap::policy

#endif // RECAP_POLICY_PLRU_HH_
