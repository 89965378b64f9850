/**
 * @file
 * First-in first-out (round-robin) replacement.
 */

#ifndef RECAP_POLICY_FIFO_HH_
#define RECAP_POLICY_FIFO_HH_

#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * FIFO replacement: lines are evicted in insertion order and hits do
 * not refresh a line's position. The state is the insertion queue.
 */
class FifoPolicy final : public ReplacementPolicy
{
  public:
    explicit FifoPolicy(unsigned ways);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override { return "FIFO"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** Current insertion order (index 0 = oldest = next victim). */
    std::vector<Way> insertionOrder() const { return queue_; }

  private:
    /** queue_[0] is the oldest line (next victim). */
    std::vector<Way> queue_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_FIFO_HH_
