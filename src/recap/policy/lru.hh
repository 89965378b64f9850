/**
 * @file
 * True least-recently-used replacement and its insertion-point
 * variants LIP (LRU-insertion policy) and BIP (bimodal insertion
 * policy), all sharing one recency-stack implementation.
 */

#ifndef RECAP_POLICY_LRU_HH_
#define RECAP_POLICY_LRU_HH_

#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * Shared recency-stack machinery for LRU/LIP/BIP.
 *
 * The state is a total order over ways; position 0 is most recently
 * used and position ways-1 is the eviction candidate.
 */
class RecencyStackPolicy : public ReplacementPolicy
{
  public:
    explicit RecencyStackPolicy(unsigned ways);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    std::string stateKey() const override;

    /** Packs the recency order (LRU, LIP); subclasses append. */
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    /** Exposes the current recency order (index 0 = MRU) for tests. */
    std::vector<Way> recencyOrder() const { return stack_; }

  protected:
    /** Moves @p way to the MRU position. */
    void moveToMru(Way way);

    /** Moves @p way to the LRU position. */
    void moveToLru(Way way);

    /** Position of @p way in the stack (0 = MRU). */
    unsigned positionOf(Way way) const;

    /** Packed width of the order: ceil(log2 ways) bits per position. */
    unsigned orderBits() const;

    void packOrder(BitPacker& out) const;
    void unpackOrder(BitUnpacker& in);

    /** stack_[i] = way at recency position i; 0 = MRU. */
    std::vector<Way> stack_;
};

/** Classic LRU: hits and fills both promote to MRU. */
class LruPolicy final : public RecencyStackPolicy
{
  public:
    explicit LruPolicy(unsigned ways);

    void fill(Way way) override;
    std::string name() const override { return "LRU"; }
    PolicyPtr clone() const override;
};

/**
 * LIP (Qureshi et al.): fills insert at the LRU position, so a line
 * must be reused once before it gains any retention priority. Hits
 * promote to MRU like LRU.
 */
class LipPolicy final : public RecencyStackPolicy
{
  public:
    explicit LipPolicy(unsigned ways);

    void fill(Way way) override;
    std::string name() const override { return "LIP"; }
    PolicyPtr clone() const override;
};

/**
 * BIP: like LIP, but every epsilon-th fill inserts at MRU instead.
 * recap uses a deterministic 1-in-throttle counter rather than a coin
 * flip so that experiments are reproducible.
 */
class BipPolicy final : public RecencyStackPolicy
{
  public:
    /**
     * @param ways     Associativity.
     * @param throttle Every throttle-th fill goes to MRU; must be >= 1.
     *                 throttle == 1 degenerates to LRU insertion.
     */
    explicit BipPolicy(unsigned ways, unsigned throttle = 32);

    void reset() override;
    void fill(Way way) override;
    std::string name() const override { return "BIP"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    unsigned throttle() const { return throttle_; }

  private:
    unsigned throttle_;
    unsigned fillCount_ = 0;
};

} // namespace recap::policy

#endif // RECAP_POLICY_LRU_HH_
