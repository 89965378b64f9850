/**
 * @file
 * EAF — evicted address filter (Seshadri et al., PACT 2012): a
 * bounded FIFO of recently evicted block addresses steers insertion.
 * A block that was evicted recently and comes back is presumed to
 * have genuine reuse and is inserted at MRU; everything else gets
 * BIP-style bimodal insertion, protecting the working set against
 * streams.
 *
 * Block identities arrive through the AccessMeta side channel
 * (usesMeta()), so EAF never table-compiles. Driven without metadata
 * it degenerates to exactly BIP — the filter never populates.
 */

#ifndef RECAP_POLICY_EAF_HH_
#define RECAP_POLICY_EAF_HH_

#include <deque>
#include <vector>

#include "recap/policy/lru.hh"

namespace recap::policy
{

class EafPolicy final : public RecencyStackPolicy
{
  public:
    /**
     * @param ways      Associativity; must be >= 2.
     * @param filterCap Max evicted addresses remembered; 0 sizes the
     *                  filter to the associativity.
     * @param throttle  BIP 1-in-throttle MRU insertion for blocks
     *                  missing from the filter.
     */
    explicit EafPolicy(unsigned ways, unsigned filterCap = 0,
                       unsigned throttle = 16);

    void reset() override;
    void touch(Way way) override;
    void fill(Way way) override;
    std::string name() const override { return "EAF"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;

    bool usesMeta() const override { return true; }
    void beginAccess(const AccessMeta& meta) override;

    /** Metadata consumers never compile: no packed encoding of the
     *  filter and block map, and the inherited one would drop it. */
    bool packState(PackedState& out) const override
    {
        return ReplacementPolicy::packState(out);
    }
    void unpackState(const PackedState& in) override
    {
        ReplacementPolicy::unpackState(in);
    }

    /** True iff @p block is currently in the filter (for tests). */
    bool filterContains(uint64_t block) const;

    /** Current filter occupancy (for tests). */
    size_t filterSize() const { return filter_.size(); }

  private:
    unsigned filterCap_;
    unsigned throttle_;
    unsigned fillCount_ = 0;
    std::deque<uint64_t> filter_;    ///< front = oldest eviction
    std::vector<uint64_t> blockOf_;  ///< block resident in each way
    std::vector<bool> haveBlock_;    ///< blockOf_ entry is meaningful
    uint64_t pendingBlock_ = 0;
    bool pendingHasBlock_ = false;
};

} // namespace recap::policy

#endif // RECAP_POLICY_EAF_HH_
