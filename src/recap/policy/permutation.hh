/**
 * @file
 * Permutation policies: the formal policy class at the heart of Abel
 * & Reineke's inference method.
 *
 * A permutation policy's state is a total order over the resident
 * lines. Positions are indexed by eviction priority: position 0 is
 * the next victim, position k-1 survives longest. A hit on the line
 * at position p rearranges the order by a fixed permutation Pi_p that
 * depends only on p; a miss evicts position 0, conceptually places
 * the incoming line at position 0, and then applies a fixed miss
 * permutation. LRU, FIFO and tree-PLRU are all permutation policies;
 * NRU, QLRU and the RRIP family are not.
 */

#ifndef RECAP_POLICY_PERMUTATION_HH_
#define RECAP_POLICY_PERMUTATION_HH_

#include <optional>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/** Pi[j] = new position of the element that was at position j. */
using Permutation = std::vector<unsigned>;

/** Returns true iff @p pi is a permutation of {0,..,pi.size()-1}. */
bool isPermutation(const Permutation& pi);

/** The identity permutation on k elements. */
Permutation identityPermutation(unsigned k);

/**
 * A replacement policy defined by k hit permutations plus one miss
 * permutation, executable like any other ReplacementPolicy.
 */
class PermutationPolicy final : public ReplacementPolicy
{
  public:
    /**
     * How fills into a way other than the current victim (cold fills
     * into invalid ways, chosen by the cache's priority encoder) are
     * modelled. True misses always evict position 0 and apply the
     * miss permutation.
     */
    enum class FillRule
    {
        /** Treat the filled way as if it sat at position 0. LRU-like
         *  policies whose fill update is position-independent. */
        kInsertAtVictim,
        /** Apply the hit permutation of the way's current position.
         *  Policies whose fill update equals their hit update
         *  (e.g. tree-PLRU). */
        kTouch,
    };

    /**
     * @param ways         Associativity k.
     * @param hitPerms     k permutations; hitPerms[p] is applied on a
     *                     hit at position p.
     * @param missPerm     Permutation applied after a miss inserts
     *                     the new line at position 0.
     * @param displayName  Optional canonical name (e.g. "LRU").
     * @param fillRule     Cold-fill modelling (see FillRule).
     * @param initialOrder Eviction order over ways in the reset
     *                     state (position -> way); empty selects the
     *                     identity. Matters only under
     *                     FillRule::kTouch, where cold-fill updates
     *                     depend on the pre-fill order (tree-PLRU's
     *                     reset order, for instance, is the
     *                     bit-reversal order, not the identity).
     */
    PermutationPolicy(unsigned ways,
                      std::vector<Permutation> hitPerms,
                      Permutation missPerm,
                      std::string displayName = "",
                      FillRule fillRule = FillRule::kInsertAtVictim,
                      std::vector<Way> initialOrder = {});

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    const std::vector<Permutation>& hitPermutations() const
    {
        return hitPerms_;
    }

    const Permutation& missPermutation() const { return missPerm_; }

    FillRule fillRule() const { return fillRule_; }

    /** The reset-state eviction order over ways (position -> way). */
    const std::vector<Way>& initialOrder() const
    {
        return initialOrder_;
    }

    /** Current order: orderAt(pos) = way at eviction position pos. */
    Way orderAt(unsigned pos) const;

    /** True iff both policies have identical permutation vectors. */
    bool sameVectors(const PermutationPolicy& other) const;

    /** Analytic LRU as a permutation policy. */
    static PermutationPolicy lru(unsigned ways);

    /** Analytic FIFO as a permutation policy. */
    static PermutationPolicy fifo(unsigned ways);

    /** Tree-PLRU derived as a permutation policy (power-of-two k). */
    static PermutationPolicy plru(unsigned ways);

    /**
     * Attempts to express @p proto as a permutation policy.
     *
     * Derives candidate permutation vectors from the prototype's
     * behaviour in a canonical state by eviction-order probing, then
     * validates them against the prototype on @p verifyRounds random
     * access sequences (both cold-fill rules are tried). Returns
     * nullopt if the prototype is not a permutation policy, or not
     * derivable by eviction-order probing: probing assumes that k
     * consecutive fresh misses evict the k previously resident
     * blocks, which LRU, FIFO and tree-PLRU satisfy but e.g. LIP
     * (whose misses keep killing the newest insert) does not.
     */
    static std::optional<PermutationPolicy>
    derive(const ReplacementPolicy& proto, unsigned verifyRounds = 64,
           uint64_t seed = 12345);

  private:
    /** Applies @p pi to the current order. */
    void applyPermutation(const Permutation& pi);

    /** Position of @p way in the current order. */
    unsigned positionOf(Way way) const;

    std::vector<Permutation> hitPerms_;
    Permutation missPerm_;
    std::string displayName_;
    FillRule fillRule_;
    std::vector<Way> initialOrder_;
    /** order_[pos] = way at eviction position pos (0 = next victim). */
    std::vector<Way> order_;
    /** Buffer applyPermutation() builds the next order in. */
    std::vector<Way> next_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_PERMUTATION_HH_
