/**
 * @file
 * Temporal set dueling: the PSEL machinery of DIP/DRRIP recast as
 * per-automaton state.
 *
 * Hardware DIP dedicates a few *leader sets* to each constituent
 * policy and trains one global PSEL counter from their misses. A
 * ReplacementPolicy automaton, however, is scoped to a single set and
 * must stay a self-contained deterministic machine, so recap duels in
 * *time* instead of space: the input stream is divided into fixed
 * epochs, a fraction of which are dedicated to each constituent
 * policy (the automaton then inserts with that policy regardless of
 * PSEL), and the rest follow PSEL's verdict. Misses during a leader
 * epoch train PSEL exactly as leader-set misses do in hardware, and
 * epoch position advances on every input (hit or fill) so that a
 * policy that misses more often trains PSEL faster — the same
 * miss-rate feedback signal, folded into finite automaton state.
 *
 * The epoch cycle has length 4*epochLen:
 *   [0, W)    leader epoch for constituent A
 *   [W, 2W)   leader epoch for constituent B
 *   [2W, 4W)  follower epochs (PSEL decides)
 * with W = epochLen. Followers get half the cycle, mirroring the
 * follower-set majority of the spatial scheme.
 */

#ifndef RECAP_POLICY_DUEL_HH_
#define RECAP_POLICY_DUEL_HH_

#include <cstdint>
#include <limits>
#include <string>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

/** Which constituent governs the current input's insertion. */
enum class DuelMode { kLeaderA, kLeaderB, kFollower };

/**
 * The PSEL counter plus epoch clock shared by the temporal-dueling
 * policies. Plain value type: policies embed it and clone it by copy.
 */
class TemporalDuel
{
  public:
    /**
     * @param pselBits Saturating-counter width in bits, in [1, 16].
     * @param epochLen Inputs per leader epoch; must be >= 1, and
     *                 the 4*epochLen cycle must fit in unsigned.
     */
    TemporalDuel(unsigned pselBits, unsigned epochLen)
        : pselMax_(static_cast<unsigned>(lowMask(pselBits))),
          epochLen_(epochLen)
    {
        require(pselBits >= 1 && pselBits <= 16,
                "TemporalDuel: pselBits must be in [1,16]");
        require(epochLen >= 1,
                "TemporalDuel: epochLen must be >= 1");
        require(epochLen <= std::numeric_limits<unsigned>::max() / 4,
                "TemporalDuel: epochLen must be < 2^30 (the epoch "
                "cycle is 4*epochLen inputs)");
        reset();
    }

    void reset()
    {
        psel_ = pselMidpoint();
        pos_ = 0;
    }

    /** Constituent governing the current input. */
    DuelMode mode() const
    {
        if (pos_ < epochLen_)
            return DuelMode::kLeaderA;
        if (pos_ < 2 * epochLen_)
            return DuelMode::kLeaderB;
        return DuelMode::kFollower;
    }

    /** True iff a follower input should use constituent B. */
    bool followerPicksB() const { return psel_ >= pselMidpoint(); }

    /**
     * Trains PSEL for a miss observed under @p mode: a miss in an
     * A-leader epoch is evidence for B (PSEL saturates up), and vice
     * versa. Follower misses train nothing, as in hardware.
     */
    void onMiss(DuelMode mode)
    {
        if (mode == DuelMode::kLeaderA && psel_ < pselMax_)
            ++psel_;
        else if (mode == DuelMode::kLeaderB && psel_ > 0)
            --psel_;
    }

    /** Advances the epoch clock by one input (hit or fill). */
    void advance() { pos_ = (pos_ + 1) % (4 * epochLen_); }

    /** PSEL value, for white-box convergence tests. */
    unsigned psel() const { return psel_; }

    /** Smallest PSEL value that selects constituent B. */
    unsigned pselMidpoint() const { return (pselMax_ + 1) / 2; }

    /** Canonical fragment for the owning policy's stateKey(). */
    std::string key() const
    {
        return std::to_string(psel_) + "@" + std::to_string(pos_);
    }

    /** Width of the pack() fragment: PSEL bits plus epoch-clock bits. */
    unsigned packBits() const { return pselWidth() + posWidth(); }

    /** Packed counterpart of key(), for the owning policy's packState(). */
    void pack(BitPacker& out) const
    {
        out.put(psel_, pselWidth());
        out.put(pos_, posWidth());
    }

    void unpack(BitUnpacker& in)
    {
        psel_ = static_cast<unsigned>(in.get(pselWidth()));
        pos_ = static_cast<unsigned>(in.get(posWidth()));
    }

  private:
    unsigned pselWidth() const { return log2Ceil(uint64_t{pselMax_} + 1); }
    unsigned posWidth() const { return log2Ceil(uint64_t{4} * epochLen_); }

    unsigned pselMax_;
    unsigned epochLen_;
    unsigned psel_ = 0;
    unsigned pos_ = 0;
};

} // namespace recap::policy

#endif // RECAP_POLICY_DUEL_HH_
