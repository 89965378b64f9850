/**
 * @file
 * The QLRU ("quad-age LRU") policy family.
 *
 * Modern Intel last-level caches implement 2-bit age-based policies
 * that come in many closely related variants; Abel & Reineke's work
 * distinguishes them by four orthogonal parameters. recap models the
 * family with explicit enumerated options so that the inference
 * engine can search the grid:
 *
 *  - Hit rule      (H): what happens to a line's age on a hit.
 *  - Miss rule     (M): the age assigned to a freshly inserted line.
 *  - Replace rule  (R): which maximal-age line is chosen as victim.
 *  - Update rule   (U): when/how the other lines age.
 *
 * Ages are in {0,..,3}; age 3 means "evict me next".
 */

#ifndef RECAP_POLICY_QLRU_HH_
#define RECAP_POLICY_QLRU_HH_

#include <string>
#include <vector>

#include "recap/policy/policy.hh"

namespace recap::policy
{

/** Parameter grid describing one member of the QLRU family. */
struct QlruParams
{
    /** Effect of a hit on the accessed line's age. */
    enum class Hit
    {
        kH0, ///< hit sets age to 0
        kH1, ///< hit decrements age (floor at 0)
    };

    /** Age assigned to a line installed by a miss. */
    enum class Miss
    {
        kM0, ///< insert at age 0 (maximum retention)
        kM1, ///< insert at age 1
        kM2, ///< insert at age 2
        kM3, ///< insert at age 3 (immediately evictable again)
    };

    /** Victim choice among the lines of maximal age. */
    enum class Replace
    {
        kR0, ///< leftmost line with age 3 (after aging, if any)
        kR1, ///< rightmost line with age 3 (after aging, if any)
    };

    /** Aging discipline for the non-accessed lines. */
    enum class Update
    {
        kU0, ///< lazy: ages change only via hits/fills; victim is the
             ///< leftmost/rightmost line of *maximal* current age
        kU1, ///< on-miss: every fill also increments all other lines'
             ///< ages (saturating at 3)
        kU2, ///< normalize: when no line has age 3 at victim time, add
             ///< (3 - max age) to every line, then pick an age-3 line
    };

    Hit hit = Hit::kH0;
    Miss miss = Miss::kM1;
    Replace replace = Replace::kR0;
    Update update = Update::kU2;

    /** Short canonical form, e.g. "H0,M1,R0,U2". */
    std::string shortName() const;

    /** Parses "H0,M1,R0,U2"-style strings; throws UsageError. */
    static QlruParams parse(const std::string& text);

    /** All 48 members of the grid, in a fixed enumeration order. */
    static std::vector<QlruParams> allVariants();

    bool operator==(const QlruParams& other) const = default;
};

/**
 * A QLRU-family policy instance.
 *
 * victim() is pure: for Update::kU2 the normalization it implies is
 * computed functionally and committed by fill().
 */
class QlruPolicy final : public ReplacementPolicy
{
  public:
    QlruPolicy(unsigned ways, QlruParams params);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    bool packState(PackedState& out) const override;
    void unpackState(const PackedState& in) override;

    const QlruParams& params() const { return params_; }

    /** Raw ages, for white-box tests. */
    std::vector<unsigned> ages() const { return age_; }

  private:
    static constexpr unsigned kMaxAge = 3;

    /** Victim under the replace rule for the given age vector. */
    Way selectVictim(const std::vector<unsigned>& age) const;

    /** Applies Update::kU2 normalization to @p age if needed. */
    void normalize(std::vector<unsigned>& age) const;

    QlruParams params_;
    std::vector<unsigned> age_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_QLRU_HH_
