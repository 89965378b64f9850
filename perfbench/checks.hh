/**
 * @file
 * Output checks shared by the workloads: operation tallies (the
 * fail_ratio numerator and denominator) and the behavioural-equivalence
 * comparator between an inference verdict and the hidden ground truth.
 */

#ifndef PERFBENCH_CHECKS_HH_
#define PERFBENCH_CHECKS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "recap/hw/spec.hh"
#include "recap/infer/pipeline.hh"
#include "recap/policy/policy.hh"
#include "recap/policy/set_model.hh"

namespace perfbench
{

/**
 * Operations attempted and failed. Every operation is recorded exactly
 * once, as passed or failed; a failure keeps a one-line reason.
 */
class OpTally
{
  public:
    void pass() { ++attempted_; }
    void fail(std::string why);
    void record(bool ok, const std::string& what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failures_.size(); }
    double failRatio() const;
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/**
 * Product states compareSpecs() explores before it gives up. Exhausting
 * QLRU pairs at 12 ways takes minutes (2M states in about 2 minutes);
 * this cap keeps a check under about ten seconds.
 */
constexpr uint64_t kEquivalenceStates = 200'000;

/** Outcome of comparing two policies' behaviour, weakest first. */
enum class Match
{
    kDifferent,  ///< a distinguishing sequence was found (or no verdict)
    kUnverified, ///< none found within kEquivalenceStates product states
    kEquivalent, ///< equal, or no distinguishing sequence exists
};

/** "equivalent", "different" or "unverified". */
const char* matchName(Match m);

/**
 * Compares @p a and @p b at @p ways: equal spec strings are trivially
 * equivalent; otherwise infer::checkEquivalence decides, and a search
 * that hits kEquivalenceStates without exhausting the product space is
 * kUnverified, not kEquivalent.
 */
Match compareSpecs(const std::string& a, const std::string& b,
                   unsigned ways);

/**
 * True when @p word distinguishes @p a from @p b from flushed sets:
 * their hit/miss answers first differ on its last access, as in the
 * shortest counterexample infer::checkEquivalence returns.
 */
bool distinguishes(const recap::policy::ReplacementPolicy& a,
                   const recap::policy::ReplacementPolicy& b,
                   const std::vector<recap::policy::BlockId>& word);

/**
 * Factory specs of a level's verdict: the candidate-search winner, the
 * named permutation policy, or both set-dueling constituents. Empty
 * when the level reached no checkable verdict (undetermined, ambiguous,
 * learned or an unnamed permutation).
 */
std::vector<std::string> verdictSpecs(const recap::infer::LevelReport& lvl);

/**
 * Compares a level's verdict with the hidden ground truth up to
 * behavioural equivalence. A set-dueling truth matches when the two
 * reported constituents are equivalent to its two policies in either
 * order; a static truth matches a single equivalent verdict. The result
 * is kUnverified when the best pairing has an unverified member and no
 * distinguishing sequence. Unless kEquivalent, @p why says what
 * differed or what could not be verified.
 */
Match verdictMatchesTruth(const recap::infer::LevelReport& lvl,
                          const recap::hw::CacheLevelSpec& truth,
                          std::string& why);

/** FNV-1a digest of @p lines, as 16 hex digits. */
std::string digestOf(const std::vector<std::string>& lines);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH_
