/**
 * @file
 * Measurement-based inference of permutation policies — the core
 * algorithm of Abel & Reineke (RTAS 2013, applied to real hardware
 * in the ISPASS 2014 paper this repository reproduces).
 *
 * The idea: establish a known canonical state by filling the probed
 * set with k known blocks, reconstruct the eviction order of any
 * reachable state by "survival probing" (how many fresh misses does
 * block b survive?), and read off the permutation a hit at each
 * position induces. A final cross-validation phase replays random
 * access sequences and compares the machine's hit/miss behaviour to
 * the hypothesized permutation automaton; any mismatch refutes the
 * permutation-policy hypothesis.
 */

#ifndef RECAP_INFER_PERMUTATION_INFER_HH_
#define RECAP_INFER_PERMUTATION_INFER_HH_

#include <optional>
#include <string>
#include <vector>

#include "recap/infer/set_prober.hh"
#include "recap/policy/permutation.hh"

namespace recap::infer
{

/** Tuning knobs for the permutation inference. */
struct PermutationInferenceConfig
{
    /** Random cross-validation sequences. */
    unsigned validationRounds = 24;

    /**
     * Find survival positions by binary search (true) or by linear
     * upward scan (false). Both are correct for permutation
     * policies; the linear scan is the naive-baseline setting for
     * the measurement-cost ablation.
     */
    bool binarySearchSurvival = true;

    /**
     * Refute non-permutation policies early with the composed-
     * prediction spot check; disabling it derives all k hit
     * permutations before validation (ablation baseline).
     */
    bool earlySpotCheck = true;

    uint64_t seed = 2024;
};

/** Outcome of a permutation-inference run. */
struct PermutationInferenceResult
{
    /** True iff a consistent permutation policy was found. */
    bool isPermutation = false;

    /** The inferred policy, when isPermutation. */
    std::optional<policy::PermutationPolicy> policy;

    /** Why inference failed, when !isPermutation. */
    std::string failureReason;

    /**
     * True when the run could not tell: a survival probe or too much
     * of the validation evidence came back undetermined under
     * adaptive voting. A graceful "I don't know" — distinct from a
     * refutation, which is a determined "not a permutation policy".
     */
    bool undetermined = false;

    /**
     * Lowest vote confidence among the probes this verdict rests on;
     * 1.0 on a noiseless machine or with adaptive voting disabled.
     */
    double confidence = 1.0;

    /** What came back undetermined, when undetermined. */
    std::string diagnostics;

    /** Loads issued by this inference (measurement cost). */
    uint64_t loadsUsed = 0;

    /** Experiments replayed by this inference. */
    uint64_t experimentsUsed = 0;
};

/**
 * Runs permutation inference against one probed set.
 */
class PermutationInference
{
  public:
    PermutationInference(SetProber& prober,
                         const PermutationInferenceConfig& cfg = {});

    PermutationInferenceResult run();

  private:
    /**
     * Reconstructs, by survival probing, the eviction order of the
     * state reached by flush + @p prefix. @p candidates are the
     * blocks that may be resident. Returns the blocks in eviction
     * order (next victim first), or nullopt if the positions are
     * inconsistent (not a permutation policy, or noise).
     */
    std::optional<std::vector<BlockId>>
    evictionOrderAfter(const std::vector<BlockId>& prefix,
                       const std::vector<BlockId>& candidates);

    /** Validates @p candidate against the machine. */
    bool validate(const policy::PermutationPolicy& candidate,
                  std::string& reason);

    /** Folds one vote's confidence/outcome into the run verdict. */
    void noteVote(double confidence, bool determined,
                  const char* where);

    SetProber& prober_;
    PermutationInferenceConfig cfg_;

    // Per-run robustness state (reset by run()).
    bool sawUndetermined_ = false;
    double minConfidence_ = 1.0;
    std::string undeterminedNote_;
};

} // namespace recap::infer

#endif // RECAP_INFER_PERMUTATION_INFER_HH_
