/**
 * @file
 * Candidate-elimination search for policies outside the permutation
 * class (NRU, QLRU variants, RRIP variants, ...).
 *
 * When permutation inference refutes its hypothesis, the paper's
 * approach falls back to "generate and test": simulate a library of
 * candidate policy automatons against the machine's observed hit/miss
 * behaviour on probe sequences, eliminating every candidate that
 * disagrees, until (ideally) one behavioural equivalence class
 * remains.
 */

#ifndef RECAP_INFER_CANDIDATE_SEARCH_HH_
#define RECAP_INFER_CANDIDATE_SEARCH_HH_

#include <string>
#include <vector>

#include "recap/infer/set_prober.hh"

namespace recap::infer
{

/** Tuning knobs for the candidate search. */
struct CandidateSearchConfig
{
    /** Maximum number of probe sequences before giving up. */
    unsigned maxRounds = 64;

    /**
     * Explicit root seed for the probe-sequence RNG; callers (CLI,
     * benches, the pipeline) must set it for reproducible runs.
     */
    uint64_t seed = 777;

    /**
     * Worker threads for the candidate-elimination inner loop
     * (simulating every surviving automaton against an observation);
     * 0 = hardware concurrency, 1 = inline serial execution. Probe
     * sequences and observations are generated serially either way,
     * so results are bit-identical for every value.
     */
    unsigned numThreads = 0;

    /**
     * After the search stalls with several survivors, check (by
     * bounded product exploration) whether they are mutually
     * behaviourally equivalent; if so the verdict counts as decided.
     */
    bool stopOnEquivalent = true;

    /**
     * After the random phase, synthesize exact distinguishing
     * experiments from the survivors' product automaton and play
     * them against the machine. Disabling this is the random-only
     * ablation baseline.
     */
    bool targetedPhase = true;
};

/** Result of the candidate search. */
struct CandidateSearchResult
{
    /** Candidate specs that matched every observation. */
    std::vector<std::string> survivors;

    /** True iff exactly one behavioural class survived. */
    bool decided = false;

    /** A representative surviving spec ("" when none survived). */
    std::string verdict;

    /**
     * True when the machine was too noisy to decide: observations
     * never reached quorums, every candidate was eliminated by
     * contradictory evidence, or the confirmation replay disagreed
     * with the survivor. Graceful degradation — never a wrong spec.
     */
    bool undetermined = false;

    /**
     * Lowest vote confidence among the determined observations the
     * verdict rests on; 1.0 on a noiseless machine.
     */
    double confidence = 1.0;

    /** Why the search is undetermined, when it is. */
    std::string diagnostics;

    /** Probe rounds actually run. */
    unsigned roundsRun = 0;

    /** Loads issued (measurement cost). */
    uint64_t loadsUsed = 0;

    /** Experiments replayed (measurement cost). */
    uint64_t experimentsUsed = 0;
};

/**
 * The default candidate library for associativity @p ways: all named
 * deterministic policies recap implements (tree-PLRU only when ways
 * is a power of two) plus the full QLRU parameter grid.
 */
std::vector<std::string> defaultCandidateSpecs(unsigned ways);

/**
 * Runs candidate elimination against one probed set.
 */
class CandidateSearch
{
  public:
    CandidateSearch(SetProber& prober,
                    std::vector<std::string> candidateSpecs,
                    const CandidateSearchConfig& cfg = {});

    CandidateSearchResult run();

  private:
    SetProber& prober_;
    std::vector<std::string> specs_;
    CandidateSearchConfig cfg_;
};

} // namespace recap::infer

#endif // RECAP_INFER_CANDIDATE_SEARCH_HH_
