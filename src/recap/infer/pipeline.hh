/**
 * @file
 * The end-to-end reverse-engineering pipeline: geometry discovery,
 * adaptivity detection, permutation inference, candidate fallback,
 * and verdict naming — per cache level, per machine.
 */

#ifndef RECAP_INFER_PIPELINE_HH_
#define RECAP_INFER_PIPELINE_HH_

#include <string>
#include <vector>

#include "recap/infer/adaptive_detect.hh"
#include "recap/infer/candidate_search.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/permutation_infer.hh"
#include "recap/learn/lstar.hh"

namespace recap::infer
{

/**
 * Robust-measurement options for hostile machines. All default to
 * the legacy (trusting) behaviour; enabling `vote` switches every
 * prober to the confidence-driven sequential test and arms the
 * graceful-degradation paths (Undetermined instead of wrong).
 */
struct RobustOptions
{
    /** Adaptive voting config handed to every SetProber. */
    AdaptiveVoteConfig vote;

    /**
     * Cross-set quorum: infer each level independently on this many
     * distinct sets and require a strict majority to agree on the
     * verdict; a split vote reports Undetermined with per-set
     * diagnostics. 1 = single set (legacy).
     */
    unsigned quorumSets = 1;

    /**
     * Calibrate the latency outlier fence up front so timed probing
     * rejects TLB/interrupt outliers (see
     * MeasurementContext::calibrateLatencyFence).
     */
    bool calibrateLatency = false;
};

/**
 * Escalation to active automata learning (recap::learn) when the
 * target's policy is outside the candidate family: instead of a bare
 * "unidentified", the pipeline runs the L* learner against the
 * probed set and, when it converges, reports the learned automaton
 * as the level's model (state count, query cost, equivalence
 * confidence). The learner abstains — never guesses — so an
 * undetermined verdict stays undetermined on noisy or oversized
 * targets.
 */
struct PolicyLearningOptions
{
    /** Escalate when neither inference path reached a verdict. */
    bool enabled = true;

    /**
     * Learner configuration. `seed` is overridden per level from the
     * pipeline seed (deriveTaskSeed); the budget defaults here are
     * deliberately far below learn::LearnOptions' library defaults
     * because every membership word is a real measured experiment on
     * the machine backend.
     */
    learn::LearnOptions learner{
        .alphabet = 0,
        .semantics = learn::SymbolSemantics::kConcreteBlocks,
        .seed = 1,
        .numThreads = 1,
        .maxWords = 200'000,
        .maxStates = 512,
        .maxRounds = 512,
        .randomWordsPerRound = 128,
        .randomWordLength = 0,
        .wMethodDepth = 1,
        .wMethodMaxWords = 100'000,
        .minConfidence = 0.0,
    };
};

/** Options for the full pipeline. */
struct InferenceOptions
{
    GeometryProbeConfig geometry;
    PermutationInferenceConfig permutation;
    CandidateSearchConfig search;
    AdaptiveDetectConfig adaptive;

    /** Run the adaptivity scan per level (costs one window pass). */
    bool detectAdaptivity = true;

    /** Majority-vote repeats for all probing. */
    unsigned voteRepeats = 1;

    /** Validation rounds for the agreement measurement. */
    unsigned agreementRounds = 8;

    /** Robust measurement (adaptive voting, quorums, calibration). */
    RobustOptions robust;

    /** Automata-learning escalation for out-of-family policies. */
    PolicyLearningOptions learning;

    uint64_t seed = 99;
};

/** Did a level's inference reach a trustworthy verdict? */
enum class LevelOutcome : uint8_t
{
    kDecided = 0,

    /**
     * The machine was too noisy (or too strange) to decide: probes
     * without quorums, contradictory cross-set verdicts, or an
     * inference error. `diagnostics` says which; `verdict` is
     * "undetermined". Never a silently wrong answer.
     */
    kUndetermined = 1,
};

/** Per-level inference verdict. */
struct LevelReport
{
    std::string levelName; ///< "L1", "L2", ...
    LevelGeometry geometry;

    bool isPermutation = false;
    bool adaptive = false;
    bool heterogeneousOnly = false;

    /** Final human-readable verdict. */
    std::string verdict;

    /** Surviving candidate specs (candidate-search path). */
    std::vector<std::string> survivors;

    /** Constituents for adaptive levels. */
    std::string adaptiveSelected;
    std::string adaptiveUnselected;

    /** Fraction of post-hoc validation probes the verdict predicts. */
    double agreement = 0.0;

    /** Decided vs gracefully-degraded (see LevelOutcome). */
    LevelOutcome outcome = LevelOutcome::kDecided;

    /**
     * Lowest vote confidence the verdict rests on; 1.0 on noiseless
     * machines or with adaptive voting disabled.
     */
    double confidence = 1.0;

    /** Why the level is undetermined, when it is. */
    std::string diagnostics;

    /** Loads issued for this level's policy inference. */
    uint64_t loadsUsed = 0;

    /** True when the verdict is a learned automaton (learn::). */
    bool learned = false;

    /** States of the learned automaton (when learned). */
    unsigned learnedStates = 0;

    /** Membership words the learning escalation spent (if it ran). */
    uint64_t learnerQueries = 0;

    /** Equivalence confidence of the learned automaton. */
    double learnedEqConfidence = 0.0;
};

/** Whole-machine inference result. */
struct MachineReport
{
    std::string machineName;
    DiscoveredGeometry geometry;
    std::vector<LevelReport> levels;
    uint64_t totalLoads = 0;
};

/**
 * Measures how well @p model predicts the probed set's behaviour on
 * random sequences: returns the fraction of accesses whose hit/miss
 * outcome the model gets right.
 */
double measureAgreement(SetProber& prober,
                        const policy::ReplacementPolicy& model,
                        unsigned rounds, uint64_t seed);

/**
 * One non-adaptive inference attempt for level @p level probed at
 * the set of @p baseAddr: permutation inference, candidate fallback,
 * agreement measurement, robust gating. @p seedSalt decorrelates the
 * probe sequences of repeated attempts (cross-set quorum). Never
 * throws: inference errors surface as kUndetermined.
 */
LevelReport inferLevelAt(MeasurementContext& ctx,
                         const DiscoveredGeometry& geometry,
                         unsigned level, cache::Addr baseAddr,
                         const InferenceOptions& opts,
                         uint64_t seedSalt = 0);

/** Runs the full pipeline against @p machine. */
MachineReport inferMachine(hw::Machine& machine,
                           const InferenceOptions& opts = {});

} // namespace recap::infer

#endif // RECAP_INFER_PIPELINE_HH_
