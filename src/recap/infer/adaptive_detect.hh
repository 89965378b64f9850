/**
 * @file
 * Detection of adaptive (set-dueling) replacement — the phenomenon
 * the paper reports for the Ivy Bridge last-level cache, where
 * different cache sets demonstrably follow different policies and
 * the majority can be re-trained by thrashing leader sets.
 *
 * Method:
 *  1. Run one fixed probe sequence against a window of consecutive
 *     sets and collect each set's hit/miss signature.
 *  2. A single signature across the window => no adaptivity
 *     detected.
 *  3. Otherwise the minority-signature sets are leaders of the
 *     currently unselected policy. Thrash every majority set: the
 *     selected policy's leaders are among them, so their misses
 *     drive the selector (PSEL) across its midpoint.
 *  4. Re-run the signatures: sets that flipped are followers; the
 *     unflipped majority sets are the selected policy's leaders.
 *  5. Run candidate search against one leader set of each kind to
 *     identify the two constituent policies.
 */

#ifndef RECAP_INFER_ADAPTIVE_DETECT_HH_
#define RECAP_INFER_ADAPTIVE_DETECT_HH_

#include <string>
#include <vector>

#include "recap/infer/candidate_search.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"

namespace recap::infer
{

/** Tuning knobs for adaptivity detection. */
struct AdaptiveDetectConfig
{
    /** Consecutive sets to examine (must span leader placement). */
    unsigned windowSets = 128;

    /** Base address of set 0 of the window. */
    cache::Addr baseAddr = uint64_t{1} << 32;

    /** Majority-vote repeats for signatures. */
    unsigned voteRepeats = 1;

    uint64_t seed = 4242;

    /** Candidate-search budget for the constituent policies. */
    CandidateSearchConfig search;
};

/** Outcome of adaptivity detection. */
struct AdaptiveReport
{
    /** True iff set-dueling behaviour was demonstrated. */
    bool adaptive = false;

    /**
     * True iff the window showed more than one behaviour but the
     * retraining experiment failed to flip any follower (e.g. plain
     * per-set heterogeneity).
     */
    bool heterogeneousOnly = false;

    /** Window-relative indices of the selected policy's leaders. */
    std::vector<unsigned> leadersSelected;

    /** Window-relative indices of the unselected policy's leaders. */
    std::vector<unsigned> leadersUnselected;

    /** Candidate-search verdict for the initially selected policy. */
    CandidateSearchResult policySelected;

    /** Candidate-search verdict for the other constituent. */
    CandidateSearchResult policyUnselected;

    /**
     * True iff both constituent searches named the same policy — a
     * strong sign the "adaptivity" was a measurement artefact.
     * Callers should then fall back to static-policy inference.
     */
    bool constituentsIdentical = false;

    /** Loads issued by the whole detection. */
    uint64_t loadsUsed = 0;
};

/**
 * Runs adaptivity detection against level @p targetLevel.
 */
AdaptiveReport
detectAdaptive(MeasurementContext& ctx, const DiscoveredGeometry& geom,
               unsigned targetLevel,
               const AdaptiveDetectConfig& cfg = {});

} // namespace recap::infer

#endif // RECAP_INFER_ADAPTIVE_DETECT_HH_
