/**
 * @file
 * Bounded behavioural-equivalence checking between replacement-policy
 * automatons, by breadth-first exploration of the product of their
 * set automatons (contents + policy state) under a finite block
 * alphabet.
 */

#ifndef RECAP_INFER_EQUIVALENCE_HH_
#define RECAP_INFER_EQUIVALENCE_HH_

#include <cstdint>
#include <vector>

#include "recap/policy/policy.hh"
#include "recap/policy/set_model.hh"

namespace recap::infer
{

/** Result of an equivalence check. */
struct EquivalenceResult
{
    /** True iff no distinguishing sequence was found. */
    bool equivalent = true;

    /** A shortest distinguishing block sequence, when inequivalent. */
    std::vector<policy::BlockId> counterexample;

    /** Product states visited. */
    uint64_t statesExplored = 0;

    /**
     * True iff the reachable product space was exhausted (the
     * equivalence verdict is then exact for this alphabet size).
     */
    bool exhausted = false;
};

/** Tuning knobs for checkEquivalence(). */
struct EquivalenceConfig
{
    /**
     * Alphabet size as distinct block ids; 0 means ways + 2, which
     * suffices to exercise every victim choice plus one bystander.
     */
    unsigned alphabet = 0;

    /** Exploration cap on visited product states. */
    uint64_t maxStates = 2'000'000;
};

/**
 * Checks whether two policies of equal associativity (at most 127
 * ways) are behaviourally equivalent (same hit/miss answer on every
 * block access sequence over the alphabet, from flushed sets).
 */
EquivalenceResult
checkEquivalence(const policy::ReplacementPolicy& a,
                 const policy::ReplacementPolicy& b,
                 const EquivalenceConfig& cfg = {});

} // namespace recap::infer

#endif // RECAP_INFER_EQUIVALENCE_HH_
