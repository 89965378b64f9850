/**
 * @file
 * Mealy-machine representation of a replacement policy's observable
 * behaviour, the artifact the active learner produces.
 *
 * The machine's inputs are abstract block accesses (symbol s stands
 * for block id s+1 of one cache set, counted from a flush) and its
 * single-bit output is the hit/miss answer of that access. This is
 * exactly the automaton the paper's formalism reasons about, made
 * explicit: a state is a (contents, policy-state) class, and two
 * policies are behaviourally equivalent iff their machines are.
 *
 * Besides the plain transition structure, this file provides the
 * operations the learning stack needs:
 *  - minimize(): Moore partition refinement to the canonical minimal
 *    machine (the learner's hypotheses are minimal by construction;
 *    ground-truth extractions may not be),
 *  - isomorphicTo(): exact isomorphism of reachable parts (the
 *    strongest form of "learned it right", used by the differential
 *    tests at small associativity),
 *  - automatonOfPolicy(): exact extraction of the machine of a known
 *    policy::ReplacementPolicy by breadth-first exploration over
 *    policy::SetStates — the ground truth the learner is judged
 *    against, and the input of the recap-dot tool,
 *  - toDot(): Graphviz rendering.
 */

#ifndef RECAP_LEARN_MEALY_HH_
#define RECAP_LEARN_MEALY_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "recap/policy/policy.hh"

namespace recap::learn
{

/** Input symbol: block id (symbol + 1) of the probed set. */
using Symbol = uint32_t;

/** An input word (access sequence from a flushed set). */
using Word = std::vector<Symbol>;

/**
 * A deterministic Mealy machine over a dense symbol alphabet with
 * boolean (hit/miss) outputs.
 */
class MealyMachine
{
  public:
    MealyMachine() = default;

    /**
     * @param numStates Number of states; state 0 is initial.
     * @param alphabet  Number of input symbols.
     * Transitions start as self-loops with miss outputs.
     */
    MealyMachine(unsigned numStates, unsigned alphabet);

    unsigned numStates() const { return numStates_; }
    unsigned alphabet() const { return alphabet_; }

    /** Sets the transition state x symbol -> (next, output). */
    void setTransition(unsigned state, Symbol symbol, unsigned next,
                       bool output);

    /** Successor state of @p state on @p symbol. */
    unsigned next(unsigned state, Symbol symbol) const;

    /** Output (true = hit) of @p symbol taken in @p state. */
    bool output(unsigned state, Symbol symbol) const;

    /**
     * Runs @p word from the initial state and returns the per-symbol
     * hit/miss outputs.
     */
    std::vector<bool> run(const Word& word) const;

    /** Output of the last symbol of @p word (requires non-empty). */
    bool lastOutput(const Word& word) const;

    /**
     * Borrowed raw-table view for hot loops (the W-method suite runs
     * millions of words through one fixed hypothesis). Elides the
     * per-symbol range checks of next()/output(): the caller
     * guarantees every symbol is < alphabet(). Must not outlive, or
     * observe mutation of, the machine it was taken from.
     */
    class Walker
    {
      public:
        explicit Walker(const MealyMachine& machine)
            : next_(machine.next_.data()), output_(&machine.output_),
              alphabet_(machine.alphabet_)
        {}

        /** Output of the last symbol of @p word (non-empty). */
        bool lastOutput(const Word& word) const
        {
            uint32_t state = 0;
            for (std::size_t i = 0; i + 1 < word.size(); ++i)
                state = next_[std::size_t{state} * alphabet_ +
                              word[i]];
            return (*output_)[std::size_t{state} * alphabet_ +
                              word.back()];
        }

        /** Per-symbol outputs of @p word, into a reused buffer. */
        void run(const Word& word, std::vector<bool>& outputs) const
        {
            outputs.clear();
            outputs.reserve(word.size());
            uint32_t state = 0;
            for (Symbol symbol : word) {
                const std::size_t i =
                    std::size_t{state} * alphabet_ + symbol;
                outputs.push_back((*output_)[i]);
                state = next_[i];
            }
        }

      private:
        const uint32_t* next_;
        const std::vector<bool>* output_;
        unsigned alphabet_;
    };

    /**
     * The canonical minimal machine of the reachable part: states
     * merged by behavioural equivalence (Moore partition refinement)
     * and renumbered in BFS order from the initial state with
     * ascending-symbol edge exploration. Two machines are
     * behaviourally equivalent iff their minimized forms are
     * isomorphic — and minimized forms are isomorphic iff they are
     * *identical*, because the BFS numbering is canonical.
     */
    MealyMachine minimized() const;

    /**
     * True iff the reachable parts are isomorphic: same alphabet and
     * a bijection of reachable states preserving initial state,
     * transitions, and outputs.
     */
    bool isomorphicTo(const MealyMachine& other) const;

    /**
     * A shortest input word on which the two machines' outputs
     * differ; empty when behaviourally equivalent. Machines must
     * share the alphabet size.
     */
    Word distinguishingWord(const MealyMachine& other) const;

    /**
     * Graphviz DOT rendering. Edges are labelled
     * "b<id>/hit|miss"; parallel edges between the same state pair
     * are merged onto one arrow with comma-joined labels.
     * @param title Graph label ("" = none).
     */
    std::string toDot(const std::string& title = "") const;

  private:
    unsigned numStates_ = 0;
    unsigned alphabet_ = 0;
    /** next_[state * alphabet_ + symbol]. */
    std::vector<uint32_t> next_;
    /** output_[state * alphabet_ + symbol]. */
    std::vector<bool> output_;
};

/**
 * Extracts the exact Mealy machine of @p policy over @p alphabet
 * distinct blocks by BFS over (concrete contents, policy state) set
 * states; alphabet + ways is at most 254. The result is the
 * reachable ground-truth automaton the learner should recover;
 * minimize() it before isomorphism comparisons.
 *
 * @param alphabet  Block alphabet size; ways + 1 spans every
 *                  behaviour a way-indexed policy can show.
 * @param maxStates Exploration guard.
 * @throws UsageError when the reachable space exceeds @p maxStates
 *         (a stochastic or non-renaming-invariant policy).
 */
MealyMachine automatonOfPolicy(const policy::ReplacementPolicy& policy,
                               unsigned alphabet,
                               uint64_t maxStates = 1u << 20);

} // namespace recap::learn

#endif // RECAP_LEARN_MEALY_HH_
