/**
 * @file
 * Active learning of replacement-policy automata: L* over an
 * observation table with Rivest–Schapire counterexample processing.
 *
 * The learner asks a Teacher membership words (access sequences from
 * a flushed set, every hit/miss observed), fills an ObservationTable
 * batch-wise (so the rows ride the prefix-sharing evaluator), closes
 * it, and proposes a Mealy hypothesis. An equivalence phase then
 * hunts for counterexamples three ways: replaying all evidence in
 * the PrefixStore, random words from a deriveTaskSeed-derived stream,
 * and a bounded W-method pass (complete up to an assumed extra-state
 * depth; the hypothesis side of the pass runs under parallelFor).
 * Each counterexample is reduced by the Rivest–Schapire binary
 * search to a single new distinguishing suffix.
 *
 * Two symbol semantics are supported:
 *  - kConcreteBlocks: learner symbol s is block s+1. Exact — the
 *    learned machine is the SUL's machine over alphabet blocks — but
 *    the state space is the concrete (contents, policy) space, which
 *    grows combinatorially with associativity.
 *  - kRecencyRoles: learner symbol s < ways is "the (s+1)-th most
 *    recently accessed distinct block of the word so far" and symbol
 *    ways is "a fresh block". Words are instantiated to concrete
 *    blocks on the fly. For renaming-invariant policies whose state
 *    is determined by access recency (LRU above all), this quotients
 *    away block identity and keeps the table tiny even at
 *    associativity 8; policies whose state embeds way order still
 *    blow up and end in a clean abstention.
 *
 * The learner never returns a guess: any undetermined teacher answer
 * (no vote quorum), any PrefixStore conflict (garbled teacher), or
 * any exhausted budget yields LearnOutcome::kAbstained with
 * diagnostics instead of a possibly-wrong automaton.
 */

#ifndef RECAP_LEARN_LSTAR_HH_
#define RECAP_LEARN_LSTAR_HH_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "recap/learn/mealy.hh"
#include "recap/learn/observation_table.hh"
#include "recap/learn/teacher.hh"

namespace recap::learn
{

/** Meaning of the learner's input symbols. */
enum class SymbolSemantics
{
    /** Symbol s = concrete block s+1 (exact, combinatorial). */
    kConcreteBlocks,

    /** Symbols are recency ranks + "fresh" (symmetry-reduced). */
    kRecencyRoles,
};

/** Learner configuration. */
struct LearnOptions
{
    /**
     * Learner alphabet size; 0 selects ways + 1 (enough to exhibit
     * every behaviour of a way-indexed policy in either semantics).
     */
    unsigned alphabet = 0;

    /** Symbol semantics (see SymbolSemantics). */
    SymbolSemantics semantics = SymbolSemantics::kConcreteBlocks;

    /**
     * Root seed. Every random-word equivalence round r draws from
     * Rng(deriveTaskSeed(seed, r)), so runs replay bit-for-bit.
     */
    uint64_t seed = 1;

    /**
     * Worker threads for the hypothesis side of the W-method pass
     * (0 = hardware threads, 1 = serial). Results are identical for
     * any value, per the parallelFor contract.
     */
    unsigned numThreads = 1;

    /** Abstain after this many membership words. */
    uint64_t maxWords = 2'000'000;

    /** Abstain when the hypothesis exceeds this many states. */
    unsigned maxStates = 8192;

    /** Abstain after this many refinement rounds. */
    unsigned maxRounds = 10'000;

    /** Random equivalence words tested per round. */
    unsigned randomWordsPerRound = 256;

    /** Random word length (0 selects 4 * ways + 4). */
    unsigned randomWordLength = 0;

    /** W-method extra-state depth (middle-section length bound). */
    unsigned wMethodDepth = 1;

    /**
     * Skip the W-method when its suite would exceed this many words
     * (it degenerates on huge hypotheses; random testing continues,
     * and the reported equivalence confidence stays low). The policy
     * backend absorbs ~1M words in seconds thanks to prefix sharing;
     * measuring backends should lower this along with maxWords.
     */
    uint64_t wMethodMaxWords = 2'000'000;

    /** Abstain when any answer's confidence falls below this. */
    double minConfidence = 0.0;
};

/** Outcome class: the learner never returns a silent guess. */
enum class LearnOutcome
{
    /** Converged; machine passed every equivalence check. */
    kLearned,

    /** No trustworthy automaton (noise, conflict, or budget). */
    kAbstained,
};

/** Result of a learning run. */
struct LearnResult
{
    LearnOutcome outcome = LearnOutcome::kAbstained;

    /** The learned machine (valid iff outcome == kLearned). */
    MealyMachine machine;

    /** Symbol semantics the machine's alphabet uses. */
    SymbolSemantics semantics = SymbolSemantics::kConcreteBlocks;

    /** States of the learned machine. */
    unsigned states = 0;

    /** Membership words asked. */
    uint64_t membershipWords = 0;

    /** Accesses those words cost (teacher accounting). */
    uint64_t accessesUsed = 0;

    /** Experiments those words cost (teacher accounting). */
    uint64_t experimentsUsed = 0;

    /** Counterexamples processed (equals suffixes added). */
    unsigned refinements = 0;

    /** Final distinguishing-suffix count |E|. */
    unsigned suffixCount = 0;

    /** Equivalence-test words the final hypothesis survived. */
    uint64_t equivalenceWords = 0;

    /**
     * Confidence heuristic in [0, 1): 1 - 1/(1 + survived
     * equivalence words). 1.0 exactly when a complete (W-method
     * within depth, or exact-reference) pass was run.
     */
    double equivalenceConfidence = 0.0;

    /** Lowest teacher answer confidence seen. */
    double teacherConfidence = 1.0;

    /** Human-readable outcome notes (abstention reasons etc.). */
    std::string diagnostics;
};

/**
 * The L* learner. Borrows a Teacher; run() performs one complete
 * learning session.
 */
class LStarLearner
{
  public:
    explicit LStarLearner(Teacher& teacher,
                          const LearnOptions& options = {});

    /**
     * Optional perfect equivalence oracle: when set, each hypothesis
     * is compared against this reference machine (same alphabet and
     * semantics) by product BFS instead of sampling — used by tests
     * and benches where ground truth exists.
     */
    void setReference(const MealyMachine& reference);

    /** Runs the learning session. */
    LearnResult run();

    /** The observation table (inspectable after run()). */
    const ObservationTable& table() const { return table_; }

    /**
     * Instantiates a learner-alphabet word to concrete block ids
     * (1-based) under @p semantics; identity+1 for concrete blocks,
     * recency-rank resolution for roles. Exposed for the adapter and
     * tests.
     */
    static Word concretize(const Word& word,
                           SymbolSemantics semantics,
                           unsigned alphabet);

  private:
    /** Writes learner word w of a batch into its second argument. */
    using WordSource = std::function<void(std::size_t, Word&)>;

    /**
     * Asks the teacher all of @p words (already learner-alphabet),
     * records answers in the store; returns false (with diagnostics)
     * when the learner must abstain.
     */
    bool ask(const std::vector<Word>& words);

    /** ask() on the @p count words @p wordAt writes, in order. */
    bool ask(std::size_t count, const WordSource& wordAt);

    /** Fills and closes the table; false = abstain. */
    bool closeTable();

    /**
     * Rivest–Schapire: reduces counterexample @p ce (learner word
     * whose recorded SUL output differs from the hypothesis) to one
     * distinguishing suffix added to E. False = abstain.
     */
    bool processCounterexample(const Word& ce,
                               const MealyMachine& hypothesis,
                               const std::vector<Word>& accessWords);

    /**
     * Hunts for a counterexample: store replay, random words, then
     * the bounded W-method. Returns the counterexample, or nullopt
     * when the hypothesis survived (equivalenceWords_ updated).
     * Sets abstain_ on teacher failure.
     */
    std::optional<Word>
    findCounterexample(const MealyMachine& hypothesis,
                       const std::vector<Word>& accessWords,
                       unsigned round);

    void abstain(const std::string& reason);

    Teacher& teacher_;
    LearnOptions options_;
    unsigned alphabet_ = 0;
    ObservationTable table_;
    std::optional<MealyMachine> reference_;
    bool abstained_ = false;
    bool complete_ = false;
    uint64_t equivalenceWords_ = 0;
    double teacherConfidence_ = 1.0;
    std::string diagnostics_;
};

} // namespace recap::learn

#endif // RECAP_LEARN_LSTAR_HH_
