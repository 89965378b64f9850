/**
 * @file
 * The learner's view of the system under learning: a Teacher answers
 * batches of membership words ("replay this access sequence from a
 * flush and report every hit/miss") and keeps cost counters.
 *
 * OracleTeacher adapts any query::QueryOracle — the replay-exact
 * PolicyOracle or the measuring MachineOracle — by laying each batch
 * of words end to end and answering it through observeWords(), so
 * observation-table rows ride the prefix-sharing evaluator (rows
 * extend each other by construction, which is where the learner's
 * measurement savings come from) and machine-side answers inherit
 * the robust voting / abstention semantics: an answer whose
 * positions did not all reach a quorum is flagged !determined, and
 * the learner abstains instead of learning from noise.
 *
 * PrefixStore is the learner's observation tree and its
 * teacher-consistency ledger: every answered word contributes the
 * outcome of each of its prefixes, and a later answer that
 * contradicts a recorded prefix exposes a garbled (fault-injected)
 * teacher. The learner turns such conflicts into
 * LearnOutcome::kAbstained rather than a wrong automaton.
 */

#ifndef RECAP_LEARN_TEACHER_HH_
#define RECAP_LEARN_TEACHER_HH_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "recap/learn/mealy.hh"
#include "recap/query/oracle.hh"

namespace recap::learn
{

/**
 * Answers to one batch of membership words, laid out like the batch:
 * one output per symbol, one flag and one confidence per word.
 */
struct TeacherAnswers
{
    /** Per symbol, in input order: 1 for a hit, 0 for a miss. */
    std::vector<uint8_t> outputs;

    /**
     * Per word: 0 when any of its positions failed to reach a vote
     * quorum (its outputs are then untrustworthy and the learner must
     * abstain), else 1.
     */
    std::vector<uint8_t> determined;

    /** Per word: lowest per-position vote confidence behind it. */
    std::vector<double> confidence;
};

/** Answers membership words; the learner's only window on the SUL. */
class Teacher
{
  public:
    virtual ~Teacher() = default;

    /** Associativity of the set under learning. */
    virtual unsigned ways() const = 0;

    /** Human-readable backend description. */
    virtual std::string describe() const = 0;

    /**
     * Answers every word of a batch, each replayed from a flushed set:
     * word w is symbols[ends[w - 1], ends[w]) (from 0 for w = 0).
     * Words are non-empty, so @p ends rises strictly and ends at
     * symbols.size(). The teacher owns @p symbols, so it can free them
     * once it no longer needs them.
     */
    virtual TeacherAnswers answer(std::vector<Symbol> symbols,
                                  std::span<const uint32_t> ends) = 0;

    /** Membership words asked so far. */
    virtual uint64_t wordsAsked() const = 0;

    /** Accesses/loads the answers cost so far. */
    virtual uint64_t accessesUsed() const = 0;

    /** Experiments the answers cost so far. */
    virtual uint64_t experimentsUsed() const = 0;
};

/** Teacher over a query::QueryOracle backend. */
class OracleTeacher : public Teacher
{
  public:
    /**
     * Borrows @p oracle. @p batch controls prefix sharing and the
     * policy backend's worker threads; the cost counters below
     * measure this teacher only (not other users of the oracle).
     */
    explicit OracleTeacher(query::QueryOracle& oracle,
                           const query::BatchOptions& batch = {});

    unsigned ways() const override;
    std::string describe() const override;
    TeacherAnswers answer(std::vector<Symbol> symbols,
                          std::span<const uint32_t> ends) override;
    uint64_t wordsAsked() const override { return wordsAsked_; }
    uint64_t accessesUsed() const override { return accesses_; }
    uint64_t experimentsUsed() const override { return experiments_; }

    /** Cumulative batch statistics (prefix-sharing accounting). */
    const query::BatchStats& batchStats() const { return stats_; }

  private:
    query::QueryOracle& oracle_;
    query::BatchOptions batch_;
    query::BatchStats stats_;
    uint64_t wordsAsked_ = 0;
    uint64_t accesses_ = 0;
    uint64_t experiments_ = 0;
};

/**
 * Prefix-consistency ledger over answered words, kept as one prefix
 * tree. Node 0 is the empty word; every other node is a word, with
 * its outcome (unknown, miss or hit) and one child slot per symbol.
 * Deterministic teachers answer every prefix identically wherever it
 * occurs; record() reports a conflict (without overwriting the first
 * recording) when they don't. A recorded node's ancestors are all
 * recorded, since record() fills a word's prefixes in order.
 */
class PrefixStore
{
  public:
    /** The empty word's node. */
    static constexpr uint32_t kRoot = 0;

    /** No such node. */
    static constexpr uint32_t kAbsent = UINT32_MAX;

    PrefixStore();

    /** Result of recording one answered word. */
    struct Recording
    {
        /** False iff some prefix contradicted an earlier answer. */
        bool consistent = true;

        /** First conflicting prefix length (0 when consistent). */
        std::size_t conflictAt = 0;
    };

    /**
     * Records the per-prefix outcomes of one answered word: outputs[i]
     * (1 for a hit) is the outcome of word[0 .. i].
     */
    Recording record(std::span<const Symbol> word,
                     std::span<const uint8_t> outputs);

    /**
     * Looks up the recorded outcome of the last symbol of @p word;
     * returns -1 when unknown, else 0/1.
     */
    int lookup(const Word& word) const;

    /** Number of distinct recorded prefixes. */
    std::size_t size() const { return recorded_; }

    /**
     * The first (shortest, then lexicographically smallest) recorded
     * word whose outcome @p machine mispredicts, if any — a free
     * counterexample before any new query is spent.
     */
    std::optional<Word>
    firstMismatch(const MealyMachine& machine) const;

    /** The child of @p node on @p symbol, or kAbsent. */
    uint32_t child(uint32_t node, Symbol symbol) const
    {
        return symbol < fanout_
                   ? children_[std::size_t{node} * fanout_ + symbol]
                   : kAbsent;
    }

    /** The node of @p word below @p from, or kAbsent. */
    uint32_t find(std::span<const Symbol> word,
                  uint32_t from = kRoot) const
    {
        for (const Symbol symbol : word) {
            from = child(from, symbol);
            if (from == kAbsent)
                break;
        }
        return from;
    }

    /** The child of @p node on @p symbol, added unrecorded if absent. */
    uint32_t extend(uint32_t node, Symbol symbol);

    /** -1 when @p node is unrecorded, else its outcome 0/1. */
    int outcome(uint32_t node) const { return outcome_[node]; }

    /** The word of @p node. */
    Word wordOf(uint32_t node) const;

  private:
    /** Child slots per node: one more than the largest symbol seen. */
    std::size_t fanout_ = 0;
    std::vector<uint32_t> children_; ///< node * fanout_ + symbol
    std::vector<int8_t> outcome_;
    std::vector<uint32_t> parent_;
    std::vector<Symbol> symbol_; ///< the edge from parent_
    std::size_t recorded_ = 0;
};

} // namespace recap::learn

#endif // RECAP_LEARN_TEACHER_HH_
