/**
 * @file
 * The L* observation table: the learner's evidence structure.
 *
 * Rows are access words (prefixes) — the short prefixes S plus their
 * one-symbol extensions S·A — and columns are distinguishing
 * suffixes E. Cell (u, e) holds the hit/miss outputs of e's symbols
 * when u·e is replayed from a flush. Two prefixes with equal rows
 * are (as far as the evidence goes) the same SUL state.
 *
 * The table is backed by a PrefixStore of *whole-word* outcomes:
 * because every membership query observes every position, one
 * answered word fills the cells of all its prefixes at once, and the
 * same store doubles as the teacher-consistency ledger. Rows are
 * nodes of that tree; a row's cells are read by walking down from
 * its node, and packed one bit per output into a signature that
 * policy::StateIndex numbers, so equal rows share an id. S stays
 * prefix-closed and its rows pairwise distinct (the Rivest–Schapire
 * discipline), which keeps the table consistent by construction;
 * isConsistent() still verifies it for the invariant tests.
 *
 * E always contains every single-symbol suffix, so a closed table
 * directly yields a well-defined Mealy hypothesis.
 */

#ifndef RECAP_LEARN_OBSERVATION_TABLE_HH_
#define RECAP_LEARN_OBSERVATION_TABLE_HH_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "recap/learn/mealy.hh"
#include "recap/learn/teacher.hh"

namespace recap::learn
{

/** The L* observation table over a dense learner alphabet. */
class ObservationTable
{
  public:
    /**
     * Starts with S = {ε} and E = all single-symbol suffixes.
     * @param alphabet Learner alphabet size (>= 1).
     */
    explicit ObservationTable(unsigned alphabet);

    unsigned alphabet() const { return alphabet_; }

    /** Short prefixes S, in insertion order (prefix-closed). */
    const std::vector<Word>& prefixes() const { return prefixes_; }

    /** Distinguishing suffixes E, in insertion order. */
    const std::vector<Word>& suffixes() const { return suffixes_; }

    /** The evidence ledger (also records equivalence-test words). */
    PrefixStore& store() { return store_; }
    const PrefixStore& store() const { return store_; }

    /**
     * Words u·e (u in S ∪ S·A, e in E) whose outcome is not yet in
     * the store, deduplicated, in deterministic order. Empty means
     * the table is filled.
     */
    std::vector<Word> missingWords() const;

    /** True iff every cell is answerable from the store. */
    bool filled() const { return missingWords().empty(); }

    /**
     * Row signature of prefix @p u: the concatenated cell outputs
     * over E. Requires the table to be filled for @p u.
     */
    std::string rowKey(const Word& u) const;

    /**
     * Closedness: every row of S·A equals the row of some prefix in
     * S. When it fails, @p witness (if non-null) receives the first
     * offending extension — the prefix to promote into S.
     * Requires filled().
     */
    bool isClosed(Word* witness = nullptr) const;

    /**
     * Consistency: prefixes with equal rows have equal extension
     * rows for every symbol. Holds by construction under the
     * distinct-rows discipline; exposed for the invariant tests.
     * Requires filled().
     */
    bool isConsistent() const;

    /**
     * Moves extension @p u into S (it must extend a current S prefix
     * by one symbol). Returns false (no-op) if already present.
     */
    bool promote(const Word& u);

    /** Adds suffix @p e to E. Returns false (no-op) if present. */
    bool addSuffix(const Word& e);

    /**
     * Builds the hypothesis machine from a filled, closed table:
     * states are the distinct rows of S (state 0 = row(ε)),
     * transitions follow row(u·a), outputs come from the
     * single-symbol cells. Also returns, per state, the access word
     * (its S prefix) via @p accessWords when non-null.
     */
    MealyMachine
    buildHypothesis(std::vector<Word>* accessWords = nullptr) const;

  private:
    /**
     * One row: its tree node and its cells so far, one bit per
     * output in suffix order (cells are immutable once recorded, and
     * E only grows, so nothing ever invalidates).
     */
    struct Row
    {
        uint32_t node = PrefixStore::kRoot;
        std::size_t suffixesDone = 0;
        std::size_t bits = 0;
        std::vector<uint32_t> cells;
    };

    /**
     * Advances @p row over newly answerable suffixes; when @p missing
     * is non-null, unanswerable cell words are appended there.
     * Returns true iff the row is complete.
     */
    bool refreshRow(Row& row, std::vector<Word>* missing) const;

    /** Complete signature of row @p r (requires all cells recorded). */
    std::span<const uint32_t> signature(uint32_t r) const;

    /** Row of S·A extension @p a of prefix @p i. */
    uint32_t extensionRow(std::size_t i, Symbol a) const
    {
        return extensionRows_[i * alphabet_ + a];
    }

    /** Adds the S·A rows of the prefix whose row is @p row. */
    void addExtensionRows(uint32_t row);

    unsigned alphabet_;
    std::vector<Word> prefixes_;
    std::vector<Word> suffixes_;
    PrefixStore store_;
    /**
     * Every row once: prefixRows_[i] is prefix i's row and
     * extensionRows_ its S·A rows, so a promoted extension keeps its
     * row.
     */
    mutable std::vector<Row> rows_;
    std::vector<uint32_t> prefixRows_;
    std::vector<uint32_t> extensionRows_;
};

} // namespace recap::learn

#endif // RECAP_LEARN_OBSERVATION_TABLE_HH_
