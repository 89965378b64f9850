/**
 * @file
 * AST of the membership-query language (the "CacheQuery idea": make
 * "ask the cache a question" a first-class object).
 *
 * A query is a sequence of block accesses over named blocks, with
 * three decorations:
 *  - `?` after a name marks the access as a probe whose hit/miss
 *    outcome (and serving level) the oracle must report,
 *  - `@` flushes the cache mid-sequence (every query implicitly
 *    starts from a flushed cache),
 *  - `( ... )^N` repeats a group N times (also `name^N`).
 *
 * Example: `a b c d a? @ a?` — fill four blocks, probe a (hit on any
 * 4-way-or-larger LRU-like set), flush, probe a again (miss).
 *
 * The AST preserves the written structure (groups and repetition
 * counts are not expanded), prints back to canonical text, and
 * compiles into the flat step list the oracles execute.
 */

#ifndef RECAP_QUERY_AST_HH_
#define RECAP_QUERY_AST_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "recap/policy/set_model.hh"

namespace recap::query
{

/** Abstract block identifier (shared with the inference layer). */
using BlockId = policy::BlockId;

/** One access to a named block; `probe` marks a `?` decoration. */
struct Access
{
    std::string block;
    bool probe = false;

    bool operator==(const Access&) const = default;
};

/** A `@` full flush. */
struct Flush
{
    bool operator==(const Flush&) const = default;
};

struct Node;

/** A parenthesized sub-sequence. */
struct Group
{
    std::vector<Node> items;

    bool operator==(const Group&) const;
};

/** One query item: an access, a flush, or a group, repeated. */
struct Node
{
    std::variant<Access, Flush, Group> op;

    /** Repetition count (`^N`); 1 when unwritten. */
    unsigned repeat = 1;

    bool operator==(const Node&) const;
};

/** A whole query: a non-empty item sequence. */
struct Query
{
    std::vector<Node> items;

    bool operator==(const Query&) const = default;
};

/**
 * Renders @p query back to canonical text: items separated by single
 * spaces, `^N` only for N > 1. parse(print(q)) == q for every valid
 * AST (the round-trip property the tests fuzz).
 */
std::string print(const Query& query);

/** One executable step of a compiled query. */
struct Step
{
    /** Dense block id (first occurrence order, 1-based); 0 = flush. */
    BlockId block = 0;

    /** True for a flush step; `block`/`probe` are meaningless then. */
    bool flush = false;

    /** True iff the access outcome must be reported. */
    bool probe = false;

    bool operator==(const Step&) const = default;
};

/**
 * A query compiled to the flat form the oracles execute. Block names
 * are interned to dense 1-based ids in first-occurrence order;
 * programmatic queries (built in code, e.g. by the L* teacher) may use
 * arbitrary ids and leave `blockNames` empty.
 */
struct CompiledQuery
{
    std::vector<Step> steps;

    /** blockNames[id - 1] names block id; empty when programmatic. */
    std::vector<std::string> blockNames;

    /** Canonical source text ("" when programmatic). */
    std::string text;

    /** Number of probe steps. */
    unsigned probeCount() const;

    /** Name of @p block ("b<id>" fallback for programmatic ids). */
    std::string blockName(BlockId block) const;
};

/**
 * Compiles @p query: expands repetitions, interns block names.
 *
 * @param maxSteps Expansion guard; repetition counts multiply, so a
 *                 short text can demand an astronomical step count.
 * @throws UsageError when the expansion exceeds @p maxSteps or the
 *         query contains no probe-able content (only flushes).
 */
CompiledQuery compile(const Query& query, std::size_t maxSteps = 1u << 20);

/**
 * Builds a programmatic query: access @p seq in order, then one
 * probed access to @p probe (the query-layer form of "does @p probe
 * survive @p seq?").
 */
CompiledQuery makeSurvivalQuery(const std::vector<BlockId>& seq,
                                BlockId probe);

/** Builds a programmatic query probing every access of @p seq. */
CompiledQuery makeObserveAllQuery(const std::vector<BlockId>& seq);

} // namespace recap::query

#endif // RECAP_QUERY_AST_HH_
