/**
 * @file
 * Prefix-sharing batch evaluation of membership queries.
 *
 * A batch of structurally similar queries (the shape every
 * reverse-engineering technique produces: "replay this prefix, then
 * probe") repeats enormous amounts of work when each query re-executes
 * from scratch. Both evaluators here share that work through a trie
 * over query access-prefixes; what "sharing" means differs per
 * backend, because the backends have different physics:
 *
 *  - Snapshot sharing (PolicyOracle): the trie (dense node ids,
 *    first-child/next-sibling links, one step-to-node array) is
 *    walked once with a live set model; at branch points the
 *    automaton state is snapshotted and each subtree continues from
 *    the snapshot. A batch of N queries costs one access per DISTINCT
 *    prefix instead of one per query step. Disjoint root subtrees
 *    evaluate in parallel on the common TaskPool; results are
 *    bit-identical for every thread count (and, for deterministic
 *    policies, to naive per-query replay). One flat core serves both
 *    the DSL queries and the observe-all words of
 *    QueryOracle::observeWords().
 *
 *  - Replay sharing (MachineOracle): hardware state cannot be
 *    snapshotted, and observation is destructive — but one observed
 *    replay of a segment yields the outcome of EVERY position along
 *    it. The evaluator therefore deduplicates identical
 *    flush-delimited segments across the batch and reorders the
 *    remaining ones longest-first, so any segment that is a prefix of
 *    an already-observed one reads its outcomes from the trie instead
 *    of re-running the experiment.
 */

#ifndef RECAP_QUERY_BATCH_HH_
#define RECAP_QUERY_BATCH_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "recap/query/oracle.hh"

namespace recap::query
{

/**
 * The flat snapshot core: snapshot-sharing evaluation of a batch of
 * step sequences against @p oracle. Sequence w is the steps
 * [ends[w - 1], ends[w]) (from 0 for w = 0) of @p blocks; step i is a
 * flush when @p flushes is non-empty and flushes[i] != 0 (its block
 * is then ignored), else an access. @p flushes is empty or holds one
 * flag per block; @p ends never falls and ends at blocks.size()
 * (UsageError otherwise). A sequence pays only for the trie nodes it
 * was the first to need: their access count goes to (*accesses)[w]
 * when @p accesses is non-null, and the sequence counts as one
 * experiment when it is non-zero. Prefixes are always shared;
 * opts.prefixSharing is not read (naive replay is the callers'
 * per-query path).
 *
 * @return per step, 1 for an access that hit, else 0
 */
std::vector<uint8_t>
batchEvaluateSnapshot(PolicyOracle& oracle,
                      std::span<const BlockId> blocks,
                      std::span<const uint8_t> flushes,
                      std::span<const uint32_t> ends,
                      const BatchOptions& opts = {},
                      BatchStats* stats = nullptr,
                      std::vector<uint64_t>* accesses = nullptr);

/**
 * Snapshot-sharing evaluation of @p queries against @p oracle: an
 * adapter over the flat core above. Verdict costs are marginal.
 */
std::vector<QueryVerdict>
batchEvaluateSnapshot(PolicyOracle& oracle,
                      const std::vector<CompiledQuery>& queries,
                      const BatchOptions& opts = {},
                      BatchStats* stats = nullptr);

/**
 * Replay-sharing evaluation of @p queries against @p oracle.
 * Experiments run in a deterministic order (unique segments,
 * longest first); verdict costs are marginal as above. BatchStats
 * naive-cost figures for segments that were never run are estimated
 * from the observation that covered them.
 */
std::vector<QueryVerdict>
batchEvaluateReplay(MachineOracle& oracle,
                    const std::vector<CompiledQuery>& queries,
                    const BatchOptions& opts = {},
                    BatchStats* stats = nullptr);

} // namespace recap::query

#endif // RECAP_QUERY_BATCH_HH_
