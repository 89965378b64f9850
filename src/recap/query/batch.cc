/**
 * @file
 * The flat batch entry of both backends: PolicyOracle::runFlat() and
 * MachineOracle::runFlat(), with and without prefix sharing.
 *
 * Without sharing every sequence replays on its own: a fresh SetModel
 * per sequence on the policy backend, one machine experiment batch
 * per flush-free segment on the machine backend. That is the naive
 * reference the sharing paths are diffed and costed against.
 *
 * A batch of structurally similar sequences (the shape every
 * reverse-engineering technique produces: "replay this prefix, then
 * probe") repeats enormous amounts of work when each one re-executes
 * from scratch. Both backends share that work through one trie over
 * access prefixes (dense node ids, first-child/next-sibling links,
 * one step-to-node array); what "sharing" means differs per backend,
 * because the backends have different physics:
 *
 *  - Snapshot sharing (PolicyOracle): every sequence is inserted from
 *    the root, flushes included, and the trie is walked once with a
 *    live set model; at branch points the automaton state is
 *    snapshotted and each subtree continues from the snapshot. A
 *    batch costs one access per DISTINCT prefix instead of one per
 *    step. Disjoint root subtrees evaluate in parallel on the common
 *    TaskPool; results are bit-identical for every thread count (and,
 *    for deterministic policies, to naive per-sequence replay).
 *
 *  - Replay sharing (MachineOracle): hardware state cannot be
 *    snapshotted, and observation is destructive — but one observed
 *    replay of a segment yields the outcome of EVERY position along
 *    it. Every flush-free segment is inserted from the root, so
 *    identical segments end on one node; the unique ones run
 *    longest-first, and any segment whose nodes an earlier replay
 *    already observed reads its outcomes from the trie instead of
 *    re-running the experiment.
 */

#include <algorithm>
#include <array>
#include <utility>

#include "recap/common/parallel.hh"
#include "recap/query/oracle.hh"

namespace recap::query
{

namespace
{

/** Associativity cap for the compiled snapshot walk. */
constexpr unsigned kFastWays = 16;

/**
 * Plain-data stand-in for policy::SetModel over a compiled table:
 * inline block array, integer policy state, fill cursor. Copying one
 * (the snapshot at a trie branch) is a memcpy instead of a policy
 * clone, and access() is two array lookups. Mirrors SetModel::access
 * exactly: fills take the lowest invalid way — always the fill
 * cursor, since only flush() ever invalidates — then the victim.
 */
class FastSetModel
{
  public:
    explicit FastSetModel(const policy::CompiledTable& table)
        : table_(&table)
    {}

    void flush()
    {
        state_ = 0;
        filled_ = 0;
    }

    bool access(BlockId block)
    {
        const unsigned k = table_->ways();
        const std::size_t row = std::size_t{state_} * k;
        for (unsigned w = 0; w < filled_; ++w) {
            if (blocks_[w] == block) {
                state_ = table_->touchData()[row + w];
                return true;
            }
        }
        unsigned way;
        if (filled_ < k)
            way = filled_++;
        else
            way = table_->victimData()[state_];
        blocks_[way] = block;
        state_ = table_->fillData()[row + way];
        return false;
    }

  private:
    const policy::CompiledTable* table_;
    std::array<BlockId, kFastWays> blocks_{};
    uint32_t state_ = 0;
    uint32_t filled_ = 0;
};

/**
 * One node of the prefix trie: a distinct step prefix, keyed by its
 * last step. Node 0 is the empty prefix (the flushed set); it is
 * nobody's child, so 0 also marks an absent link.
 */
struct TrieNode
{
    BlockId block = 0; ///< 0 for flush steps
    uint32_t firstChild = 0;
    uint32_t nextSibling = 0;
    bool flush = false;
};

constexpr uint32_t kNoNode = 0;

/**
 * The child of @p parent keyed by (@p flush, @p block), appended to
 * @p trie when absent.
 */
uint32_t
childOf(std::vector<TrieNode>& trie, uint32_t parent, bool flush,
        BlockId block)
{
    uint32_t last = kNoNode;
    uint32_t node = trie[parent].firstChild;
    while (node != kNoNode &&
           (trie[node].flush != flush || trie[node].block != block)) {
        last = node;
        node = trie[node].nextSibling;
    }
    if (node == kNoNode) {
        node = static_cast<uint32_t>(trie.size());
        trie.push_back({block, kNoNode, kNoNode, flush});
        (last == kNoNode ? trie[parent].firstChild
                         : trie[last].nextSibling) = node;
    }
    return node;
}

bool
isFlush(std::span<const uint8_t> flushes, std::size_t i)
{
    return !flushes.empty() && flushes[i] != 0;
}

/**
 * Calls @p fn(w, begin, end) for every maximal flush-free run
 * [begin, end) of every sequence w, in input order.
 */
template <typename Fn>
void
forEachSegment(std::span<const uint8_t> flushes,
               std::span<const uint32_t> ends, Fn&& fn)
{
    std::size_t i = 0;
    for (std::size_t w = 0; w < ends.size(); ++w) {
        while (i < ends[w]) {
            if (isFlush(flushes, i)) {
                ++i;
                continue;
            }
            const std::size_t begin = i;
            while (i < ends[w] && !isFlush(flushes, i))
                ++i;
            fn(w, begin, i);
        }
    }
}

/** Adds the costs of a batch replayed without sharing to @p stats. */
void
addUnsharedStats(const FlatAnswers& answers, BatchStats* stats)
{
    if (!stats)
        return;
    stats->queries += answers.accesses.size();
    for (std::size_t w = 0; w < answers.accesses.size(); ++w) {
        stats->naiveCost += answers.accesses[w];
        stats->sharedCost += answers.accesses[w];
        stats->experimentsRun += answers.experiments[w];
    }
}

/**
 * Walks the subtree of @p root with a live model, snapshotting at
 * branch points, and writes each access node's outcome to @p hit.
 * Works for both SetModel (interpreted) and FastSetModel (compiled);
 * the path through the trie, and so every outcome, is identical for
 * both.
 */
template <typename Model>
void
walkRoot(const std::vector<TrieNode>& trie, uint8_t* hit, uint32_t root,
         Model model)
{
    // Siblings still to visit, each with the model of their parent.
    std::vector<std::pair<uint32_t, Model>> pending;
    uint32_t node = root;
    for (;;) {
        const TrieNode& here = trie[node];
        if (here.flush)
            model.flush();
        else
            hit[node] = model.access(here.block);

        if (here.firstChild != kNoNode) {
            node = here.firstChild;
            if (trie[node].nextSibling != kNoNode)
                pending.emplace_back(trie[node].nextSibling, model);
            continue;
        }
        if (pending.empty())
            return;
        auto& [sibling, snapshot] = pending.back();
        node = sibling;
        sibling = trie[sibling].nextSibling;
        if (sibling == kNoNode) {
            // Last sibling: hand over the snapshot.
            model = std::move(snapshot);
            pending.pop_back();
        } else {
            model = snapshot;
        }
    }
}

} // namespace

FlatAnswers
PolicyOracle::runFlat(std::span<const BlockId> blocks,
                      std::span<const uint8_t> flushes,
                      std::span<const uint32_t> ends,
                      const BatchOptions& opts, BatchStats* stats)
{
    if (opts.prefixSharing) {
        checkpoint();
        return shareSnapshots(blocks, flushes, ends, opts, stats);
    }
    FlatAnswers answers{std::vector<PositionOutcome>(blocks.size()),
                        std::vector<uint64_t>(ends.size(), 1),
                        std::vector<uint64_t>(ends.size(), 0)};
    std::size_t i = 0;
    for (std::size_t w = 0; w < ends.size(); ++w) {
        checkpoint();
        policy::SetModel model = freshModel();
        for (; i < ends[w]; ++i) {
            if (isFlush(flushes, i)) {
                model.flush();
                continue;
            }
            const bool hit = model.access(blocks[i]);
            answers.outcomes[i] = {hit, true, hit ? 0u : 1u, 1.0};
            ++answers.accesses[w];
        }
        ++experiments_;
        accesses_ += answers.accesses[w];
    }
    addUnsharedStats(answers, stats);
    return answers;
}

FlatAnswers
PolicyOracle::shareSnapshots(std::span<const BlockId> blocks,
                             std::span<const uint8_t> flushes,
                             std::span<const uint32_t> ends,
                             const BatchOptions& opts, BatchStats* stats)
{
    // A sequence pays only for the access nodes it was the first to
    // need, and counts as one experiment when that is non-zero.
    FlatAnswers answers;
    answers.experiments.assign(ends.size(), 0);
    answers.accesses.assign(ends.size(), 0);
    uint64_t naiveCost = 0;
    uint64_t sharedCost = 0;
    uint64_t experimentsRun = 0;
    // Per step, 1 for an access that hit. The trie and its per-node
    // arrays are freed before the outcomes are laid out, so no two
    // per-step arrays wider than this one are ever alive together.
    std::vector<uint8_t> hits(blocks.size());
    {
        // The trie can never hold more nodes than the batch has
        // steps, plus the root, so one reservation serves the whole
        // build.
        std::vector<TrieNode> trie;
        trie.reserve(blocks.size() + 1);
        trie.emplace_back();
        std::vector<uint32_t> nodeOfStep(blocks.size());
        std::size_t i = 0;
        for (std::size_t w = 0; w < ends.size(); ++w) {
            uint64_t owned = 0;
            uint32_t node = 0; // the root
            for (; i < ends[w]; ++i) {
                const bool flush = isFlush(flushes, i);
                const std::size_t before = trie.size();
                node = childOf(trie, node, flush, flush ? 0 : blocks[i]);
                if (!flush) {
                    owned += trie.size() - before;
                    ++naiveCost;
                }
                nodeOfStep[i] = node;
            }
            sharedCost += owned;
            experimentsRun += owned > 0 ? 1 : 0;
            answers.accesses[w] = owned;
            answers.experiments[w] = owned > 0 ? 1 : 0;
        }

        // Walk each root subtree with a live model. Subtrees are
        // disjoint (each node's outcome is written once, by its own
        // subtree), so they run in parallel; outcomes depend only on
        // the path, never on scheduling. When the policy compiles,
        // the model is a plain-data FastSetModel and the branch-point
        // snapshots are memcpys instead of policy clones.
        std::vector<uint32_t> roots;
        for (uint32_t r = trie[0].firstChild; r != kNoNode;
             r = trie[r].nextSibling)
            roots.push_back(r);
        std::vector<uint8_t> hit(trie.size(), 0);
        const policy::CompiledTablePtr table = compiledTable();
        if (table && table->ways() <= kFastWays) {
            parallelFor(roots.size(), opts.numThreads, [&](std::size_t r) {
                walkRoot(trie, hit.data(), roots[r], FastSetModel(*table));
            });
        } else {
            parallelFor(roots.size(), opts.numThreads, [&](std::size_t r) {
                walkRoot(trie, hit.data(), roots[r], freshModel());
            });
        }
        for (std::size_t s = 0; s < blocks.size(); ++s)
            hits[s] = hit[nodeOfStep[s]];
    }

    answers.outcomes.resize(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (!isFlush(flushes, i))
            answers.outcomes[i] = {hits[i] != 0, true, hits[i] != 0 ? 0u : 1u,
                                   1.0};
    }

    experiments_ += experimentsRun;
    accesses_ += sharedCost;
    if (stats) {
        stats->queries += ends.size();
        stats->naiveCost += naiveCost;
        stats->sharedCost += sharedCost;
        stats->experimentsRun += experimentsRun;
        stats->experimentsSaved += ends.size() - experimentsRun;
        stats->prefixReuses += naiveCost - sharedCost;
    }
    return answers;
}

FlatAnswers
MachineOracle::runFlat(std::span<const BlockId> blocks,
                       std::span<const uint8_t> flushes,
                       std::span<const uint32_t> ends,
                       const BatchOptions& opts, BatchStats* stats)
{
    // The machine is one stateful device: always serial.
    if (opts.prefixSharing)
        return shareReplays(blocks, flushes, ends, stats);
    FlatAnswers answers{std::vector<PositionOutcome>(blocks.size()),
                        std::vector<uint64_t>(ends.size(), 0),
                        std::vector<uint64_t>(ends.size(), 0)};
    forEachSegment(flushes, ends, [&](std::size_t w, std::size_t begin,
                                      std::size_t end) {
        const uint64_t experimentsBefore = experiments_;
        const uint64_t accessesBefore = accesses_;
        const auto outcomes =
            observeSegment(blocks.subspan(begin, end - begin));
        std::copy(outcomes.begin(), outcomes.end(),
                  answers.outcomes.begin() + begin);
        answers.experiments[w] += experiments_ - experimentsBefore;
        answers.accesses[w] += accesses_ - accessesBefore;
    });
    addUnsharedStats(answers, stats);
    return answers;
}

FlatAnswers
MachineOracle::shareReplays(std::span<const BlockId> blocks,
                            std::span<const uint8_t> flushes,
                            std::span<const uint32_t> ends,
                            BatchStats* stats)
{
    // Insert every segment from the root, in input order. Identical
    // segments end on the same node, which names the unique segment;
    // unique segments are numbered in order of first appearance.
    struct Unique
    {
        std::size_t begin;  ///< first instance's first step
        std::size_t length;
        bool observed = false;
        uint64_t experiments = 0;
        uint64_t accesses = 0;
    };
    std::vector<Unique> unique;
    constexpr uint32_t kNone = UINT32_MAX;
    std::vector<TrieNode> trie;
    trie.reserve(blocks.size() + 1);
    trie.emplace_back();
    std::vector<uint32_t> uniqueAt; // per node: the segment ending there
    std::vector<uint32_t> nodeOfStep(blocks.size(), 0);
    forEachSegment(flushes, ends, [&](std::size_t, std::size_t begin,
                                      std::size_t end) {
        uint32_t node = 0;
        for (std::size_t i = begin; i < end; ++i) {
            node = childOf(trie, node, false, blocks[i]);
            nodeOfStep[i] = node;
        }
        uniqueAt.resize(trie.size(), kNone);
        if (uniqueAt[node] == kNone) {
            uniqueAt[node] = static_cast<uint32_t>(unique.size());
            unique.push_back({begin, end - begin});
        }
    });
    const auto segment = [&](const Unique& u) {
        return blocks.subspan(u.begin, u.length);
    };

    // Longest segments first, so shorter ones find their outcomes
    // already on the trie; ties break lexicographically for a
    // deterministic experiment order.
    std::vector<uint32_t> order(unique.size());
    for (uint32_t u = 0; u < order.size(); ++u)
        order[u] = u;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (unique[a].length != unique[b].length)
            return unique[a].length > unique[b].length;
        const auto sa = segment(unique[a]);
        const auto sb = segment(unique[b]);
        return std::lexicographical_compare(sa.begin(), sa.end(),
                                            sb.begin(), sb.end());
    });

    // The first observation of a node is the one it keeps.
    std::vector<PositionOutcome> seen(trie.size());
    std::vector<uint8_t> known(trie.size(), 0);
    for (const uint32_t u : order) {
        Unique& seg = unique[u];
        const uint32_t* path = nodeOfStep.data() + seg.begin;
        if (std::all_of(path, path + seg.length,
                        [&](uint32_t n) { return known[n] != 0; })) {
            if (stats)
                stats->prefixReuses += seg.length;
            continue;
        }
        const uint64_t experimentsBefore = experiments_;
        const uint64_t accessesBefore = accesses_;
        const auto outcomes = observeSegment(segment(seg));
        seg.observed = true;
        seg.experiments = experiments_ - experimentsBefore;
        seg.accesses = accesses_ - accessesBefore;
        for (std::size_t i = 0; i < seg.length; ++i) {
            if (!known[path[i]]) {
                known[path[i]] = 1;
                seen[path[i]] = outcomes[i];
            }
        }
    }

    // A segment's first instance costs its sequence what the
    // observation cost; later instances, in that sequence or another,
    // are free. The naive estimate charges every instance that cost;
    // segments never observed are costed pro rata from the first
    // observed one (the repeats and per-access routing overhead are
    // batch-wide constants).
    const auto ref = std::find_if(unique.begin(), unique.end(),
                                  [](const Unique& u) { return u.observed; });
    const uint64_t refAccesses = ref != unique.end() ? ref->accesses : 0;
    const uint64_t refExperiments =
        ref != unique.end() ? ref->experiments : 0;
    const std::size_t refLength = ref != unique.end() ? ref->length : 1;
    FlatAnswers answers{std::vector<PositionOutcome>(blocks.size()),
                        std::vector<uint64_t>(ends.size(), 0),
                        std::vector<uint64_t>(ends.size(), 0)};
    uint64_t estimatedNaiveCost = 0;
    uint64_t estimatedNaiveExperiments = 0;
    forEachSegment(flushes, ends, [&](std::size_t w, std::size_t begin,
                                      std::size_t end) {
        const Unique& seg = unique[uniqueAt[nodeOfStep[end - 1]]];
        if (seg.observed) {
            estimatedNaiveCost += seg.accesses;
            estimatedNaiveExperiments += seg.experiments;
            if (seg.begin == begin) {
                answers.experiments[w] += seg.experiments;
                answers.accesses[w] += seg.accesses;
            }
        } else {
            estimatedNaiveCost += refAccesses * seg.length / refLength;
            estimatedNaiveExperiments += refExperiments;
        }
        for (std::size_t i = begin; i < end; ++i)
            answers.outcomes[i] = seen[nodeOfStep[i]];
    });

    if (stats) {
        uint64_t actualExperiments = 0;
        uint64_t actualAccesses = 0;
        for (std::size_t w = 0; w < ends.size(); ++w) {
            actualExperiments += answers.experiments[w];
            actualAccesses += answers.accesses[w];
        }
        stats->queries += ends.size();
        stats->naiveCost += estimatedNaiveCost;
        stats->sharedCost += actualAccesses;
        stats->experimentsRun += actualExperiments;
        stats->experimentsSaved +=
            estimatedNaiveExperiments > actualExperiments
                ? estimatedNaiveExperiments - actualExperiments
                : 0;
    }
    return answers;
}

} // namespace recap::query
