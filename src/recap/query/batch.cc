#include "recap/query/batch.hh"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <utility>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"

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
 * One node of the snapshot trie: a distinct step prefix, keyed by its
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

std::vector<uint8_t>
batchEvaluateSnapshot(PolicyOracle& oracle,
                      std::span<const BlockId> blocks,
                      std::span<const uint8_t> flushes,
                      std::span<const uint32_t> ends,
                      const BatchOptions& opts, BatchStats* stats,
                      std::vector<uint64_t>* accesses)
{
    ensure(blocks.size() < UINT32_MAX,
           "batchEvaluateSnapshot: 2^32 - 1 steps or more");
    require(flushes.empty() || flushes.size() == blocks.size(),
            "batchEvaluateSnapshot: one flush flag per step");
    std::size_t covered = 0;
    for (const uint32_t end : ends) {
        require(end >= covered,
                "batchEvaluateSnapshot: sequence ends fall");
        covered = end;
    }
    require(covered == blocks.size(),
            "batchEvaluateSnapshot: sequence ends must end at the step "
            "count");

    // The trie can never hold more nodes than the batch has steps,
    // plus the root, so one reservation serves the whole build.
    std::vector<TrieNode> trie;
    trie.reserve(blocks.size() + 1);
    trie.emplace_back();
    std::vector<uint32_t> nodeOfStep(blocks.size());
    if (accesses)
        accesses->assign(ends.size(), 0);

    const auto isFlush = [&](std::size_t i) {
        return !flushes.empty() && flushes[i] != 0;
    };
    uint64_t naiveCost = 0;
    uint64_t sharedCost = 0;
    uint64_t experimentsRun = 0;
    std::size_t i = 0;
    for (std::size_t w = 0; w < ends.size(); ++w) {
        // The sequence's marginal cost: the access nodes it inserted.
        uint64_t owned = 0;
        uint32_t parent = 0; // the root
        for (; i < ends[w]; ++i) {
            const bool flush = isFlush(i);
            const BlockId block = flush ? 0 : blocks[i];
            uint32_t last = kNoNode;
            uint32_t node = trie[parent].firstChild;
            while (node != kNoNode && (trie[node].flush != flush ||
                                       trie[node].block != block)) {
                last = node;
                node = trie[node].nextSibling;
            }
            if (node == kNoNode) {
                node = static_cast<uint32_t>(trie.size());
                trie.push_back({block, kNoNode, kNoNode, flush});
                (last == kNoNode ? trie[parent].firstChild
                                 : trie[last].nextSibling) = node;
                owned += flush ? 0 : 1;
            }
            nodeOfStep[i] = node;
            parent = node;
            naiveCost += flush ? 0 : 1;
        }
        sharedCost += owned;
        experimentsRun += owned > 0 ? 1 : 0;
        if (accesses)
            (*accesses)[w] = owned;
    }

    // Walk each root subtree with a live model. Subtrees are disjoint
    // (each node's outcome is written once, by its own subtree), so
    // they run in parallel; outcomes depend only on the path, never
    // on scheduling. When the policy compiles, the model is a
    // plain-data FastSetModel and the branch-point snapshots are
    // memcpys instead of policy clones.
    std::vector<uint32_t> roots;
    for (uint32_t r = trie[0].firstChild; r != kNoNode;
         r = trie[r].nextSibling)
        roots.push_back(r);
    std::vector<uint8_t> hit(trie.size(), 0);
    const policy::CompiledTablePtr table = oracle.compiledTable();
    if (table && table->ways() <= kFastWays) {
        parallelFor(roots.size(), opts.numThreads, [&](std::size_t r) {
            walkRoot(trie, hit.data(), roots[r], FastSetModel(*table));
        });
    } else {
        parallelFor(roots.size(), opts.numThreads, [&](std::size_t r) {
            walkRoot(trie, hit.data(), roots[r], oracle.freshModel());
        });
    }

    std::vector<uint8_t> hits(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i)
        hits[i] = hit[nodeOfStep[i]];

    oracle.account(experimentsRun, sharedCost);
    if (stats) {
        stats->queries += ends.size();
        stats->naiveCost += naiveCost;
        stats->sharedCost += sharedCost;
        stats->experimentsRun += experimentsRun;
        stats->experimentsSaved += ends.size() - experimentsRun;
        stats->prefixReuses += naiveCost - sharedCost;
    }
    return hits;
}

std::vector<QueryVerdict>
batchEvaluateSnapshot(PolicyOracle& oracle,
                      const std::vector<CompiledQuery>& queries,
                      const BatchOptions& opts, BatchStats* stats)
{
    std::vector<BlockId> blocks;
    std::vector<uint8_t> flushes;
    std::vector<uint32_t> ends;
    std::size_t steps = 0;
    for (const CompiledQuery& q : queries)
        steps += q.steps.size();
    blocks.reserve(steps);
    flushes.reserve(steps);
    ends.reserve(queries.size());
    for (const CompiledQuery& q : queries) {
        for (const Step& step : q.steps) {
            blocks.push_back(step.block);
            flushes.push_back(step.flush ? 1 : 0);
        }
        ends.push_back(static_cast<uint32_t>(blocks.size()));
    }
    std::vector<uint64_t> accesses;
    const std::vector<uint8_t> hits = batchEvaluateSnapshot(
        oracle, blocks, flushes, ends, opts, stats, &accesses);

    std::vector<QueryVerdict> verdicts(queries.size());
    std::size_t begin = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        QueryVerdict& verdict = verdicts[q];
        verdict.accesses = accesses[q];
        verdict.experiments = accesses[q] > 0 ? 1 : 0;
        verdict.probes.reserve(queries[q].probeCount());
        for (uint32_t i = 0; i < queries[q].steps.size(); ++i) {
            const Step& step = queries[q].steps[i];
            if (step.flush || !step.probe)
                continue;
            const bool hit = hits[begin + i] != 0;
            verdict.probes.push_back(
                {i, step.block, hit, hit ? 0u : 1u});
        }
        begin = ends[q];
    }
    return verdicts;
}

namespace
{

/** One node of the machine-side observed-outcome trie. */
struct ObsNode
{
    std::unordered_map<BlockId, uint32_t> children;
    bool known = false;
    bool hit = false;
    unsigned level = 0;
    double confidence = 1.0;
    bool determined = true;
};

} // namespace

std::vector<QueryVerdict>
batchEvaluateReplay(MachineOracle& oracle,
                    const std::vector<CompiledQuery>& queries,
                    const BatchOptions& opts, BatchStats* stats)
{
    (void)opts; // the machine is one stateful device: always serial

    // Unique segments across the whole batch, and each query's
    // segment-instance list.
    std::map<std::vector<BlockId>, uint32_t> segId;
    std::vector<std::vector<BlockId>> segBlocks;
    std::vector<uint32_t> segFirstQuery;
    struct Instance
    {
        uint32_t seg;
        std::vector<uint32_t> stepIndex;
    };
    std::vector<std::vector<Instance>> instances(queries.size());

    // Upper bounds known before the split: a query yields at most
    // (flush count + 1) segments, and the outcome trie at most one
    // node per non-flush step (plus the root).
    std::size_t segmentBound = 0;
    std::size_t accessBound = 0;
    for (const CompiledQuery& q : queries) {
        std::size_t flushes = 0;
        for (const Step& step : q.steps)
            flushes += step.flush ? 1 : 0;
        segmentBound += flushes + 1;
        accessBound += q.steps.size() - flushes;
    }
    segBlocks.reserve(segmentBound);
    segFirstQuery.reserve(segmentBound);

    for (uint32_t q = 0; q < queries.size(); ++q) {
        auto segments = splitSegments(queries[q]);
        instances[q].reserve(segments.size());
        for (Segment& segment : segments) {
            auto [it, inserted] = segId.try_emplace(
                segment.blocks,
                static_cast<uint32_t>(segBlocks.size()));
            if (inserted) {
                segBlocks.push_back(segment.blocks);
                segFirstQuery.push_back(q);
            }
            instances[q].push_back(
                {it->second, std::move(segment.stepIndex)});
        }
    }

    // Longest segments first, so shorter ones find their outcomes
    // already on the trie; ties break lexicographically for a
    // deterministic experiment order.
    std::vector<uint32_t> order(segBlocks.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) {
                  if (segBlocks[a].size() != segBlocks[b].size())
                      return segBlocks[a].size() > segBlocks[b].size();
                  return segBlocks[a] < segBlocks[b];
              });

    std::vector<ObsNode> trie; // node 0 = root (flushed state)
    trie.reserve(accessBound + 1);
    trie.emplace_back();
    // Per unique segment: its outcome nodes and its marginal cost.
    std::vector<std::vector<uint32_t>> segPath(segBlocks.size());
    std::vector<uint64_t> segExperiments(segBlocks.size(), 0);
    std::vector<uint64_t> segAccesses(segBlocks.size(), 0);
    std::vector<bool> segObserved(segBlocks.size(), false);

    uint64_t estimatedNaiveCost = 0;
    uint64_t estimatedNaiveExperiments = 0;

    for (uint32_t seg : order) {
        const std::vector<BlockId>& blocks = segBlocks[seg];
        std::vector<uint32_t>& path = segPath[seg];
        path.reserve(blocks.size());
        uint32_t node = 0;
        bool covered = true;
        for (BlockId block : blocks) {
            uint32_t child;
            const auto it = trie[node].children.find(block);
            if (it != trie[node].children.end()) {
                child = it->second;
            } else {
                child = static_cast<uint32_t>(trie.size());
                trie.push_back(ObsNode{});
                trie[node].children.emplace(block, child);
            }
            node = child;
            covered = covered && trie[node].known;
            path.push_back(node);
        }
        if (!covered) {
            const uint64_t expBefore = oracle.experimentsRun();
            const uint64_t accBefore = oracle.accessesIssued();
            const auto outcomes = oracle.observeSegment(blocks);
            segExperiments[seg] =
                oracle.experimentsRun() - expBefore;
            segAccesses[seg] = oracle.accessesIssued() - accBefore;
            segObserved[seg] = true;
            for (std::size_t i = 0; i < blocks.size(); ++i) {
                ObsNode& slot = trie[path[i]];
                if (!slot.known) {
                    slot.known = true;
                    slot.hit = outcomes[i].hit;
                    slot.level = outcomes[i].level;
                    slot.confidence = outcomes[i].confidence;
                    slot.determined = outcomes[i].determined;
                }
            }
        } else if (stats) {
            stats->prefixReuses += blocks.size();
        }
    }

    // Naive-cost estimate: every instance of a segment would have
    // paid that segment's observed cost; segments never observed are
    // costed pro rata from the first observed segment (the repeats
    // and per-access routing overhead are batch-wide constants).
    uint64_t refAccesses = 0;
    uint64_t refExperiments = 0;
    std::size_t refLength = 1;
    for (uint32_t seg = 0; seg < segBlocks.size(); ++seg) {
        if (segObserved[seg] && !segBlocks[seg].empty()) {
            refAccesses = segAccesses[seg];
            refExperiments = segExperiments[seg];
            refLength = segBlocks[seg].size();
            break;
        }
    }
    for (uint32_t q = 0; q < queries.size(); ++q) {
        for (const Instance& inst : instances[q]) {
            const uint32_t seg = inst.seg;
            if (segObserved[seg]) {
                estimatedNaiveCost += segAccesses[seg];
                estimatedNaiveExperiments += segExperiments[seg];
            } else {
                estimatedNaiveCost += refAccesses *
                                      segBlocks[seg].size() /
                                      refLength;
                estimatedNaiveExperiments += refExperiments;
            }
        }
    }

    std::vector<QueryVerdict> verdicts(queries.size());
    uint64_t actualExperiments = 0;
    uint64_t actualAccesses = 0;
    for (uint32_t q = 0; q < queries.size(); ++q) {
        QueryVerdict& verdict = verdicts[q];
        for (const Instance& inst : instances[q]) {
            const uint32_t seg = inst.seg;
            if (segObserved[seg] && segFirstQuery[seg] == q) {
                verdict.experiments += segExperiments[seg];
                verdict.accesses += segAccesses[seg];
            }
            const auto& path = segPath[seg];
            for (std::size_t i = 0; i < path.size(); ++i) {
                const uint32_t step = inst.stepIndex[i];
                if (!queries[q].steps[step].probe)
                    continue;
                const ObsNode& slot = trie[path[i]];
                ensure(slot.known,
                       "batchEvaluateReplay: unobserved position");
                verdict.probes.push_back(
                    {step, segBlocks[seg][i], slot.hit, slot.level,
                     slot.confidence, slot.determined});
            }
        }
        std::sort(verdict.probes.begin(), verdict.probes.end(),
                  [](const ProbeOutcome& a, const ProbeOutcome& b) {
                      return a.step < b.step;
                  });
        actualExperiments += verdict.experiments;
        actualAccesses += verdict.accesses;
    }

    if (stats) {
        stats->queries += queries.size();
        stats->naiveCost += estimatedNaiveCost;
        stats->sharedCost += actualAccesses;
        stats->experimentsRun += actualExperiments;
        stats->experimentsSaved +=
            estimatedNaiveExperiments > actualExperiments
                ? estimatedNaiveExperiments - actualExperiments
                : 0;
    }
    return verdicts;
}

} // namespace recap::query
