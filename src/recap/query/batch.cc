#include "recap/query/batch.hh"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"

namespace recap::query
{

namespace
{

/** One node of the snapshot trie (a distinct access prefix). */
struct SnapNode
{
    Step step;                       ///< probe flag ignored for keying
    std::vector<uint32_t> children;
    uint32_t owner = 0;              ///< query that inserted the node
    bool hit = false;                ///< outcome slot (access nodes)
};

bool
sameKey(const Step& a, const Step& b)
{
    return a.flush == b.flush && (a.flush || a.block == b.block);
}

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
 * Walks one root subtree with a live model, snapshotting at branch
 * points. Works for both SetModel (interpreted) and FastSetModel
 * (compiled); the path through the trie — and so every outcome —
 * is identical for both.
 */
template <typename Model>
void
walkSubtree(std::vector<SnapNode>& trie, uint32_t root, Model model)
{
    struct Branch
    {
        uint32_t node;
        Model model;
        std::size_t nextChild;
    };
    std::vector<Branch> pending;
    uint32_t current = root;
    for (;;) {
        SnapNode& node = trie[current];
        if (node.step.flush)
            model.flush();
        else
            node.hit = model.access(node.step.block);

        if (node.children.size() == 1) {
            current = node.children.front();
            continue;
        }
        if (node.children.size() > 1) {
            pending.push_back({current, std::move(model), 0});
        }
        // Leaf (or just pushed a branch): resume the deepest branch
        // that still has unexplored children.
        bool resumed = false;
        while (!pending.empty()) {
            Branch& branch = pending.back();
            const auto& kids = trie[branch.node].children;
            if (branch.nextChild < kids.size()) {
                current = kids[branch.nextChild++];
                if (branch.nextChild == kids.size()) {
                    // Last child: hand over the snapshot.
                    model = std::move(branch.model);
                    pending.pop_back();
                } else {
                    model = branch.model;
                }
                resumed = true;
                break;
            }
            pending.pop_back();
        }
        if (!resumed)
            return;
    }
}

} // namespace

std::vector<QueryVerdict>
batchEvaluateSnapshot(PolicyOracle& oracle,
                      const std::vector<CompiledQuery>& queries,
                      const BatchOptions& opts, BatchStats* stats)
{
    std::vector<SnapNode> trie;
    std::vector<uint32_t> roots;
    // nodeOfStep[q][i]: the trie node holding step i of query q.
    std::vector<std::vector<uint32_t>> nodeOfStep(queries.size());

    constexpr uint32_t kRoot = UINT32_MAX;
    // Child lists live inside trie nodes, which push_back relocates,
    // so the lists are always re-fetched through the parent index.
    auto childrenOf = [&](uint32_t parent) -> std::vector<uint32_t>& {
        return parent == kRoot ? roots : trie[parent].children;
    };
    auto findOrInsert = [&](uint32_t parent, const Step& step,
                            uint32_t query) -> uint32_t {
        for (uint32_t child : childrenOf(parent))
            if (sameKey(trie[child].step, step))
                return child;
        const auto id = static_cast<uint32_t>(trie.size());
        SnapNode node;
        node.step = step;
        node.owner = query;
        trie.push_back(std::move(node));
        childrenOf(parent).push_back(id);
        return id;
    };

    // The trie can never hold more nodes than the batch has steps,
    // so one up-front reservation pins every node (and every child
    // list) in place for the whole build.
    std::size_t totalSteps = 0;
    for (const CompiledQuery& q : queries)
        totalSteps += q.steps.size();
    trie.reserve(totalSteps);

    uint64_t naiveCost = 0;
    for (uint32_t q = 0; q < queries.size(); ++q) {
        uint32_t parent = kRoot;
        nodeOfStep[q].reserve(queries[q].steps.size());
        for (const Step& step : queries[q].steps) {
            parent = findOrInsert(parent, step, q);
            nodeOfStep[q].push_back(parent);
            if (!step.flush)
                ++naiveCost;
        }
    }

    // Walk each root subtree with a live model, snapshotting at
    // branch points. Subtrees are disjoint (node outcomes are written
    // exactly once, by their own subtree), so they run in parallel;
    // outcomes depend only on the path, never on scheduling. When the
    // policy compiles, the model is a plain-data FastSetModel and the
    // branch-point snapshots are memcpys instead of policy clones.
    const policy::CompiledTablePtr table = oracle.compiledTable();
    if (table && table->ways() <= kFastWays) {
        parallelFor(roots.size(), opts.numThreads, [&](std::size_t r) {
            walkSubtree(trie, roots[r], FastSetModel(*table));
        });
    } else {
        parallelFor(roots.size(), opts.numThreads, [&](std::size_t r) {
            walkSubtree(trie, roots[r], oracle.freshModel());
        });
    }

    uint64_t sharedCost = 0;
    for (const SnapNode& node : trie)
        if (!node.step.flush)
            ++sharedCost;

    std::vector<QueryVerdict> verdicts(queries.size());
    std::vector<uint64_t> ownedNodes(queries.size(), 0);
    for (const SnapNode& node : trie)
        if (!node.step.flush)
            ++ownedNodes[node.owner];
    for (uint32_t q = 0; q < queries.size(); ++q) {
        QueryVerdict& verdict = verdicts[q];
        verdict.accesses = ownedNodes[q];
        verdict.experiments = ownedNodes[q] > 0 ? 1 : 0;
        std::size_t probed = 0;
        for (const Step& step : queries[q].steps)
            probed += (!step.flush && step.probe) ? 1 : 0;
        verdict.probes.reserve(probed);
        for (uint32_t i = 0; i < queries[q].steps.size(); ++i) {
            const Step& step = queries[q].steps[i];
            if (step.flush || !step.probe)
                continue;
            const bool hit = trie[nodeOfStep[q][i]].hit;
            verdict.probes.push_back(
                {i, step.block, hit, hit ? 0u : 1u});
        }
    }

    uint64_t experimentsRun = 0;
    for (const QueryVerdict& v : verdicts)
        experimentsRun += v.experiments;
    oracle.account(experimentsRun, sharedCost);
    if (stats) {
        stats->queries += queries.size();
        stats->naiveCost += naiveCost;
        stats->sharedCost += sharedCost;
        stats->experimentsRun += experimentsRun;
        stats->experimentsSaved += queries.size() - experimentsRun;
        stats->prefixReuses += naiveCost - sharedCost;
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
