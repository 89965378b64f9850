#include "recap/sec/stealth.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "recap/common/error.hh"
#include "recap/policy/state_space.hh"

namespace recap::sec
{

namespace
{

constexpr uint32_t kUnset = UINT32_MAX;

struct CycleSearch
{
    bool found = false;
    uint64_t length = 0;
    std::vector<policy::Way> word;
};

/**
 * The pair-BFS nodes (idle-branch state, active-branch state, phase)
 * in discovery order, each with its parent id and probed way; kept
 * across start states so each search reuses the buffers.
 */
struct CycleNodes
{
    policy::StateIndex index{2}; ///< state0, state1 * 2 + restored
    std::vector<uint32_t> parent;
    std::vector<uint8_t> way;
};

/**
 * Shortest probe word closing a stealthy cycle at @p s0, or not
 * found. @p explored counts nodes globally; the search aborts once
 * it crosses @p maxConfigs (caller reports over-budget).
 */
CycleSearch
shortestCycleAt(const policy::CompiledTableView& view, uint32_t s0,
                uint64_t maxConfigs, uint64_t* explored,
                CycleNodes& nodes)
{
    const unsigned k = view.ways();
    const policy::Way vstar = view.victim(s0);

    CycleSearch result;
    nodes.index.clear();
    nodes.parent.clear();
    nodes.way.clear();
    const auto intern = [&](uint32_t state0, uint32_t state1,
                            unsigned restored) {
        const uint32_t record[2] = {state0, state1 * 2 + restored};
        return nodes.index.intern(record);
    };

    // The start node is id 0 and its own parent.
    intern(s0, view.fillNext(s0, vstar), 0);
    nodes.parent.push_back(0);
    nodes.way.push_back(0);

    for (uint32_t at = 0; at < nodes.index.size(); ++at) {
        if (++*explored > maxConfigs)
            return result;

        const auto record = nodes.index.record(at);
        const uint32_t state0 = record[0];
        const uint32_t state1 = record[1] >> 1;
        const unsigned restored = record[1] & 1;

        for (unsigned w = 0; w < k; ++w) {
            // Idle branch: the set is entirely attacker-owned, so
            // every probe access hits.
            const uint32_t next0 = view.touchNext(state0, w);
            uint32_t next1;
            unsigned nextRestored = restored;
            if (!restored && w == vstar) {
                // Re-loading the displaced line is a miss in the
                // active branch; stealth demands it evict the
                // victim's line, never an attacker line.
                if (view.victim(state1) != vstar)
                    continue;
                next1 = view.fillNext(state1, vstar);
                nextRestored = 1;
            } else {
                next1 = view.touchNext(state1, w);
            }
            const auto [next, fresh] =
                intern(next0, next1, nextRestored);
            if (!fresh)
                continue;
            nodes.parent.push_back(at);
            nodes.way.push_back(static_cast<uint8_t>(w));
            if (next0 == s0 && next1 == s0 && nextRestored == 1) {
                // Reconstruct the probe word back to the start.
                result.found = true;
                for (uint32_t node = next; node != 0;
                     node = nodes.parent[node])
                    result.word.push_back(nodes.way[node]);
                std::reverse(result.word.begin(),
                             result.word.end());
                result.length = result.word.size();
                return result;
            }
        }
    }
    return result;
}

} // namespace

std::string
StealthResult::render() const
{
    if (outcome == SecOutcome::kNotCompiled)
        return "not-compiled";
    if (outcome == SecOutcome::kOverBudget)
        return feasible ? "yes (probe " + std::to_string(probeLen) +
                              ", >budget)"
                        : ">budget";
    if (!feasible)
        return "no";
    return "yes (probe " + std::to_string(probeLen) + ", prep " +
           std::to_string(prepLen) + ")";
}

StealthResult
stealthProbe(const policy::CompiledTableView& view,
             const SecBudget& budget)
{
    const unsigned k = view.ways();
    StealthResult result;
    result.outcome = SecOutcome::kComplete;

    // Start states the attacker can prepare: BFS from the canonical
    // prime over touches and self-conflict misses, with the BFS
    // depth as the preparation cost.
    require(view.numStates() <= UINT32_MAX / 2,
            "stealthProbe: too many states");
    std::vector<uint32_t> prepDist(view.numStates(), kUnset);
    const uint32_t prime = view.filledState();
    prepDist[prime] = 0;
    std::vector<uint32_t> startOrder{prime};
    for (std::size_t head = 0; head < startOrder.size(); ++head) {
        const uint32_t s = startOrder[head];
        const auto push = [&](uint32_t next) {
            if (prepDist[next] == kUnset) {
                prepDist[next] = prepDist[s] + 1;
                startOrder.push_back(next);
            }
        };
        for (unsigned w = 0; w < k; ++w)
            push(view.touchNext(s, w));
        push(view.fillNext(s, view.victim(s)));
    }

    // Pair-BFS per candidate start, cheapest preparation first;
    // keep the lexicographically best (probe length, prep length).
    bool exhausted = false;
    CycleNodes nodes;
    for (const uint32_t s0 : startOrder) {
        if (result.configsExplored >= budget.maxConfigs) {
            exhausted = true;
            break;
        }
        const CycleSearch cycle =
            shortestCycleAt(view, s0, budget.maxConfigs,
                            &result.configsExplored, nodes);
        if (result.configsExplored > budget.maxConfigs)
            exhausted = true;
        if (!cycle.found)
            continue;
        const uint64_t prep = prepDist[s0];
        if (!result.feasible || cycle.length < result.probeLen ||
            (cycle.length == result.probeLen &&
             prep < result.prepLen)) {
            result.feasible = true;
            result.probeLen = cycle.length;
            result.prepLen = prep;
            result.probe = cycle.word;
            result.monitoredWay = view.victim(s0);
        }
    }
    if (exhausted)
        result.outcome = SecOutcome::kOverBudget;
    return result;
}

} // namespace recap::sec
