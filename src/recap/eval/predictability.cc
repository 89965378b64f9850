#include "recap/eval/predictability.hh"

#include <algorithm>
#include <vector>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/state_space.hh"

namespace recap::eval
{

namespace
{

using policy::BlockId;
using policy::ReplacementPolicy;
using policy::SetStates;

/** The compile budget of an exploration under @p cfg. */
policy::CompileBudget
budgetOf(const PredictabilityConfig& cfg)
{
    policy::CompileBudget budget;
    budget.maxStates = cfg.maxStates;
    return budget;
}

/**
 * @p explore on @p proto compiled within the exploration budget, else
 * on @p proto: CompiledPolicy's packs map one to one onto the source
 * policy's, so both give the same result.
 */
template <class Explore>
MetricResult
onCompiledOrSource(const ReplacementPolicy& proto,
                   const PredictabilityConfig& cfg, Explore explore)
{
    if (const auto table = policy::compilePolicy(proto, budgetOf(cfg)))
        return explore(policy::CompiledPolicy(table), cfg);
    return explore(proto, cfg);
}

MetricResult
missTurnoverImpl(const ReplacementPolicy& proto,
                 const PredictabilityConfig& cfg)
{
    // On a full set the contents are irrelevant up to renaming: inputs
    // are touch(w) and a miss. The turnover walks number states too,
    // so the BFS keeps its own frontier.
    const unsigned k = proto.ways();
    MetricResult result;
    policy::PolicyStates states(proto);
    states.policy().reset();
    for (unsigned w = 0; w < k; ++w)
        states.policy().fill(w);
    std::vector<uint32_t> frontier{states.intern()};
    // Per id: reached by the BFS; last turnover phase it was seen in.
    std::vector<bool> visited{true};
    std::vector<uint64_t> phaseOf{0};
    uint64_t phase = 0;
    const auto number = [&]() {
        const uint32_t id = states.intern();
        visited.resize(states.size(), false);
        phaseOf.resize(states.size(), 0);
        return id;
    };

    uint64_t worst = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
        if (++result.statesExplored > cfg.maxStates) {
            result.exhaustedBudget = true;
            return result;
        }

        // Turnover: consecutive misses until every way resident now
        // has been refilled. A state that recurs before another of
        // them is refilled is a cycle that never refills the rest.
        ReplacementPolicy& sim = states.load(frontier[head]);
        std::vector<bool> refilled(k, false);
        unsigned left = k;
        uint64_t count = 0;
        for (++phase; left != 0; ++count) {
            const uint32_t id = number();
            if (phaseOf[id] == phase) {
                result.unbounded = true;
                return result;
            }
            phaseOf[id] = phase;
            const policy::Way v = sim.victim();
            sim.fill(v);
            if (!refilled[v]) {
                refilled[v] = true;
                --left;
                ++phase;
            }
        }
        worst = std::max(worst, count);

        // Successors: touch(w) for each way, plus one filled miss.
        for (unsigned w = 0; w <= k; ++w) {
            ReplacementPolicy& next = states.load(frontier[head]);
            if (w < k)
                next.touch(w);
            else
                next.fill(next.victim());
            const uint32_t id = number();
            if (!visited[id]) {
                visited[id] = true;
                frontier.push_back(id);
            }
        }
    }
    result.value = worst;
    return result;
}

MetricResult
evictBoundImpl(const policy::ReplacementPolicy& proto,
               const PredictabilityConfig& cfg)
{
    const unsigned k = proto.ways();
    MetricResult result;
    constexpr BlockId kTarget = 0;

    struct Edge
    {
        uint32_t to;
        uint8_t weight; ///< 1 for a (surviving) miss, 0 for a hit
    };

    // Game states: the policy state plus the contents, renamed by
    // first occurrence with the target named apart. The roots: flush
    // and a sequential fill, with the target at every position.
    SetStates game({&proto}, {kTarget});
    for (unsigned t_pos = 0; t_pos < k; ++t_pos) {
        game.flush();
        BlockId other = 1;
        for (unsigned i = 0; i < k; ++i)
            game.access(0, i == t_pos ? kTarget : other++);
        game.intern(0, cfg.maxStates);
    }

    // The reachable game graph, ids in discovery order. The adversary
    // hits any resident but the target, or misses on a fresh block; a
    // miss that evicts the target ends the game and has no edge.
    std::vector<std::vector<Edge>> edges;
    for (uint32_t id = 0; id < game.size(); ++id) {
        ++result.statesExplored;
        edges.emplace_back();
        game.load(id);
        std::vector<BlockId> moves = game.blocks(0);
        moves.push_back(*std::max_element(moves.begin(), moves.end()) + 1);
        for (const BlockId b : moves) {
            if (b == kTarget)
                continue;
            game.load(id);
            const bool hit = game.access(0, b);
            const auto after = game.blocks(0);
            if (std::find(after.begin(), after.end(), kTarget) == after.end())
                continue;
            const uint32_t to = game.intern(b, cfg.maxStates);
            if (to == policy::StateIndex::kFull) {
                result.exhaustedBudget = true;
                return result;
            }
            edges[id].push_back({to, static_cast<uint8_t>(!hit)});
        }
    }

    // R_j: the states some play reaches after at least j misses (all
    // states for j = 0: the game was built from the roots). R_{j+1}
    // is everything reachable from a miss out of R_j, so the sets
    // shrink. They empty out after value + 1 steps, or stop shrinking
    // on a cycle through a miss, which the adversary repeats forever.
    const uint32_t n = game.size();
    std::vector<char> in(n, 1);
    uint32_t count = n;
    for (uint64_t j = 0;; ++j) {
        std::vector<char> next(n, 0);
        std::vector<uint32_t> stack;
        const auto reach = [&](uint32_t v) {
            if (!next[v]) {
                next[v] = 1;
                stack.push_back(v);
            }
        };
        for (uint32_t v = 0; v < n; ++v)
            for (const Edge& e : edges[v])
                if (in[v] && e.weight == 1)
                    reach(e.to);
        uint32_t nextCount = 0;
        while (!stack.empty()) {
            const uint32_t v = stack.back();
            stack.pop_back();
            ++nextCount;
            for (const Edge& e : edges[v])
                reach(e.to);
        }
        if (nextCount == 0) {
            result.value = j;
            return result;
        }
        if (nextCount == count) {
            result.unbounded = true;
            return result;
        }
        in.swap(next);
        count = nextCount;
    }
}

} // namespace

std::string
MetricResult::render() const
{
    if (unbounded)
        return "unbounded";
    if (exhaustedBudget)
        return ">budget";
    ensure(value.has_value(), "MetricResult: no value computed");
    return std::to_string(*value);
}

MetricResult
missTurnover(const policy::ReplacementPolicy& proto,
             const PredictabilityConfig& cfg)
{
    return onCompiledOrSource(proto, cfg, missTurnoverImpl);
}

MetricResult
evictBound(const policy::ReplacementPolicy& proto,
           const PredictabilityConfig& cfg)
{
    return onCompiledOrSource(proto, cfg, evictBoundImpl);
}

std::vector<PredictabilityRow>
predictabilitySweep(const std::vector<std::string>& specs,
                    const std::vector<unsigned>& waysList,
                    const PredictabilityConfig& cfg)
{
    std::vector<PredictabilityRow> rows;
    for (const auto& spec : specs)
        for (unsigned ways : waysList)
            if (policy::specSupportsWays(spec, ways))
                rows.push_back({spec, ways, {}, {}});

    // Each row explores its own automaton; explorations share nothing
    // and use no RNG, so the grid is identical for any thread count.
    // Both metrics run on one table from the process-wide memo, which
    // other analyses of the same spec have often filled already.
    parallelFor(rows.size(), cfg.numThreads, [&](std::size_t i) {
        PredictabilityRow& row = rows[i];
        if (const auto table = policy::compiledTableFor(
                row.spec, row.ways, budgetOf(cfg))) {
            const policy::CompiledPolicy compiled(table);
            row.turnover = missTurnoverImpl(compiled, cfg);
            row.evictBound = evictBoundImpl(compiled, cfg);
        } else {
            const auto proto = policy::makePolicy(row.spec, row.ways);
            row.turnover = missTurnoverImpl(*proto, cfg);
            row.evictBound = evictBoundImpl(*proto, cfg);
        }
    });
    return rows;
}

} // namespace recap::eval
