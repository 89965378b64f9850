#include "recap/sec/evict_strategy.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <vector>

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/state_space.hh"

namespace recap::sec
{

namespace
{

constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();

/**
 * Predecessor lists in one array: the predecessors of node i are
 * items[start[i] .. start[i + 1]), in edge order.
 */
struct Preds
{
    std::vector<uint32_t> start;
    std::vector<uint32_t> items;

    std::span<const uint32_t> of(uint32_t i) const
    {
        return {items.data() + start[i], items.data() + start[i + 1]};
    }
};

/**
 * The preds of the graph whose node i has the out-edges
 * next[first[i] .. first[i + 1]), edge e of node i listed as
 * @p item(i, e). Within each list, items follow the order of i, then e.
 */
template <typename Item>
Preds
predsOf(std::span<const uint32_t> first, std::span<const uint32_t> next,
        Item item)
{
    const std::size_t n = first.size() - 1;
    Preds preds;
    preds.start.assign(n + 1, 0);
    for (const uint32_t t : next)
        ++preds.start[t + 1];
    for (std::size_t i = 0; i < n; ++i)
        preds.start[i + 1] += preds.start[i];
    // Fill each list through its start, which then reads the next
    // list's start; shifting the starts back restores them.
    preds.items.resize(next.size());
    for (std::size_t i = 0; i < n; ++i)
        for (uint32_t e = first[i]; e < first[i + 1]; ++e)
            preds.items[preds.start[next[e]]++] =
                item(static_cast<uint32_t>(i), e);
    for (std::size_t i = n; i > 0; --i)
        preds.start[i] = preds.start[i - 1];
    preds.start[0] = 0;
    return preds;
}

/**
 * Blind-tier analysis: for every full-set-reachable state s and
 * victim way w, the number of fresh-line misses until the conflict
 * stream evicts way w (kUnset when the miss chain cycles past w
 * forever). Misses are deterministic — each evicts victim(s) and
 * fills the same way — so for a fixed target way the chain is a
 * functional graph and all distances fall out of one reverse BFS.
 */
struct PureMissAnalysis
{
    std::vector<uint32_t> states; ///< full-set reachable
    std::vector<uint32_t> indexOf; ///< table state -> index, or kUnset
    std::vector<std::vector<uint32_t>> distByWay; ///< [way][stateIdx]
    bool unbounded = false;
    uint64_t maxLen = 0;
    uint64_t configsExplored = 0;
};

PureMissAnalysis
analyzePureMiss(const policy::CompiledTableView& view)
{
    const unsigned k = view.ways();
    PureMissAnalysis a;
    a.states = view.fullSetReachable();
    const auto n = static_cast<uint32_t>(a.states.size());
    a.indexOf.assign(view.numStates(), kUnset);
    for (uint32_t i = 0; i < n; ++i)
        a.indexOf[a.states[i]] = i;

    // The miss-chain successor s -> fill(s, victim(s)), as indices:
    // one edge per state.
    std::vector<uint32_t> succ(n);
    std::vector<uint32_t> first(std::size_t{n} + 1);
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t s = a.states[i];
        succ[i] = a.indexOf[view.fillNext(s, view.victim(s))];
        ensure(succ[i] != kUnset, "analyzePureMiss: miss leaves the set");
        first[i + 1] = i + 1;
    }
    const Preds preds =
        predsOf(first, succ, [](uint32_t i, uint32_t) { return i; });

    a.distByWay.assign(k, std::vector<uint32_t>(n, kUnset));
    std::vector<uint32_t> frontier;
    frontier.reserve(n);
    for (unsigned w = 0; w < k; ++w) {
        auto& dist = a.distByWay[w];
        frontier.clear();
        // A state whose next miss targets way w evicts the victim
        // there in exactly one access.
        for (uint32_t i = 0; i < n; ++i) {
            if (view.victim(a.states[i]) == w) {
                dist[i] = 1;
                frontier.push_back(i);
            }
        }
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const uint32_t i = frontier[head];
            ++a.configsExplored;
            for (const uint32_t p : preds.of(i)) {
                // A goal state's distance is 1 no matter where its
                // chain continues; only non-goal states inherit.
                if (dist[p] != kUnset)
                    continue;
                dist[p] = dist[i] + 1;
                frontier.push_back(p);
            }
        }
        for (uint32_t i = 0; i < n; ++i) {
            if (dist[i] == kUnset)
                a.unbounded = true;
            else
                a.maxLen = std::max<uint64_t>(a.maxLen, dist[i]);
        }
    }
    return a;
}

/**
 * Informed-tier product graph: configurations are (control state,
 * victim way, attacker-residency mask over the non-victim ways),
 * numbered in discovery order by a policy::StateIndex. Edges are
 * touches of resident attacker lines and one collapsed "miss with
 * any non-resident attacker line" edge; a miss whose victim way is
 * the target's way evicts the target (an edge to the goal). Built
 * forward from every (reachable state, victim way, empty mask) seed,
 * then distances to the goal are computed by reverse BFS — once per
 * line-pool cap m, since the cap only gates miss edges out of
 * configurations with popcount(mask) >= m.
 */
struct InformedGraph
{
    std::vector<uint8_t> lines;      ///< popcount(mask) per config
    Preds preds;                     ///< fromIdx<<1|isMiss
    std::vector<uint32_t> goalPreds; ///< fromIdx (always a miss)
    uint32_t numInitial = 0;         ///< seeds occupy indices [0, n)
    bool overBudget = false;
    uint64_t configsExplored = 0;
};

InformedGraph
buildInformedGraph(const policy::CompiledTableView& view,
                   const std::vector<uint32_t>& fullStates,
                   uint64_t maxConfigs)
{
    const unsigned k = view.ways();
    InformedGraph g;

    // The out-edges of config i are next[first[i] .. first[i + 1]):
    // touches of its lines[i] resident attacker lines, then the miss
    // unless its victim is the target's way. Configs are bounded by
    // the key space and by the budget, which the last explored config
    // can pass by its k successors, and a config has at most k edges.
    // Reserving that much, up to the default budget's worth, keeps
    // the arrays from growing by copies; reserved pages cost no
    // memory until they are written.
    std::vector<uint32_t> first;
    std::vector<uint32_t> next;
    {
        const uint64_t cap = std::min(maxConfigs, SecBudget{}.maxConfigs);
        const uint64_t perMask = uint64_t{view.numStates()} * k;
        const uint64_t bound =
            (perMask <= (cap >> k) ? perMask << k : cap) + k;
        first.reserve(bound + 1);
        g.lines.reserve(bound);
        next.reserve(bound * k);

        // A config is the two halves of ((state*k + vw) << k) | mask.
        policy::StateIndex index(2);
        const auto intern = [&](uint32_t state, unsigned vw,
                                uint32_t mask) -> uint32_t {
            const uint64_t key = ((uint64_t{state} * k + vw) << k) | mask;
            const uint32_t record[2] = {static_cast<uint32_t>(key),
                                        static_cast<uint32_t>(key >> 32)};
            const auto [id, fresh] = index.intern(record);
            if (fresh)
                g.lines.push_back(
                    static_cast<uint8_t>(std::popcount(mask)));
            return id;
        };

        // Seeds: every reachable full-set state with the victim in
        // every way and no attacker line resident yet — the
        // conservative "the attacker starts cold against an arbitrary
        // warm set" opening.
        for (const uint32_t s : fullStates)
            for (unsigned vw = 0; vw < k; ++vw)
                intern(s, vw, 0);
        g.numInitial = index.size();
        if (g.numInitial > maxConfigs) {
            g.overBudget = true;
            return g;
        }

        for (uint32_t at = 0; at < index.size(); ++at) {
            if (index.size() > maxConfigs) {
                g.overBudget = true;
                return g;
            }
            ++g.configsExplored;
            ensure(next.size() < kUnset,
                   "evictStrategy: 2^32 - 1 edges or more");
            first.push_back(static_cast<uint32_t>(next.size()));
            const auto record = index.record(at);
            const uint64_t key = record[0] | uint64_t{record[1]} << 32;
            const auto mask = static_cast<uint32_t>(key & ((1u << k) - 1));
            const auto packed = key >> k;
            const auto state = static_cast<uint32_t>(packed / k);
            const auto vw = static_cast<unsigned>(packed % k);

            // Touch any resident attacker line.
            for (unsigned w = 0; w < k; ++w) {
                if (!(mask & (1u << w)))
                    continue;
                next.push_back(intern(view.touchNext(state, w), vw, mask));
            }
            // Miss with a non-resident line (pool permitting — the cap
            // is applied during the distance pass, not here).
            const unsigned v = view.victim(state);
            if (v == vw)
                g.goalPreds.push_back(at);
            else
                next.push_back(intern(view.fillNext(state, v), vw,
                                      mask | (1u << v)));
        }
        first.push_back(static_cast<uint32_t>(next.size()));
    } // the index goes before the predecessors are built

    // An edge past the config's touches is its miss.
    g.preds = predsOf(first, next, [&](uint32_t i, uint32_t e) {
        return i << 1 | (e - first[i] == g.lines[i] ? 1u : 0u);
    });
    return g;
}

/**
 * Distances to the goal when the attacker owns @p poolSize lines.
 * Returns the max distance over the seed configurations, or kUnset
 * if some seed cannot reach the goal under this pool.
 */
uint64_t
informedWorstCase(const InformedGraph& g, unsigned poolSize,
                  uint64_t* explored)
{
    const auto missAllowed = [&](uint32_t from) {
        return g.lines[from] < poolSize;
    };

    std::vector<uint32_t> dist(g.lines.size(), kUnset);
    std::vector<uint32_t> frontier;
    for (const uint32_t from : g.goalPreds) {
        if (dist[from] == kUnset && missAllowed(from)) {
            dist[from] = 1;
            frontier.push_back(from);
        }
    }
    for (std::size_t head = 0; head < frontier.size(); ++head) {
        const uint32_t i = frontier[head];
        ++*explored;
        for (const uint32_t edge : g.preds.of(i)) {
            const uint32_t p = edge >> 1;
            if (dist[p] != kUnset)
                continue;
            if ((edge & 1u) && !missAllowed(p))
                continue;
            dist[p] = dist[i] + 1;
            frontier.push_back(p);
        }
    }

    uint64_t worst = 0;
    for (uint32_t i = 0; i < g.numInitial; ++i) {
        if (dist[i] == kUnset)
            return kUnset;
        worst = std::max<uint64_t>(worst, dist[i]);
    }
    return worst;
}

} // namespace

std::string
EvictStrategyResult::render() const
{
    const auto tier = [](SecOutcome o, bool unbounded, uint64_t len) {
        if (o == SecOutcome::kNotCompiled)
            return std::string("not-compiled");
        if (o == SecOutcome::kOverBudget)
            return std::string(">budget");
        return unbounded ? std::string("unbounded")
                         : std::to_string(len);
    };
    std::string out = "blind " +
                      tier(outcome, pureMissUnbounded, pureMissLen) +
                      ", informed " +
                      tier(informedOutcome, informedUnbounded,
                           informedLen);
    if (informedOutcome == SecOutcome::kComplete &&
        !informedUnbounded) {
        out += " (min " + std::to_string(informedMinLines) +
               " lines: " + std::to_string(informedLenAtMinLines) +
               ")";
    }
    return out;
}

EvictStrategyResult
evictStrategy(const policy::CompiledTableView& view,
              const SecBudget& budget)
{
    const unsigned k = view.ways();
    require(k >= 1 && k < 31, "evictStrategy: ways out of range");

    EvictStrategyResult result;
    const PureMissAnalysis pure = analyzePureMiss(view);
    result.outcome = SecOutcome::kComplete;
    result.pureMissUnbounded = pure.unbounded;
    result.pureMissLen = pure.maxLen;
    result.configsExplored = pure.configsExplored;

    const InformedGraph g = buildInformedGraph(
        view, pure.states, budget.maxConfigs);
    result.configsExplored += g.configsExplored;
    if (g.overBudget) {
        result.informedOutcome = SecOutcome::kOverBudget;
        return result;
    }
    result.informedOutcome = SecOutcome::kComplete;

    // Unlimited pool: with the victim resident, at most k - 1
    // attacker lines fit, so a pool of k lines never runs dry.
    const uint64_t unlimited =
        informedWorstCase(g, k, &result.configsExplored);
    if (unlimited == kUnset) {
        result.informedUnbounded = true;
        return result;
    }
    result.informedLen = unlimited;

    for (unsigned m = 1; m <= k; ++m) {
        const uint64_t len =
            informedWorstCase(g, m, &result.configsExplored);
        if (len != kUnset) {
            result.informedMinLines = m;
            result.informedLenAtMinLines = len;
            break;
        }
    }
    ensure(result.informedMinLines >= 1,
           "evictStrategy: full pool feasible but no minimal pool");
    return result;
}

EvictCrossCheck
crossCheckEvictBound(const std::string& spec, unsigned ways,
                     const SecBudget& budget,
                     const eval::PredictabilityConfig& predCfg)
{
    EvictCrossCheck check;
    const auto view = viewForSpec(spec, ways, budget);
    if (!view)
        return check; // not applicable: no table to search over

    const auto proto = policy::makePolicy(spec, ways);
    const eval::MetricResult bound = eval::evictBound(*proto, predCfg);
    const EvictStrategyResult strat = evictStrategy(*view, budget);
    if (strat.outcome != SecOutcome::kComplete)
        return check;
    check.applicable = true;

    // Wherever both tiers completed, the informed optimum is a
    // refinement of the blind strategy and can never be worse.
    if (strat.informedOutcome == SecOutcome::kComplete &&
        !strat.informedUnbounded && !strat.pureMissUnbounded &&
        strat.informedLen > strat.pureMissLen) {
        check.consistent = false;
        check.detail = spec + "@" + std::to_string(ways) +
                       ": informed length " +
                       std::to_string(strat.informedLen) +
                       " exceeds blind length " +
                       std::to_string(strat.pureMissLen);
        return check;
    }

    // A finite survival bound B means no adversary keeps a line
    // resident past B misses, so the blind stream must finish every
    // canonical-fill configuration within B + 1 misses.
    if (!bound.value.has_value())
        return check; // unbounded or >budget: no finite constraint
    const uint64_t b = *bound.value;

    const PureMissAnalysis pure = analyzePureMiss(*view);
    const uint32_t filled = view->filledState();
    const uint32_t idx = pure.indexOf[filled];
    ensure(idx != kUnset, "crossCheckEvictBound: prime state unreachable");
    for (unsigned w = 0; w < ways; ++w) {
        const uint32_t d = pure.distByWay[w][idx];
        if (d == kUnset || d > b + 1) {
            check.consistent = false;
            check.detail =
                spec + "@" + std::to_string(ways) +
                ": canonical victim at way " + std::to_string(w) +
                " needs " +
                (d == kUnset ? std::string("unbounded")
                             : std::to_string(d)) +
                " blind misses, but evictBound " +
                std::to_string(b) + " admits at most " +
                std::to_string(b + 1);
            return check;
        }
    }
    return check;
}

} // namespace recap::sec
