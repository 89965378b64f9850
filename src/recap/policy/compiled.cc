#include "recap/policy/compiled.hh"

#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{

namespace
{

/** Hard cap keeping victim_ entries in 16 bits. */
constexpr unsigned kMaxCompiledWays = 1u << 15;

} // namespace

CompiledTablePtr
compilePolicy(const ReplacementPolicy& proto,
              const CompileBudget& budget)
{
    const unsigned k = proto.ways();
    if (k == 0 || k > kMaxCompiledWays || budget.maxStates == 0)
        return nullptr;
    // Meta-consuming policies (SHiP, EAF) are not functions of the
    // way-index input alphabet alone — a table compiled from
    // touch/fill transitions would silently diverge from the
    // interpreted automaton the moment a driver publishes metadata.
    if (proto.usesMeta())
        return nullptr;

    // Bytes one state costs across the three tables plus its key
    // (keys are bounded below by the key length of the initial
    // state; policies with per-state key growth are caught by the
    // running estimate as states are interned).
    const auto tableBytes = [&](uint64_t states, uint64_t keyBytes) {
        return states * (uint64_t{2} * k * sizeof(uint32_t) +
                         sizeof(uint16_t)) +
               keyBytes;
    };

    auto table = std::make_shared<CompiledTable>();
    table->ways_ = k;
    table->policyName_ = proto.name();

    // BFS over stateKey-canonical control states. Two states with
    // equal keys must behave identically (the documented
    // ReplacementPolicy contract), so interning by key yields the
    // exact reachable quotient automaton.
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<PolicyPtr> states;
    uint64_t keyBytes = 0;

    PolicyPtr initial = proto.clone();
    initial->reset();
    {
        std::string key = initial->stateKey();
        keyBytes += key.size();
        ids.emplace(std::move(key), 0);
    }
    states.push_back(std::move(initial));

    const auto intern = [&](PolicyPtr&& succ) -> uint32_t {
        std::string key = succ->stateKey();
        const auto it = ids.find(key);
        if (it != ids.end())
            return it->second;
        const auto id = static_cast<uint32_t>(states.size());
        keyBytes += key.size();
        ids.emplace(std::move(key), id);
        states.push_back(std::move(succ));
        return id;
    };

    for (uint32_t at = 0; at < states.size(); ++at) {
        if (states.size() > budget.maxStates ||
            tableBytes(states.size(), keyBytes) >
                budget.maxTableBytes) {
            return nullptr;
        }
        for (unsigned w = 0; w < k; ++w) {
            PolicyPtr succ = states[at]->clone();
            succ->touch(w);
            table->touchNext_.push_back(intern(std::move(succ)));
        }
        for (unsigned w = 0; w < k; ++w) {
            PolicyPtr succ = states[at]->clone();
            succ->fill(w);
            table->fillNext_.push_back(intern(std::move(succ)));
        }
    }

    const auto n = static_cast<uint32_t>(states.size());
    table->numStates_ = n;
    table->victim_.reserve(n);
    table->keys_.resize(n);
    for (uint32_t s = 0; s < n; ++s) {
        const Way v = states[s]->victim();
        ensure(v < k, "compilePolicy: victim out of range");
        table->victim_.push_back(static_cast<uint16_t>(v));
        table->keys_[s] = states[s]->stateKey();
    }
    // The BFS loop appended one row per expanded state; rows for
    // states interned after their own expansion never run, so the
    // tables are complete exactly when every state was expanded.
    ensure(table->touchNext_.size() ==
               static_cast<std::size_t>(n) * k,
           "compilePolicy: incomplete transition table");

    // Narrow mirrors for the batch kernels (see CompiledTable::narrow).
    if (n <= (uint64_t{1} << 16)) {
        table->touchNext16_.assign(table->touchNext_.begin(),
                                   table->touchNext_.end());
        table->fillNext16_.assign(table->fillNext_.begin(),
                                  table->fillNext_.end());
    }
    return table;
}

CompiledTableView::CompiledTableView(CompiledTablePtr table)
    : table_(std::move(table))
{
    require(table_ != nullptr,
            "CompiledTableView: table must not be null");
}

uint32_t
CompiledTableView::filledState() const
{
    uint32_t state = 0;
    for (unsigned w = 0; w < ways(); ++w)
        state = table_->fillNext(state, w);
    return state;
}

std::vector<uint32_t>
CompiledTableView::fullSetReachable() const
{
    const unsigned k = ways();
    std::vector<bool> visited(numStates(), false);
    std::vector<uint32_t> order;
    std::deque<uint32_t> frontier;
    const uint32_t start = filledState();
    visited[start] = true;
    frontier.push_back(start);
    while (!frontier.empty()) {
        const uint32_t state = frontier.front();
        frontier.pop_front();
        order.push_back(state);
        const auto push = [&](uint32_t next) {
            if (!visited[next]) {
                visited[next] = true;
                frontier.push_back(next);
            }
        };
        for (unsigned w = 0; w < k; ++w)
            push(table_->touchNext(state, w));
        push(table_->fillNext(state, table_->victim(state)));
    }
    return order;
}

CompiledTablePtr
compiledTableFor(const std::string& spec, unsigned ways,
                 const CompileBudget& budget)
{
    // Negative results are cached too: an over-budget enumeration is
    // the expensive case, and sweeps ask for the same (spec, ways)
    // once per grid cell.
    struct CacheEntry
    {
        bool attempted = false;
        CompiledTablePtr table;
    };
    static std::mutex mutex;
    static std::unordered_map<std::string, CacheEntry> cache;

    const std::string key = spec + "|" + std::to_string(ways) + "|" +
                            std::to_string(budget.maxStates) + "|" +
                            std::to_string(budget.maxTableBytes);
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end() && it->second.attempted)
            return it->second.table;
    }

    // Compile outside the lock (enumerations can take a while and
    // must not serialize unrelated lookups). A racing duplicate
    // compilation is harmless: both produce identical tables and one
    // wins the cache slot.
    CompiledTablePtr table;
    if (isKnownPolicySpec(spec) && specSupportsWays(spec, ways))
        table = compilePolicy(*makePolicy(spec, ways), budget);

    std::lock_guard<std::mutex> lock(mutex);
    CacheEntry& entry = cache[key];
    if (!entry.attempted) {
        entry.attempted = true;
        entry.table = table;
    }
    return entry.table;
}

CompiledPolicy::CompiledPolicy(CompiledTablePtr table)
    : ReplacementPolicy(table ? table->ways() : 1),
      table_(std::move(table))
{
    require(table_ != nullptr,
            "CompiledPolicy: table must not be null");
}

PolicyPtr
makeCompiledOrFallback(const std::string& spec, unsigned ways,
                       uint64_t seed, const CompileBudget& budget)
{
    if (CompiledTablePtr table = compiledTableFor(spec, ways, budget))
        return std::make_unique<CompiledPolicy>(std::move(table));
    return makePolicy(spec, ways, seed);
}

} // namespace recap::policy
