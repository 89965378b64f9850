#include "recap/policy/compiled.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/state_space.hh"

namespace recap::policy
{

CompiledTablePtr
compilePolicy(const ReplacementPolicy& proto,
              const CompileBudget& budget)
{
    const unsigned k = proto.ways();
    constexpr unsigned kMaxCompiledWays = 1u << 15; // victims in 16 bits
    if (k == 0 || k > kMaxCompiledWays || budget.maxStates == 0)
        return nullptr;
    // Meta-consuming policies (SHiP, EAF) are not functions of the
    // way-index input alphabet alone — a table compiled from
    // touch/fill transitions would silently diverge from the
    // interpreted automaton the moment a driver publishes metadata.
    if (proto.usesMeta())
        return nullptr;

    // A policy that cannot pack is refused before any work: "random",
    // whose stream position is unbounded, and any state wider than
    // 128 bits.
    PolicyStates states(proto);
    if (!states.packs())
        return nullptr;

    // Bytes one state costs across the three tables and its pack.
    const auto tableBytes = [&](uint64_t count) {
        return count * (uint64_t{2} * k * sizeof(uint32_t) +
                        sizeof(uint16_t) + sizeof(PackedState));
    };
    // State numbers (plus one, in the index) must fit 32 bits.
    const uint64_t maxStates =
        std::min<uint64_t>(budget.maxStates,
                           std::numeric_limits<uint32_t>::max() - 1);

    auto table = std::make_shared<CompiledTable>();
    table->ways_ = k;
    table->policyName_ = proto.name();
    table->source_ = proto.clone();

    // BFS over packed control states, touch edges before fill edges.
    // Packs are equal exactly when stateKeys are, so this is the exact
    // reachable quotient automaton. A policy that rejects an input in
    // a reachable state (a concrete-block learned automaton touching
    // a way it never filled) has no total table and is refused.
    states.policy().reset();
    states.intern();
    try {
        for (uint32_t at = 0; at < states.size(); ++at) {
            if (states.size() > maxStates ||
                tableBytes(states.size()) > budget.maxTableBytes)
                return nullptr;
            const Way v = states.load(at).victim();
            ensure(v < k, "compilePolicy: victim out of range");
            table->victim_.push_back(static_cast<uint16_t>(v));
            for (unsigned w = 0; w < k; ++w) {
                states.load(at).touch(w);
                table->touchNext_.push_back(states.intern());
            }
            for (unsigned w = 0; w < k; ++w) {
                states.load(at).fill(w);
                table->fillNext_.push_back(states.intern());
            }
        }
    } catch (const UsageError&) {
        return nullptr;
    }

    const uint32_t n = states.size();
    table->numStates_ = n;
    table->budgetBytes_ = tableBytes(n);
    table->packs_.reserve(n);
    for (uint32_t id = 0; id < n; ++id)
        table->packs_.push_back(states.pack(id));
    return table;
}

std::string
CompiledTable::stateKey(uint32_t state) const
{
    const PolicyPtr policy = source_->clone();
    policy->unpackState(packs_[state]);
    return policy->stateKey();
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
    // once per grid cell. A table is the same whatever budget
    // admitted it, so one serves them all.
    struct Entry
    {
        CompiledTablePtr table;
        std::vector<CompileBudget> refusedUnder;
    };
    static std::mutex mutex;
    static std::map<std::pair<std::string, unsigned>, Entry> cache;

    const auto fits = [&](const CompiledTable& table) {
        return table.numStates() <= budget.maxStates &&
               table.budgetBytes() <= budget.maxTableBytes;
    };
    const auto within = [&](const CompileBudget& refused) {
        return budget.maxStates <= refused.maxStates &&
               budget.maxTableBytes <= refused.maxTableBytes;
    };
    std::pair<std::string, unsigned> key{spec, ways};
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            const Entry& entry = it->second;
            if (entry.table)
                return fits(*entry.table) ? entry.table : nullptr;
            if (std::any_of(entry.refusedUnder.begin(),
                            entry.refusedUnder.end(), within))
                return nullptr;
        }
    }

    // Compile outside the lock (enumerations can take a while and
    // must not serialize unrelated lookups). A racing duplicate
    // compilation is harmless: both produce identical tables and the
    // first one stored is kept.
    CompiledTablePtr table;
    if (isKnownPolicySpec(spec) && specSupportsWays(spec, ways))
        table = compilePolicy(*makePolicy(spec, ways), budget);

    std::lock_guard<std::mutex> lock(mutex);
    Entry& entry = cache[std::move(key)];
    if (!table) {
        entry.refusedUnder.push_back(budget);
        return nullptr;
    }
    if (!entry.table)
        entry.table = std::move(table);
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
