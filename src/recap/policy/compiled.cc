#include "recap/policy/compiled.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{

namespace
{

/** Hard cap keeping victim_ entries in 16 bits. */
constexpr unsigned kMaxCompiledWays = 1u << 15;

/** fmix64 of MurmurHash3 over both words. */
uint64_t
hashPacked(const PackedState& key)
{
    uint64_t h = key.lo ^ (key.hi * 0x9E3779B97F4A7C15ull);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return h;
}

/**
 * Open-addressing index from packed state to state number, with the
 * states also kept in a dense vector in discovery order. A slot holds
 * its key inline, so a lookup reads one slot; the table stays at most
 * three quarters full.
 */
class PackedStateIndex
{
  public:
    PackedStateIndex()
        : slots_(1024)
    {}

    const std::vector<PackedState>& states() const { return states_; }

    /** Number of @p key, appending it as the next state when new. */
    uint32_t intern(const PackedState& key)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hashPacked(key) & mask;; i = (i + 1) & mask) {
            Slot& slot = slots_[i];
            if (slot.idPlusOne == 0) {
                const auto id = static_cast<uint32_t>(states_.size());
                states_.push_back(key);
                slot = Slot{key, id + 1};
                if (4 * states_.size() > 3 * slots_.size())
                    grow();
                return id;
            }
            if (slot.key == key)
                return slot.idPlusOne - 1;
        }
    }

  private:
    struct Slot
    {
        PackedState key;
        uint32_t idPlusOne = 0; ///< 0 = empty
    };

    void grow()
    {
        std::vector<Slot> slots(2 * slots_.size());
        const std::size_t mask = slots.size() - 1;
        for (uint32_t id = 0; id < states_.size(); ++id) {
            std::size_t i = hashPacked(states_[id]) & mask;
            while (slots[i].idPlusOne != 0)
                i = (i + 1) & mask;
            slots[i] = Slot{states_[id], id + 1};
        }
        slots_ = std::move(slots);
    }

    std::vector<PackedState> states_;
    std::vector<Slot> slots_;
};

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

    // One scratch automaton serves the whole enumeration: every edge
    // unpacks its source state into it, steps it and packs the
    // successor, so no edge clones a policy or builds a string. A
    // policy that cannot pack is refused before any work: "random",
    // whose stream position is unbounded, and any state wider than
    // 128 bits.
    PolicyPtr scratch = proto.clone();
    scratch->reset();
    PackedState packed;
    if (!scratch->packState(packed))
        return nullptr;

    // Bytes one state costs across the three tables, plus the keys.
    const auto tableBytes = [&](uint64_t states, uint64_t keyBytes) {
        return states * (uint64_t{2} * k * sizeof(uint32_t) +
                         sizeof(uint16_t)) +
               keyBytes;
    };
    // State numbers (plus one, in the index) must fit 32 bits.
    const uint64_t maxStates =
        std::min<uint64_t>(budget.maxStates,
                           std::numeric_limits<uint32_t>::max() - 1);

    auto table = std::make_shared<CompiledTable>();
    table->ways_ = k;
    table->policyName_ = proto.name();

    // BFS over packed control states, numbered in discovery order
    // with touch edges before fill edges. Packs are equal exactly
    // when stateKeys are (the packState() contract), so interning by
    // pack yields the exact reachable quotient automaton.
    PackedStateIndex index;
    index.intern(packed);
    // Successor packs of the state being expanded after each touch:
    // self-loops, and fills that land where the touch of the same way
    // did (tree-PLRU, NRU), skip the index lookup.
    std::vector<PackedState> touched(k);
    const auto successor = [&](uint32_t at, const PackedState& from,
                               bool hit, Way way) {
        scratch->unpackState(from);
        if (hit)
            scratch->touch(way);
        else
            scratch->fill(way);
        const bool packs = scratch->packState(packed);
        ensure(packs, "compilePolicy: packState refused mid-enumeration");
        if (hit)
            touched[way] = packed;
        if (packed == from)
            return at;
        if (!hit && packed == touched[way])
            return table->touchNext_[std::size_t{at} * k + way];
        return index.intern(packed);
    };

    for (uint32_t at = 0; at < index.states().size(); ++at) {
        // The key bytes join the byte budget once the keys exist
        // (below). Both counts only grow, so the check against the
        // final totals refuses exactly what an earlier check would.
        if (index.states().size() > maxStates ||
            tableBytes(index.states().size(), 0) > budget.maxTableBytes)
            return nullptr;
        const PackedState from = index.states()[at];
        scratch->unpackState(from);
        const Way v = scratch->victim();
        ensure(v < k, "compilePolicy: victim out of range");
        table->victim_.push_back(static_cast<uint16_t>(v));
        for (unsigned w = 0; w < k; ++w)
            table->touchNext_.push_back(successor(at, from, true, w));
        for (unsigned w = 0; w < k; ++w)
            table->fillNext_.push_back(successor(at, from, false, w));
    }

    const auto n = static_cast<uint32_t>(index.states().size());
    table->numStates_ = n;
    table->keys_.reserve(n);
    uint64_t keyBytes = 0;
    for (const PackedState& state : index.states()) {
        scratch->unpackState(state);
        table->keys_.push_back(scratch->stateKey());
        keyBytes += table->keys_.back().size();
    }
    if (tableBytes(n, keyBytes) > budget.maxTableBytes)
        return nullptr;

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
    using Key = std::tuple<std::string, unsigned, uint64_t, uint64_t>;
    static std::mutex mutex;
    static std::map<Key, CompiledTablePtr> cache;

    Key key{spec, ways, budget.maxStates, budget.maxTableBytes};
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // Compile outside the lock (enumerations can take a while and
    // must not serialize unrelated lookups). A racing duplicate
    // compilation is harmless: both produce identical tables and one
    // wins the cache slot.
    CompiledTablePtr table;
    if (isKnownPolicySpec(spec) && specSupportsWays(spec, ways))
        table = compilePolicy(*makePolicy(spec, ways), budget);

    std::lock_guard<std::mutex> lock(mutex);
    return cache.emplace(std::move(key), std::move(table)).first->second;
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
