#include "recap/learn/learned_policy.hh"

#include <algorithm>
#include <sstream>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::learn
{

LearnedPolicy::LearnedPolicy(unsigned ways, MealyMachine machine,
                             SymbolSemantics semantics,
                             std::string name)
    : ReplacementPolicy(ways), machine_(std::move(machine)),
      semantics_(semantics), name_(std::move(name))
{
    require(machine_.numStates() >= 1,
            "LearnedPolicy: empty machine");
    require(machine_.alphabet() >= ways + 1,
            "LearnedPolicy: alphabet must cover ways + 1 symbols");
    reset();
}

void
LearnedPolicy::reset()
{
    state_ = 0;
    assignment_.assign(ways_, kNone);
    recency_.clear();
}

Symbol
LearnedPolicy::symbolOf(policy::Way way) const
{
    if (semantics_ == SymbolSemantics::kConcreteBlocks) {
        const int sym = assignment_[way];
        require(sym != kNone,
                "LearnedPolicy: way has no assigned symbol");
        return static_cast<Symbol>(sym);
    }
    const auto it = std::find(recency_.begin(), recency_.end(),
                              static_cast<int>(way));
    if (it == recency_.end()) {
        // The way's block fell off the trackable recency window
        // (deeper than the machine's role alphabet). Degrade to the
        // fresh symbol: inexact, but downstream agreement gates are
        // the safety net, not exceptions mid-simulation.
        return machine_.alphabet() - 1;
    }
    return static_cast<Symbol>(it - recency_.begin());
}

void
LearnedPolicy::touch(policy::Way way)
{
    checkWay(way);
    const Symbol symbol = symbolOf(way);
    state_ = machine_.next(state_, symbol);
    if (semantics_ == SymbolSemantics::kRecencyRoles) {
        const auto it = std::find(recency_.begin(), recency_.end(),
                                  static_cast<int>(way));
        if (it != recency_.end())
            recency_.erase(it);
        recency_.insert(recency_.begin(), static_cast<int>(way));
        if (recency_.size() >= machine_.alphabet())
            recency_.resize(machine_.alphabet() - 1);
    }
}

void
LearnedPolicy::fill(policy::Way way)
{
    checkWay(way);
    if (semantics_ == SymbolSemantics::kRecencyRoles) {
        // The way's previous block (if any) is evicted but keeps its
        // recency rank; the incoming block becomes rank 0.
        for (int& entry : recency_) {
            if (entry == static_cast<int>(way))
                entry = kEvicted;
        }
        state_ = machine_.next(state_, machine_.alphabet() - 1);
        recency_.insert(recency_.begin(), static_cast<int>(way));
        if (recency_.size() >= machine_.alphabet())
            recency_.resize(machine_.alphabet() - 1);
        return;
    }

    // Concrete semantics: the incoming block is the smallest symbol
    // not standing for any resident.
    std::vector<bool> used(machine_.alphabet(), false);
    for (int sym : assignment_) {
        if (sym != kNone)
            used[static_cast<std::size_t>(sym)] = true;
    }
    Symbol fresh = 0;
    while (fresh < machine_.alphabet() && used[fresh])
        ++fresh;
    ensure(fresh < machine_.alphabet(),
           "LearnedPolicy: no fresh symbol available");
    const int oldSym = assignment_[way];
    const unsigned nextState = machine_.next(state_, fresh);

    if (oldSym != kNone) {
        // The machine evicted exactly one resident on this miss;
        // if it was not this way's block, realign the assignment so
        // the machine's residents keep matching the cache's.
        int evicted = kNone;
        unsigned evictedCount = 0;
        for (int sym : assignment_) {
            if (sym != kNone &&
                !machine_.output(nextState,
                                 static_cast<Symbol>(sym))) {
                evicted = sym;
                ++evictedCount;
            }
        }
        if (evictedCount == 1 && evicted != oldSym) {
            for (policy::Way w = 0; w < ways_; ++w) {
                if (assignment_[w] == evicted)
                    assignment_[w] = oldSym;
            }
        }
    }
    assignment_[way] = static_cast<int>(fresh);
    state_ = nextState;
}

policy::Way
LearnedPolicy::victim() const
{
    // Invalid ways are filled cold, lowest first, before the policy
    // logic is consulted (matching SetModel / cache::Cache).
    if (semantics_ == SymbolSemantics::kConcreteBlocks) {
        for (policy::Way w = 0; w < ways_; ++w) {
            if (assignment_[w] == kNone)
                return w;
        }
    } else {
        for (policy::Way w = 0; w < ways_; ++w) {
            if (std::find(recency_.begin(), recency_.end(),
                          static_cast<int>(w)) == recency_.end())
                return w;
        }
    }

    // Fork-and-probe: feed one fresh block, then ask the machine
    // which resident's next access now misses — that one was
    // evicted. (A probe is a single output lookup; it does not
    // advance any state.)
    std::vector<policy::Way> misses;
    if (semantics_ == SymbolSemantics::kConcreteBlocks) {
        std::vector<bool> used(machine_.alphabet(), false);
        for (int sym : assignment_)
            if (sym != kNone)
                used[static_cast<std::size_t>(sym)] = true;
        Symbol fresh = 0;
        while (fresh < machine_.alphabet() && used[fresh])
            ++fresh;
        ensure(fresh < machine_.alphabet(),
               "LearnedPolicy: no fresh symbol available");
        const unsigned simState = machine_.next(state_, fresh);
        for (policy::Way w = 0; w < ways_; ++w) {
            if (!machine_.output(
                    simState,
                    static_cast<Symbol>(assignment_[w]))) {
                misses.push_back(w);
            }
        }
    } else {
        const unsigned simState =
            machine_.next(state_, machine_.alphabet() - 1);
        // Post-fill, every tracked entry shifts one rank deeper.
        std::vector<int> shifted = recency_;
        shifted.insert(shifted.begin(), kEvicted);
        for (policy::Way w = 0; w < ways_; ++w) {
            const auto it = std::find(shifted.begin(), shifted.end(),
                                      static_cast<int>(w));
            if (it == shifted.end() ||
                static_cast<unsigned>(it - shifted.begin()) + 1 >=
                    machine_.alphabet()) {
                // Unprobeable: deeper than the role window; treat as
                // the eviction candidate of last resort.
                misses.push_back(w);
                continue;
            }
            const Symbol rank =
                static_cast<Symbol>(it - shifted.begin());
            if (!machine_.output(simState, rank))
                misses.push_back(w);
        }
    }
    if (misses.size() == 1)
        return misses.front();
    if (!misses.empty())
        return misses.front();
    // No probe missed: the machine is not a perfect policy image.
    // Fall back to the last way; agreement measurement downstream
    // exposes such models.
    return ways_ - 1;
}

std::string
LearnedPolicy::name() const
{
    return name_;
}

policy::PolicyPtr
LearnedPolicy::clone() const
{
    return std::make_unique<LearnedPolicy>(*this);
}

std::string
LearnedPolicy::stateKey() const
{
    std::ostringstream os;
    os << "learned:"
       << (semantics_ == SymbolSemantics::kConcreteBlocks ? "c" : "r")
       << ":" << state_ << ":";
    if (semantics_ == SymbolSemantics::kConcreteBlocks) {
        for (int sym : assignment_)
            os << sym << ",";
    } else {
        for (int entry : recency_)
            os << entry << ",";
    }
    return os.str();
}

unsigned
LearnedPolicy::stateBits() const
{
    return log2Ceil(machine_.numStates());
}

unsigned
LearnedPolicy::entryBits() const
{
    // Concrete: symbol + 1, so kNone packs as 0. Roles: a way, with
    // ways_ standing for kEvicted.
    return semantics_ == SymbolSemantics::kConcreteBlocks
        ? log2Ceil(uint64_t{machine_.alphabet()} + 1)
        : log2Ceil(uint64_t{ways_} + 1);
}

unsigned
LearnedPolicy::lengthBits() const
{
    // The recency list holds at most alphabet - 1 entries.
    return semantics_ == SymbolSemantics::kConcreteBlocks
        ? 0 : log2Ceil(machine_.alphabet());
}

bool
LearnedPolicy::packState(policy::PackedState& out) const
{
    const uint64_t slots = semantics_ == SymbolSemantics::kConcreteBlocks
        ? ways_ : machine_.alphabet() - 1;
    if (stateBits() + lengthBits() + slots * entryBits() > kBits128Width)
        return false;
    BitPacker packer;
    packer.put(state_, stateBits());
    if (semantics_ == SymbolSemantics::kConcreteBlocks) {
        for (int sym : assignment_)
            packer.put(static_cast<uint64_t>(sym + 1), entryBits());
    } else {
        packer.put(recency_.size(), lengthBits());
        for (int entry : recency_) {
            packer.put(entry == kEvicted ? ways_
                                         : static_cast<uint64_t>(entry),
                       entryBits());
        }
    }
    out = packer.bits();
    return true;
}

void
LearnedPolicy::unpackState(const policy::PackedState& in)
{
    BitUnpacker unpacker(in);
    state_ = static_cast<unsigned>(unpacker.get(stateBits()));
    if (semantics_ == SymbolSemantics::kConcreteBlocks) {
        for (int& sym : assignment_)
            sym = static_cast<int>(unpacker.get(entryBits())) - 1;
    } else {
        recency_.resize(unpacker.get(lengthBits()));
        for (int& entry : recency_) {
            const auto raw = unpacker.get(entryBits());
            entry = raw == ways_ ? kEvicted : static_cast<int>(raw);
        }
    }
}

} // namespace recap::learn
