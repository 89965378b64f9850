#include "recap/learn/mealy.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <sstream>

#include "recap/common/error.hh"
#include "recap/policy/state_space.hh"

namespace recap::learn
{

MealyMachine::MealyMachine(unsigned numStates, unsigned alphabet)
    : numStates_(numStates), alphabet_(alphabet)
{
    require(numStates >= 1, "MealyMachine: need at least one state");
    require(alphabet >= 1, "MealyMachine: need at least one symbol");
    next_.resize(static_cast<std::size_t>(numStates) * alphabet);
    output_.resize(next_.size(), false);
    for (unsigned s = 0; s < numStates; ++s)
        for (unsigned a = 0; a < alphabet; ++a)
            next_[static_cast<std::size_t>(s) * alphabet + a] = s;
}

void
MealyMachine::setTransition(unsigned state, Symbol symbol,
                            unsigned next, bool output)
{
    require(state < numStates_ && next < numStates_ &&
                symbol < alphabet_,
            "MealyMachine::setTransition: out of range");
    const std::size_t i =
        static_cast<std::size_t>(state) * alphabet_ + symbol;
    next_[i] = next;
    output_[i] = output;
}

unsigned
MealyMachine::next(unsigned state, Symbol symbol) const
{
    require(state < numStates_ && symbol < alphabet_,
            "MealyMachine::next: out of range");
    return next_[static_cast<std::size_t>(state) * alphabet_ + symbol];
}

bool
MealyMachine::output(unsigned state, Symbol symbol) const
{
    require(state < numStates_ && symbol < alphabet_,
            "MealyMachine::output: out of range");
    return output_[static_cast<std::size_t>(state) * alphabet_ +
                   symbol];
}

std::vector<bool>
MealyMachine::run(const Word& word) const
{
    std::vector<bool> outputs;
    outputs.reserve(word.size());
    unsigned state = 0;
    for (Symbol symbol : word) {
        outputs.push_back(output(state, symbol));
        state = next(state, symbol);
    }
    return outputs;
}

bool
MealyMachine::lastOutput(const Word& word) const
{
    require(!word.empty(), "MealyMachine::lastOutput: empty word");
    unsigned state = 0;
    for (std::size_t i = 0; i + 1 < word.size(); ++i)
        state = next(state, word[i]);
    return output(state, word.back());
}

namespace
{

/** Reachable states in BFS order (ascending-symbol exploration). */
std::vector<unsigned>
bfsOrder(const MealyMachine& m)
{
    std::vector<unsigned> order;
    std::vector<bool> seen(m.numStates(), false);
    std::deque<unsigned> frontier{0};
    seen[0] = true;
    while (!frontier.empty()) {
        const unsigned state = frontier.front();
        frontier.pop_front();
        order.push_back(state);
        for (Symbol a = 0; a < m.alphabet(); ++a) {
            const unsigned succ = m.next(state, a);
            if (!seen[succ]) {
                seen[succ] = true;
                frontier.push_back(succ);
            }
        }
    }
    return order;
}

} // namespace

MealyMachine
MealyMachine::minimized() const
{
    const std::vector<unsigned> reachable = bfsOrder(*this);

    // Moore partition refinement on the reachable part: classes start
    // from the per-state outputs and split by successor classes until
    // their number stops growing. A StateIndex numbers each round.
    std::vector<int> classOf(numStates_, -1);
    for (uint32_t classes = 0;;) {
        policy::StateIndex byKey;
        std::vector<int> nextClass(numStates_, -1);
        for (unsigned state : reachable) {
            std::vector<uint32_t> key{static_cast<uint32_t>(classOf[state])};
            for (Symbol a = 0; a < alphabet_; ++a)
                key.push_back(output(state, a) |
                              static_cast<uint32_t>(classOf[next(state, a)])
                                  << 1);
            nextClass[state] = static_cast<int>(byKey.intern(key).first);
        }
        classOf = std::move(nextClass);
        if (byKey.size() == classes)
            break;
        classes = byKey.size();
    }

    // Canonical numbering: BFS over classes from the initial class.
    const unsigned numClasses = 1 + *std::max_element(
        classOf.begin(), classOf.end());
    std::vector<unsigned> representative(numClasses);
    for (auto it = reachable.rbegin(); it != reachable.rend(); ++it)
        representative[classOf[*it]] = *it;
    std::vector<int> renumber(numClasses, -1);
    std::deque<int> frontier{classOf[0]};
    renumber[classOf[0]] = 0;
    unsigned assigned = 1;
    std::vector<int> bfsClasses{classOf[0]};
    while (!frontier.empty()) {
        const int cls = frontier.front();
        frontier.pop_front();
        const unsigned rep = representative[cls];
        for (Symbol a = 0; a < alphabet_; ++a) {
            const int succ = classOf[next(rep, a)];
            if (renumber[succ] < 0) {
                renumber[succ] = static_cast<int>(assigned++);
                frontier.push_back(succ);
                bfsClasses.push_back(succ);
            }
        }
    }

    MealyMachine result(assigned, alphabet_);
    for (int cls : bfsClasses) {
        const unsigned rep = representative[cls];
        for (Symbol a = 0; a < alphabet_; ++a) {
            result.setTransition(
                static_cast<unsigned>(renumber[cls]), a,
                static_cast<unsigned>(renumber[classOf[next(rep, a)]]),
                output(rep, a));
        }
    }
    return result;
}

bool
MealyMachine::isomorphicTo(const MealyMachine& other) const
{
    if (alphabet_ != other.alphabet_)
        return false;
    // Parallel BFS building the bijection; any conflict refutes.
    std::vector<int> toOther(numStates_, -1);
    std::vector<int> toThis(other.numStates_, -1);
    toOther[0] = 0;
    toThis[0] = 0;
    std::deque<unsigned> frontier{0};
    while (!frontier.empty()) {
        const unsigned a = frontier.front();
        frontier.pop_front();
        const unsigned b = static_cast<unsigned>(toOther[a]);
        for (Symbol sym = 0; sym < alphabet_; ++sym) {
            if (output(a, sym) != other.output(b, sym))
                return false;
            const unsigned na = next(a, sym);
            const unsigned nb = other.next(b, sym);
            if (toOther[na] < 0 && toThis[nb] < 0) {
                toOther[na] = static_cast<int>(nb);
                toThis[nb] = static_cast<int>(na);
                frontier.push_back(na);
            } else if (toOther[na] != static_cast<int>(nb) ||
                       toThis[nb] != static_cast<int>(na)) {
                return false;
            }
        }
    }
    return true;
}

Word
MealyMachine::distinguishingWord(const MealyMachine& other) const
{
    require(alphabet_ == other.alphabet_,
            "distinguishingWord: alphabet mismatch");
    // BFS over the product: ids are discovery order, and parent
    // links rebuild the word.
    struct Visit
    {
        uint32_t parent;
        Symbol symbol;
    };
    constexpr uint32_t kRoot = UINT32_MAX;
    policy::StateIndex index;
    const uint32_t start[2] = {0, 0};
    index.intern(start);
    std::vector<Visit> visits{{kRoot, 0}};
    for (uint32_t at = 0; at < index.size(); ++at) {
        const unsigned a = index.record(at)[0];
        const unsigned b = index.record(at)[1];
        for (Symbol sym = 0; sym < alphabet_; ++sym) {
            if (output(a, sym) != other.output(b, sym)) {
                Word word{sym};
                for (uint32_t v = at; visits[v].parent != kRoot;
                     v = visits[v].parent)
                    word.push_back(visits[v].symbol);
                std::reverse(word.begin(), word.end());
                return word;
            }
            const uint32_t succ[2] = {next(a, sym), other.next(b, sym)};
            if (index.intern(succ).second)
                visits.push_back({at, sym});
        }
    }
    return {};
}

std::string
MealyMachine::toDot(const std::string& title) const
{
    std::ostringstream os;
    os << "digraph mealy {\n"
       << "    rankdir=LR;\n"
       << "    node [shape=circle, fontname=\"Helvetica\"];\n"
       << "    edge [fontname=\"Helvetica\", fontsize=10];\n";
    if (!title.empty())
        os << "    label=\"" << title << "\"; labelloc=t;\n";
    os << "    init [shape=point];\n    init -> s0;\n";
    for (unsigned state : bfsOrder(*this)) {
        // Merge parallel edges onto one arrow per (state, successor).
        std::map<unsigned, std::vector<std::string>> edges;
        for (Symbol a = 0; a < alphabet_; ++a) {
            edges[next(state, a)].push_back(
                "b" + std::to_string(a + 1) + "/" +
                (output(state, a) ? "hit" : "miss"));
        }
        for (const auto& [succ, labels] : edges) {
            os << "    s" << state << " -> s" << succ << " [label=\"";
            for (std::size_t i = 0; i < labels.size(); ++i)
                os << (i ? "\\n" : "") << labels[i];
            os << "\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

MealyMachine
automatonOfPolicy(const policy::ReplacementPolicy& policy,
                  unsigned alphabet, uint64_t maxStates)
{
    require(alphabet >= 1, "automatonOfPolicy: empty alphabet");

    // A state is the concrete (contents, policy-state) pair: two
    // states with the same shape but different concrete blocks
    // transition differently on a concrete symbol, so every block of
    // the alphabet is pinned to its own name.
    std::vector<policy::BlockId> blocks(alphabet);
    std::iota(blocks.begin(), blocks.end(), policy::BlockId{1});
    policy::SetStates states({&policy}, blocks);
    states.flush();
    states.intern(0);

    struct Edge
    {
        uint32_t to;
        bool hit;
    };
    std::vector<Edge> edges;

    for (uint32_t at = 0; at < states.size(); ++at) {
        for (Symbol a = 0; a < alphabet; ++a) {
            states.load(at);
            const policy::BlockId block = policy::BlockId{a} + 1;
            const bool hit = states.access(0, block);
            const uint32_t to = states.intern(block, maxStates);
            require(to != policy::StateIndex::kFull,
                    "automatonOfPolicy: state budget exceeded "
                    "(stochastic or non-finite policy?)");
            edges.push_back({to, hit});
        }
    }

    MealyMachine machine(states.size(), alphabet);
    for (std::size_t i = 0; i < edges.size(); ++i)
        machine.setTransition(static_cast<unsigned>(i / alphabet),
                              static_cast<Symbol>(i % alphabet),
                              edges[i].to, edges[i].hit);
    return machine;
}

} // namespace recap::learn
