#include "recap/learn/teacher.hh"

#include <algorithm>

#include "recap/common/error.hh"

namespace recap::learn
{

OracleTeacher::OracleTeacher(query::QueryOracle& oracle,
                             const query::BatchOptions& batch)
    : oracle_(oracle), batch_(batch)
{}

unsigned
OracleTeacher::ways() const
{
    return oracle_.ways();
}

std::string
OracleTeacher::describe() const
{
    return "teacher over " + oracle_.describe();
}

TeacherAnswers
OracleTeacher::answer(std::vector<Symbol> symbols,
                      std::span<const uint32_t> ends)
{
    // Symbol s is block s + 1. A batch can hold millions of symbols,
    // so the symbols go once the blocks are laid out, the blocks
    // before the answers are condensed, and the per-position outcomes
    // when this returns.
    std::vector<query::PositionOutcome> outcomes;
    {
        std::vector<query::BlockId> blocks(symbols.size());
        for (std::size_t i = 0; i < symbols.size(); ++i)
            blocks[i] = static_cast<query::BlockId>(symbols[i]) + 1;
        std::vector<Symbol>().swap(symbols);
        const uint64_t expBefore = oracle_.experimentsRun();
        const uint64_t accBefore = oracle_.accessesIssued();
        outcomes = oracle_.observeWords(blocks, ends, batch_, &stats_);
        experiments_ += oracle_.experimentsRun() - expBefore;
        accesses_ += oracle_.accessesIssued() - accBefore;
        wordsAsked_ += ends.size();
        ensure(outcomes.size() == blocks.size(),
               "OracleTeacher: outcome count mismatch");
    }

    TeacherAnswers answers;
    answers.outputs.resize(outcomes.size());
    answers.determined.assign(ends.size(), 1);
    answers.confidence.assign(ends.size(), 1.0);
    std::size_t p = 0;
    for (std::size_t w = 0; w < ends.size(); ++w) {
        for (; p < ends[w]; ++p) {
            const query::PositionOutcome& outcome = outcomes[p];
            answers.outputs[p] = outcome.hit ? 1 : 0;
            if (!outcome.determined)
                answers.determined[w] = 0;
            answers.confidence[w] =
                std::min(answers.confidence[w], outcome.confidence);
        }
    }
    return answers;
}

PrefixStore::PrefixStore() : outcome_{-1}, parent_{kRoot}, symbol_{0} {}

uint32_t
PrefixStore::extend(uint32_t node, Symbol symbol)
{
    if (symbol >= fanout_) {
        // Widen every node's child slots; symbols arrive in order
        // while the tree is small, so this stays rare and cheap.
        const std::size_t fanout = std::size_t{symbol} + 1;
        std::vector<uint32_t> children(outcome_.size() * fanout, kAbsent);
        for (std::size_t n = 0; n < outcome_.size(); ++n)
            std::copy_n(children_.begin() + n * fanout_, fanout_,
                        children.begin() + n * fanout);
        children_ = std::move(children);
        fanout_ = fanout;
    }
    uint32_t& slot = children_[std::size_t{node} * fanout_ + symbol];
    if (slot != kAbsent)
        return slot;
    const auto id = static_cast<uint32_t>(outcome_.size());
    ensure(id != kAbsent, "PrefixStore: more than 2^32 - 1 nodes");
    slot = id;
    outcome_.push_back(-1);
    parent_.push_back(node);
    symbol_.push_back(symbol);
    children_.resize(children_.size() + fanout_, kAbsent);
    return id;
}

PrefixStore::Recording
PrefixStore::record(std::span<const Symbol> word,
                    std::span<const uint8_t> outputs)
{
    require(word.size() == outputs.size(),
            "PrefixStore::record: length mismatch");
    Recording recording;
    uint32_t node = kRoot;
    for (std::size_t i = 0; i < word.size(); ++i) {
        node = extend(node, word[i]);
        const int8_t output = outputs[i] != 0 ? 1 : 0;
        if (outcome_[node] < 0) {
            outcome_[node] = output;
            ++recorded_;
        } else if (outcome_[node] != output) {
            recording.consistent = false;
            recording.conflictAt = i + 1;
            return recording;
        }
    }
    return recording;
}

int
PrefixStore::lookup(const Word& word) const
{
    const uint32_t node = find(word);
    return node == kAbsent ? -1 : outcome_[node];
}

Word
PrefixStore::wordOf(uint32_t node) const
{
    Word word;
    for (; node != kRoot; node = parent_[node])
        word.push_back(symbol_[node]);
    std::reverse(word.begin(), word.end());
    return word;
}

std::optional<Word>
PrefixStore::firstMismatch(const MealyMachine& machine) const
{
    // Breadth first with children in symbol order visits the words
    // shortest first, then lexicographically. Unrecorded nodes have
    // no recorded descendants, so the walk stops at them.
    std::vector<std::pair<uint32_t, unsigned>> level{{kRoot, 0}};
    std::vector<std::pair<uint32_t, unsigned>> next;
    while (!level.empty()) {
        for (const auto& [node, state] : level) {
            for (Symbol symbol = 0; symbol < fanout_; ++symbol) {
                const uint32_t c = child(node, symbol);
                if (c == kAbsent || outcome_[c] < 0)
                    continue;
                if (machine.output(state, symbol) != (outcome_[c] != 0))
                    return wordOf(c);
                next.emplace_back(c, machine.next(state, symbol));
            }
        }
        level.swap(next);
        next.clear();
    }
    return std::nullopt;
}

} // namespace recap::learn
