#include "recap/learn/observation_table.hh"

#include <algorithm>

#include "recap/common/error.hh"
#include "recap/policy/state_space.hh"

namespace recap::learn
{

ObservationTable::ObservationTable(unsigned alphabet)
    : alphabet_(alphabet)
{
    require(alphabet >= 1, "ObservationTable: empty alphabet");
    prefixes_.push_back({});
    for (Symbol a = 0; a < alphabet; ++a)
        suffixes_.push_back({a});
    rows_.emplace_back(); // ε, at the root
    prefixRows_.push_back(0);
    addExtensionRows(0);
}

void
ObservationTable::addExtensionRows(uint32_t row)
{
    const uint32_t node = rows_[row].node;
    for (Symbol a = 0; a < alphabet_; ++a) {
        extensionRows_.push_back(static_cast<uint32_t>(rows_.size()));
        rows_.emplace_back().node = store_.extend(node, a);
    }
}

bool
ObservationTable::refreshRow(Row& row, std::vector<Word>* missing) const
{
    // Cells are answered by whole-word recordings, so cell (row, e)
    // is known iff the node of row·e is recorded (its prefixes then
    // are too). The signature only grows in suffix order, so it
    // advances up to the first gap; later suffixes are still scanned
    // to batch all of the row's missing words at once.
    bool advancing = true;
    for (std::size_t idx = row.suffixesDone; idx < suffixes_.size();
         ++idx) {
        const Word& e = suffixes_[idx];
        const uint32_t cell = store_.find(e, row.node);
        if (cell != PrefixStore::kAbsent && store_.outcome(cell) >= 0) {
            if (!advancing)
                continue;
            uint32_t node = row.node;
            for (const Symbol symbol : e) {
                node = store_.child(node, symbol);
                if (row.bits % 32 == 0)
                    row.cells.push_back(0);
                row.cells.back() |=
                    static_cast<uint32_t>(store_.outcome(node))
                    << (row.bits % 32);
                ++row.bits;
            }
            ++row.suffixesDone;
            continue;
        }
        advancing = false;
        if (missing == nullptr)
            return false;
        // The full row·e word; answering it records every
        // intermediate prefix at once.
        Word full = store_.wordOf(row.node);
        full.insert(full.end(), e.begin(), e.end());
        missing->push_back(std::move(full));
    }
    return advancing && row.suffixesDone == suffixes_.size();
}

std::span<const uint32_t>
ObservationTable::signature(uint32_t r) const
{
    Row& row = rows_[r];
    require(refreshRow(row, nullptr), "ObservationTable: row not filled");
    return row.cells;
}

std::vector<Word>
ObservationTable::missingWords() const
{
    std::vector<Word> missing;
    for (Row& row : rows_)
        refreshRow(row, &missing);
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()),
                  missing.end());
    return missing;
}

std::string
ObservationTable::rowKey(const Word& u) const
{
    const uint32_t node = store_.find(u);
    std::string key;
    for (const Word& e : suffixes_) {
        uint32_t at = node;
        for (const Symbol symbol : e) {
            if (at != PrefixStore::kAbsent)
                at = store_.child(at, symbol);
            require(at != PrefixStore::kAbsent && store_.outcome(at) >= 0,
                    "ObservationTable: row not filled");
            key += store_.outcome(at) ? '1' : '0';
        }
        key += ';';
    }
    return key;
}

bool
ObservationTable::isClosed(Word* witness) const
{
    // Short rows take the first ids; an extension row that gets a
    // new id matches none of them.
    policy::StateIndex rows;
    for (const uint32_t r : prefixRows_)
        rows.intern(signature(r));
    const uint32_t shortRows = rows.size();
    for (std::size_t i = 0; i < prefixes_.size(); ++i) {
        for (Symbol a = 0; a < alphabet_; ++a) {
            if (rows.intern(signature(extensionRow(i, a))).first <
                shortRows)
                continue;
            if (witness != nullptr) {
                *witness = prefixes_[i];
                witness->push_back(a);
            }
            return false;
        }
    }
    return true;
}

bool
ObservationTable::isConsistent() const
{
    policy::StateIndex rows;
    std::vector<std::size_t> firstWith; // row id -> first prefix
    for (std::size_t i = 0; i < prefixes_.size(); ++i) {
        const auto [id, fresh] = rows.intern(signature(prefixRows_[i]));
        if (fresh) {
            firstWith.push_back(i);
            continue;
        }
        for (Symbol a = 0; a < alphabet_; ++a) {
            const auto first = signature(extensionRow(firstWith[id], a));
            const auto other = signature(extensionRow(i, a));
            if (!std::equal(first.begin(), first.end(), other.begin(),
                            other.end()))
                return false;
        }
    }
    return true;
}

bool
ObservationTable::promote(const Word& u)
{
    const auto indexOf = [&](uint32_t node) {
        std::size_t i = 0;
        while (i < prefixRows_.size() && rows_[prefixRows_[i]].node != node)
            ++i;
        return i;
    };
    const uint32_t node = store_.find(u);
    if (node != PrefixStore::kAbsent && indexOf(node) < prefixes_.size())
        return false;
    require(!u.empty(), "ObservationTable::promote: empty word");
    const uint32_t parent =
        store_.find(std::span(u).first(u.size() - 1));
    const std::size_t i = parent == PrefixStore::kAbsent
                              ? prefixes_.size()
                              : indexOf(parent);
    require(i < prefixes_.size() && u.back() < alphabet_,
            "ObservationTable::promote: not an S·A extension (would "
            "break prefix closure)");
    const uint32_t row = extensionRow(i, u.back());
    prefixes_.push_back(u);
    prefixRows_.push_back(row);
    addExtensionRows(row);
    return true;
}

bool
ObservationTable::addSuffix(const Word& e)
{
    require(!e.empty(), "ObservationTable::addSuffix: empty suffix");
    if (std::find(suffixes_.begin(), suffixes_.end(), e) !=
        suffixes_.end()) {
        return false;
    }
    suffixes_.push_back(e);
    return true;
}

MealyMachine
ObservationTable::buildHypothesis(std::vector<Word>* accessWords) const
{
    // States = distinct S rows, numbered by first appearance in S
    // (so state 0 = row(ε), as S starts with ε).
    policy::StateIndex rows;
    std::vector<std::size_t> representative; // state -> prefix
    for (std::size_t i = 0; i < prefixes_.size(); ++i)
        if (rows.intern(signature(prefixRows_[i])).second)
            representative.push_back(i);

    const auto states = static_cast<unsigned>(representative.size());
    MealyMachine machine(states, alphabet_);
    for (unsigned s = 0; s < states; ++s) {
        for (Symbol a = 0; a < alphabet_; ++a) {
            const uint32_t r = extensionRow(representative[s], a);
            const uint32_t next = rows.intern(signature(r)).first;
            require(next < states,
                    "ObservationTable::buildHypothesis: table is "
                    "not closed");
            const int outcome = store_.outcome(rows_[r].node);
            require(outcome >= 0,
                    "ObservationTable::buildHypothesis: cell not "
                    "filled");
            machine.setTransition(s, a, next, outcome != 0);
        }
    }
    if (accessWords != nullptr) {
        accessWords->clear();
        for (const std::size_t i : representative)
            accessWords->push_back(prefixes_[i]);
    }
    return machine;
}

} // namespace recap::learn
