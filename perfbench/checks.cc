#include "perfbench/checks.hh"

#include <algorithm>
#include <cstdio>

#include "recap/infer/equivalence.hh"
#include "recap/policy/compiled.hh"

namespace perfbench
{

void
OpTally::fail(std::string why)
{
    ++attempted_;
    failures_.push_back(std::move(why));
}

void
OpTally::record(bool ok, const std::string& what)
{
    if (ok)
        pass();
    else
        fail(what);
}

double
OpTally::failRatio() const
{
    return attempted_ ? static_cast<double>(failures_.size()) /
                        static_cast<double>(attempted_) : 0.0;
}

const char*
matchName(Match m)
{
    switch (m) {
      case Match::kEquivalent:
        return "equivalent";
      case Match::kDifferent:
        return "different";
      case Match::kUnverified:
        return "unverified";
    }
    return "?";
}

Match
compareSpecs(const std::string& a, const std::string& b, unsigned ways)
{
    if (a == b)
        return Match::kEquivalent;
    const auto pa = recap::policy::makeCompiledOrFallback(a, ways);
    const auto pb = recap::policy::makeCompiledOrFallback(b, ways);
    recap::infer::EquivalenceConfig cfg;
    cfg.maxStates = kEquivalenceStates;
    const auto result = recap::infer::checkEquivalence(*pa, *pb, cfg);
    if (!result.equivalent)
        return Match::kDifferent;
    return result.exhausted ? Match::kEquivalent : Match::kUnverified;
}

bool
distinguishes(const recap::policy::ReplacementPolicy& a,
              const recap::policy::ReplacementPolicy& b,
              const std::vector<recap::policy::BlockId>& word)
{
    recap::policy::SetModel ma(a.clone());
    recap::policy::SetModel mb(b.clone());
    ma.flush();
    mb.flush();
    for (std::size_t i = 0; i < word.size(); ++i)
        if (ma.access(word[i]) != mb.access(word[i]))
            return i + 1 == word.size();
    return false;
}

std::vector<std::string>
verdictSpecs(const recap::infer::LevelReport& lvl)
{
    using recap::infer::LevelOutcome;
    if (lvl.outcome != LevelOutcome::kDecided || lvl.learned)
        return {};
    if (lvl.adaptive) {
        if (lvl.adaptiveSelected.empty() || lvl.adaptiveUnselected.empty())
            return {};
        return {lvl.adaptiveSelected, lvl.adaptiveUnselected};
    }
    if (lvl.isPermutation) {
        if (lvl.verdict == "LRU")
            return {"lru"};
        if (lvl.verdict == "FIFO")
            return {"fifo"};
        if (lvl.verdict == "PLRU")
            return {"plru"};
        return {};
    }
    // An ambiguous search still names its first survivor; it is not a
    // decided verdict.
    if (lvl.survivors.empty() ||
        lvl.verdict.find("(ambiguous") != std::string::npos)
        return {};
    return {lvl.survivors.front()};
}

Match
verdictMatchesTruth(const recap::infer::LevelReport& lvl,
                    const recap::hw::CacheLevelSpec& truth,
                    std::string& why)
{
    const std::vector<std::string> got = verdictSpecs(lvl);
    const unsigned ways = truth.ways;
    Match m = Match::kDifferent;
    if (truth.isAdaptive()) {
        // A pairing is as strong as its weaker comparison; the verdict
        // takes the stronger of the two orders.
        auto pairing = [&](const std::string& x, const std::string& y) {
            return std::min(compareSpecs(got[0], x, ways),
                            compareSpecs(got[1], y, ways));
        };
        if (got.size() == 2) {
            m = pairing(truth.policySpec, truth.policySpecB);
            if (m != Match::kEquivalent)
                m = std::max(m, pairing(truth.policySpecB,
                                        truth.policySpec));
        }
    } else if (got.size() == 1) {
        m = compareSpecs(got[0], truth.policySpec, ways);
    }
    if (m != Match::kEquivalent) {
        why = "verdict '" + lvl.verdict + "' is " +
              (m == Match::kDifferent
                   ? std::string("not equivalent")
                   : "not distinguished within " +
                         std::to_string(kEquivalenceStates) +
                         " product states but not proven equivalent") +
              " to '" + truth.policySpec +
              (truth.isAdaptive() ? " | " + truth.policySpecB : "") +
              "'";
        if (!lvl.diagnostics.empty())
            why += " (" + lvl.diagnostics + ")";
    }
    return m;
}

std::string
digestOf(const std::vector<std::string>& lines)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string& line : lines) {
        for (const unsigned char c : line) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= '\n';
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
