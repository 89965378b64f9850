/**
 * @file
 * checkEquivalence() against a reference product BFS kept in this
 * file: SetModel pairs, one copy per successor, interned by a string
 * key of both sets' contents under one shared
 * first-occurrence renaming plus both policies' stateKey()s. The
 * explorer must give the same verdict, exhausted flag, statesExplored
 * and counterexample:
 *
 *  - for every pair of defaultCandidateSpecs(4);
 *  - for nru against lru, srrip and qlru:H0,M0,R0,U1 at 8, 16 and 24
 *    ways, under candidate search's certification cap (50k states)
 *    and its targeted-phase cap (300k).
 *
 * Run to the 300k cap, the reference takes 70-90 s of CPU, so the
 * ctest build compares the capped pairs at the 50k cap only. The
 * test_explore_reference_300k build of this file, which ctest does
 * not register, compares them under both caps; CI's perf-smoke job
 * runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "recap/infer/candidate_search.hh"
#include "recap/infer/equivalence.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"

namespace
{

using namespace recap;
using infer::EquivalenceResult;
using policy::BlockId;
using policy::SetModel;

/**
 * Joint key, built into @p key: both sets' contents renamed by one
 * shared first-occurrence map ('.' for an invalid way), each followed
 * by its policy's stateKey().
 */
void
jointKey(const SetModel& a, const SetModel& b, std::string& key)
{
    std::vector<std::pair<BlockId, char>> names;
    names.reserve(a.ways() + b.ways());
    auto emit = [&](const SetModel& m, std::string& out) {
        for (unsigned w = 0; w < m.ways(); ++w) {
            if (!m.isValid(w)) {
                out.push_back('.');
                continue;
            }
            const BlockId block = m.blockAt(w);
            char name = 0;
            for (const auto& [known, knownName] : names)
                if (known == block)
                    name = knownName;
            if (name == 0) {
                name = static_cast<char>('A' + names.size());
                names.emplace_back(block, name);
            }
            out.push_back(name);
        }
    };
    key.clear();
    emit(a, key);
    key.push_back('/');
    key += a.policy().stateKey();
    key.push_back('|');
    emit(b, key);
    key.push_back('/');
    key += b.policy().stateKey();
}

/**
 * The reference BFS over ways + 2 symbols from flushed sets. A
 * frontier node is its access path (a parent link): popping it
 * replays the path on fresh sets, which is the node the search
 * stored, without holding a million set pairs. One run answers every
 * cap in @p caps: the search is the same up to the point where a
 * smaller cap stops it.
 */
std::vector<EquivalenceResult>
referenceEquivalence(const policy::ReplacementPolicy& a,
                     const policy::ReplacementPolicy& b,
                     const std::vector<uint64_t>& caps)
{
    struct Visit
    {
        uint32_t parent;
        BlockId symbol;
    };
    constexpr uint32_t kRoot = UINT32_MAX;
    const unsigned alphabet = a.ways() + 2;
    std::vector<EquivalenceResult> results(caps.size());
    std::vector<bool> done(caps.size(), false);
    const auto finish = [&](const EquivalenceResult& r) {
        for (std::size_t i = 0; i < caps.size(); ++i)
            if (!done[i])
                results[i] = r;
        return results;
    };

    SetModel flushedA(a.clone());
    SetModel flushedB(b.clone());
    flushedA.flush();
    flushedB.flush();
    std::string key;
    jointKey(flushedA, flushedB, key);
    std::unordered_set<std::string> visited{key};
    std::vector<Visit> frontier{{kRoot, 0}};

    EquivalenceResult r;
    SetModel nextA = flushedA;
    SetModel nextB = flushedB;
    for (uint32_t at = 0; at < frontier.size(); ++at) {
        ++r.statesExplored;
        bool open = false;
        for (std::size_t i = 0; i < caps.size(); ++i) {
            if (!done[i] && r.statesExplored > caps[i]) {
                results[i] = r; // equivalent so far, not exhausted
                done[i] = true;
            }
            open |= !done[i];
        }
        if (!open)
            return results;

        std::vector<BlockId> path;
        for (uint32_t v = at; frontier[v].parent != kRoot;
             v = frontier[v].parent)
            path.push_back(frontier[v].symbol);
        std::reverse(path.begin(), path.end());
        SetModel nodeA = flushedA;
        SetModel nodeB = flushedB;
        for (const BlockId block : path) {
            nodeA.access(block);
            nodeB.access(block);
        }

        for (BlockId sym = 0; sym < alphabet; ++sym) {
            nextA = nodeA;
            nextB = nodeB;
            const bool hitA = nextA.access(sym);
            const bool hitB = nextB.access(sym);
            if (hitA != hitB) {
                r.equivalent = false;
                r.counterexample = path;
                r.counterexample.push_back(sym);
                r.exhausted = true;
                return finish(r);
            }
            jointKey(nextA, nextB, key);
            if (visited.insert(key).second)
                frontier.push_back({at, sym});
        }
    }
    r.exhausted = true;
    return finish(r);
}

void
expectSameResult(const EquivalenceResult& got,
                 const EquivalenceResult& want, const std::string& label)
{
    EXPECT_EQ(got.equivalent, want.equivalent) << label;
    EXPECT_EQ(got.exhausted, want.exhausted) << label;
    EXPECT_EQ(got.statesExplored, want.statesExplored) << label;
    EXPECT_EQ(got.counterexample, want.counterexample) << label;
}

TEST(EquivalenceReference, EveryFourWayCandidatePair)
{
    std::vector<std::string> specs;
    for (const auto& spec : infer::defaultCandidateSpecs(4))
        if (policy::specSupportsWays(spec, 4))
            specs.push_back(spec);
    ASSERT_GT(specs.size(), 20u);
    const uint64_t cap = infer::EquivalenceConfig{}.maxStates;
    unsigned distinguished = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        for (std::size_t j = i + 1; j < specs.size(); ++j) {
            const auto a = policy::makePolicy(specs[i], 4);
            const auto b = policy::makePolicy(specs[j], 4);
            const EquivalenceResult got = infer::checkEquivalence(*a, *b);
            const EquivalenceResult want =
                referenceEquivalence(*a, *b, {cap})[0];
            expectSameResult(got, want, specs[i] + " vs " + specs[j]);
            distinguished += !got.equivalent;
        }
    }
    EXPECT_GT(distinguished, 0u);
}

/** The caps the capped pairs are compared under. */
#ifdef RECAP_REFERENCE_TARGETED_CAP
const std::vector<uint64_t> kCaps = {50'000, 300'000};
#else
const std::vector<uint64_t> kCaps = {50'000};
#endif

/** nru against one policy at one associativity, under kCaps. */
struct CappedPair
{
    const char* other;
    unsigned ways;
};

void
PrintTo(const CappedPair& pair, std::ostream* os)
{
    *os << "nru vs " << pair.other << " k=" << pair.ways;
}

class EquivalenceReferenceCapped
    : public ::testing::TestWithParam<CappedPair>
{};

TEST_P(EquivalenceReferenceCapped, NruPairMatchesUnderBothCaps)
{
    const CappedPair& pair = GetParam();
    const auto a = policy::makePolicy("nru", pair.ways);
    const auto b = policy::makePolicy(pair.other, pair.ways);
    const auto want = referenceEquivalence(*a, *b, kCaps);
    for (std::size_t i = 0; i < kCaps.size(); ++i) {
        infer::EquivalenceConfig cfg;
        cfg.maxStates = kCaps[i];
        expectSameResult(infer::checkEquivalence(*a, *b, cfg), want[i],
                         std::string("nru vs ") + pair.other + " k=" +
                             std::to_string(pair.ways) + " cap " +
                             std::to_string(kCaps[i]));
    }
}

std::vector<CappedPair>
cappedPairs()
{
    std::vector<CappedPair> pairs;
    for (const unsigned ways : {8u, 16u, 24u})
        for (const char* other : {"lru", "srrip", "qlru:H0,M0,R0,U1"})
            pairs.push_back({other, ways});
    return pairs;
}

INSTANTIATE_TEST_SUITE_P(
    NruPairs, EquivalenceReferenceCapped,
    ::testing::ValuesIn(cappedPairs()),
    [](const ::testing::TestParamInfo<CappedPair>& info) {
        std::string name = info.param.other;
        name = name.substr(0, name.find(':'));
        return name + "_k" + std::to_string(info.param.ways);
    });

} // namespace
