/**
 * @file
 * Differential tests grounding the permutation-policy engine in an
 * oracle: a PermutationPolicy built from the analytic LRU/FIFO/PLRU
 * permutation vectors (or derived from the explicit automaton by
 * eviction-order probing) must produce the exact same hit/miss and
 * eviction-order trace as the explicit automaton it specializes to,
 * and infer::checkEquivalence must certify the pairing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/infer/equivalence.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/permutation.hh"
#include "recap/policy/set_model.hh"

namespace
{

using namespace recap;
using policy::BlockId;
using policy::PermutationPolicy;
using policy::SetModel;

/**
 * Drives both policies through the same random 10k-access sequence
 * and asserts identical hit/miss outcomes and, once the sets are
 * full, identical eviction orders at every step.
 */
void
expectSameEvictionTrace(policy::PolicyPtr a, policy::PolicyPtr b,
                        unsigned ways, uint64_t seed)
{
    SetModel ma(std::move(a));
    SetModel mb(std::move(b));
    Rng rng(seed);
    const unsigned universe = ways + 3;
    for (int i = 0; i < 10'000; ++i) {
        const BlockId block = rng.nextBelow(universe);
        const bool hit_a = ma.access(block);
        const bool hit_b = mb.access(block);
        ASSERT_EQ(hit_a, hit_b)
            << "access " << i << " block " << block;
        if (ma.validCount() == ways) {
            ASSERT_EQ(ma.evictionOrder(), mb.evictionOrder())
                << "access " << i;
        }
    }
}

/** Exhaustive product-automaton certificate for the pairing. */
void
expectCertifiedEquivalent(const policy::ReplacementPolicy& a,
                          const policy::ReplacementPolicy& b)
{
    infer::EquivalenceConfig cfg;
    cfg.maxStates = 500'000;
    const auto verdict = infer::checkEquivalence(a, b, cfg);
    EXPECT_TRUE(verdict.equivalent);
    EXPECT_TRUE(verdict.exhausted);
}

TEST(PermutationDifferential, AnalyticLruMatchesExplicitAutomaton)
{
    for (unsigned k : {2u, 3u, 4u, 8u}) {
        expectSameEvictionTrace(
            PermutationPolicy::lru(k).clone(),
            policy::makePolicy("lru", k), k, 100 + k);
        expectCertifiedEquivalent(PermutationPolicy::lru(k),
                                  *policy::makePolicy("lru", k));
    }
}

TEST(PermutationDifferential, AnalyticFifoMatchesExplicitAutomaton)
{
    for (unsigned k : {2u, 3u, 4u, 8u}) {
        expectSameEvictionTrace(
            PermutationPolicy::fifo(k).clone(),
            policy::makePolicy("fifo", k), k, 200 + k);
        expectCertifiedEquivalent(PermutationPolicy::fifo(k),
                                  *policy::makePolicy("fifo", k));
    }
}

TEST(PermutationDifferential, AnalyticPlruMatchesExplicitAutomaton)
{
    for (unsigned k : {2u, 4u, 8u}) {
        expectSameEvictionTrace(
            PermutationPolicy::plru(k).clone(),
            policy::makePolicy("plru", k), k, 300 + k);
        expectCertifiedEquivalent(PermutationPolicy::plru(k),
                                  *policy::makePolicy("plru", k));
    }
}

TEST(PermutationDifferential, DerivedPolicyMatchesItsPrototype)
{
    // derive() reconstructs the permutation vectors of an arbitrary
    // permutation-policy automaton from behaviour alone; the result
    // must replay the prototype exactly.
    for (const std::string& spec :
         {std::string("lru"), std::string("fifo"),
          std::string("plru")}) {
        for (unsigned k : {4u, 8u}) {
            if (!policy::specSupportsWays(spec, k))
                continue;
            const auto proto = policy::makePolicy(spec, k);
            const auto derived = PermutationPolicy::derive(*proto);
            ASSERT_TRUE(derived.has_value()) << spec << " k=" << k;
            expectSameEvictionTrace(derived->clone(),
                                    policy::makePolicy(spec, k), k,
                                    400 + k);
            expectCertifiedEquivalent(*derived,
                                      *policy::makePolicy(spec, k));
        }
    }
}

TEST(PermutationDifferential, DistinctPoliciesAreSeparated)
{
    // The oracle must not be vacuous: LRU vs FIFO are inequivalent,
    // and the returned counterexample must actually separate the two
    // explicit automata when replayed.
    for (unsigned k : {2u, 4u}) {
        const auto verdict = infer::checkEquivalence(
            PermutationPolicy::lru(k), PermutationPolicy::fifo(k));
        ASSERT_FALSE(verdict.equivalent) << "k=" << k;
        ASSERT_FALSE(verdict.counterexample.empty()) << "k=" << k;

        SetModel lru(policy::makePolicy("lru", k));
        SetModel fifo(policy::makePolicy("fifo", k));
        bool separated = false;
        for (BlockId b : verdict.counterexample)
            if (lru.access(b) != fifo.access(b))
                separated = true;
        EXPECT_TRUE(separated) << "k=" << k;
    }
}

} // namespace
