#include "recap/infer/equivalence.hh"

#include "recap/common/error.hh"
#include "recap/policy/state_space.hh"

namespace recap::infer
{

EquivalenceResult
checkEquivalence(const policy::ReplacementPolicy& a,
                 const policy::ReplacementPolicy& b,
                 const EquivalenceConfig& cfg)
{
    require(a.ways() == b.ways(),
            "checkEquivalence: policies must have equal associativity");

    const unsigned alphabet =
        cfg.alphabet ? cfg.alphabet : a.ways() + 2;

    EquivalenceResult result;

    // Product states: both sets under one shared renaming. Walking the
    // ids is the BFS; parent links give a shortest counterexample.
    policy::SetStates product({&a, &b});
    product.flush();
    product.intern(0);

    for (uint32_t at = 0; at < product.size(); ++at) {
        if (++result.statesExplored > cfg.maxStates)
            return result; // equivalent so far, but not exhaustive

        for (policy::BlockId sym = 0; sym < alphabet; ++sym) {
            product.load(at);
            const bool hit_a = product.access(0, sym);
            const bool hit_b = product.access(1, sym);
            if (hit_a != hit_b) {
                result.equivalent = false;
                result.counterexample = product.path(at);
                result.counterexample.push_back(sym);
                result.exhausted = true;
                return result;
            }
            product.intern(sym);
        }
    }

    result.exhausted = true;
    return result;
}

} // namespace recap::infer
