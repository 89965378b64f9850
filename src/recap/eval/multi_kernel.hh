/**
 * @file
 * Many policies over one trace: the batch entry point of the
 * miss-ratio sweeps (Fig. 3/4).
 *
 * simulatePoliciesBatch() runs one interpreted cache::Cache per spec,
 * each on its own seed. The runs fan out over the shared TaskPool;
 * results are positional and identical for every thread count.
 */

#ifndef RECAP_EVAL_MULTI_KERNEL_HH_
#define RECAP_EVAL_MULTI_KERNEL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "recap/cache/cache.hh"
#include "recap/trace/trace.hh"

namespace recap::eval
{

/** Execution knobs of simulatePoliciesBatch. */
struct MultiPolicyOptions
{
    /** Seed of every spec when laneSeeds is empty. */
    uint64_t seed = 1;

    /**
     * Per-spec seeds (they matter to stochastic policies only);
     * empty = every spec uses @p seed. Must be empty or match the
     * spec count.
     */
    std::vector<uint64_t> laneSeeds;

    /**
     * Worker threads over the shared pool (0 = hardware
     * concurrency, 1 = serial). Results are identical for every
     * value.
     */
    unsigned numThreads = 0;
};

/**
 * Simulates @p t against every policy in @p specs over the shared
 * geometry @p geom. Result i corresponds to specs[i] and equals a
 * cache::Cache run of specs[i] seeded with its lane seed.
 *
 * @throws UsageError when a spec does not support geom.ways or
 *         laneSeeds is non-empty with the wrong size.
 */
std::vector<cache::LevelStats>
simulatePoliciesBatch(const cache::Geometry& geom,
                      const std::vector<std::string>& specs,
                      const trace::Trace& t,
                      const MultiPolicyOptions& opts = {});

} // namespace recap::eval

#endif // RECAP_EVAL_MULTI_KERNEL_HH_
