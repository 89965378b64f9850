#include "recap/eval/multi_kernel.hh"

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"

namespace recap::eval
{

std::vector<cache::LevelStats>
simulatePoliciesBatch(const cache::Geometry& geom,
                      const std::vector<std::string>& specs,
                      const trace::Trace& t,
                      const MultiPolicyOptions& opts)
{
    require(opts.laneSeeds.empty() ||
                opts.laneSeeds.size() == specs.size(),
            "simulatePoliciesBatch: laneSeeds must be empty or match "
            "the spec count");
    for (const std::string& spec : specs) {
        require(policy::specSupportsWays(spec, geom.ways),
                "simulatePoliciesBatch: policy '" + spec +
                    "' does not support " +
                    std::to_string(geom.ways) + " ways");
    }

    // Every spec writes only its own slot, so the result is the same
    // for any thread count.
    std::vector<cache::LevelStats> stats(specs.size());
    parallelFor(specs.size(), opts.numThreads, [&](std::size_t i) {
        stats[i] = simulateTrace(
            geom, specs[i], t,
            opts.laneSeeds.empty() ? opts.seed : opts.laneSeeds[i]);
    });
    return stats;
}

} // namespace recap::eval
