#include "recap/eval/multi_kernel.hh"

#include <unordered_map>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
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

    // One work item per distinct compiled table (compiledTableFor
    // memoizes per spec, and compiled runs never consume a seed, so
    // specs sharing a table share one run) plus one per fallback
    // spec, which keeps its own seed.
    std::vector<policy::CompiledTablePtr> tables(specs.size());
    std::vector<std::size_t> itemOf(specs.size());
    std::vector<std::size_t> items; // first spec index of each item
    std::unordered_map<const policy::CompiledTable*, std::size_t>
        itemOfTable;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        require(policy::specSupportsWays(specs[i], geom.ways),
                "simulatePoliciesBatch: policy '" + specs[i] +
                    "' does not support " +
                    std::to_string(geom.ways) + " ways");
        tables[i] =
            policy::compiledTableFor(specs[i], geom.ways, opts.budget);
        if (tables[i]) {
            const auto [it, inserted] =
                itemOfTable.try_emplace(tables[i].get(), items.size());
            if (inserted)
                items.push_back(i);
            itemOf[i] = it->second;
        } else {
            itemOf[i] = items.size();
            items.push_back(i);
        }
    }

    // Every item writes only its own slot, so the result is the same
    // for any thread count.
    std::vector<cache::LevelStats> itemStats(items.size());
    parallelFor(items.size(), opts.numThreads, [&](std::size_t n) {
        const std::size_t i = items[n];
        if (tables[i]) {
            itemStats[n] = simulateCompiled(geom, *tables[i], t);
            return;
        }
        cache::Cache c(geom, specs[i], "eval",
                       opts.laneSeeds.empty() ? opts.seed
                                              : opts.laneSeeds[i]);
        for (const cache::Addr a : t)
            c.access(a);
        itemStats[n] = c.stats();
    });

    std::vector<cache::LevelStats> stats(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        stats[i] = itemStats[itemOf[i]];
    return stats;
}

} // namespace recap::eval
