#include "recap/eval/simulate.hh"

#include "recap/common/error.hh"

namespace recap::eval
{

cache::LevelStats
simulateTrace(const cache::Geometry& geom,
              const std::string& policySpec, const trace::Trace& t,
              uint64_t seed)
{
    cache::Cache c(geom, policySpec, "eval", seed);
    simulateOn(c, t);
    return c.stats();
}

cache::LevelStats
simulateTraceAdaptive(const cache::Geometry& geom,
                      const std::string& specA,
                      const std::string& specB,
                      const cache::DuelingConfig& duel,
                      const trace::Trace& t, uint64_t seed)
{
    cache::Cache c(geom, specA, specB, duel, "eval-adaptive", seed);
    simulateOn(c, t);
    return c.stats();
}

cache::LevelStats
simulatePcTrace(const cache::Geometry& geom,
                const std::string& policySpec,
                const trace::PcTrace& t, uint64_t seed)
{
    cache::Cache c(geom, policySpec, "eval-pc", seed);
    simulateOn(c, t);
    return c.stats();
}

void
simulateOn(cache::Cache& cache, const trace::Trace& t)
{
    for (cache::Addr a : t)
        cache.access(a);
}

void
simulateOn(cache::Cache& cache, const trace::PcTrace& t)
{
    for (const trace::PcAccess& a : t)
        cache.accessWithPc(a.addr, a.pc);
}

std::vector<double>
windowedMissRatios(cache::Cache& cache, const trace::Trace& t,
                   size_t windowSize)
{
    require(windowSize >= 1,
            "windowedMissRatios: window must be >= 1");
    std::vector<double> ratios;
    size_t in_window = 0;
    size_t misses = 0;
    for (cache::Addr a : t) {
        if (!cache.access(a))
            ++misses;
        if (++in_window == windowSize) {
            ratios.push_back(static_cast<double>(misses) /
                             static_cast<double>(windowSize));
            in_window = 0;
            misses = 0;
        }
    }
    if (in_window > 0) {
        ratios.push_back(static_cast<double>(misses) /
                         static_cast<double>(in_window));
    }
    return ratios;
}

} // namespace recap::eval
