/**
 * @file
 * Trace-driven evaluation: run a workload trace through a cache with
 * a chosen replacement policy and report the miss statistics.
 */

#ifndef RECAP_EVAL_SIMULATE_HH_
#define RECAP_EVAL_SIMULATE_HH_

#include <string>

#include "recap/cache/cache.hh"
#include "recap/trace/trace.hh"

namespace recap::eval
{

/**
 * Simulates @p t against a single-level cache (a cache::Cache built
 * from @p policySpec).
 *
 * @param geom       Cache geometry.
 * @param policySpec Replacement policy spec (policy::makePolicy).
 * @param t          Load-address trace.
 * @param seed       Seed for stochastic policies.
 */
cache::LevelStats
simulateTrace(const cache::Geometry& geom, const std::string& policySpec,
              const trace::Trace& t, uint64_t seed = 1);

/**
 * Simulates @p t against an adaptive (set-dueling) single-level
 * cache.
 */
cache::LevelStats
simulateTraceAdaptive(const cache::Geometry& geom,
                      const std::string& specA, const std::string& specB,
                      const cache::DuelingConfig& duel,
                      const trace::Trace& t, uint64_t seed = 1);

/**
 * Simulates a PC-annotated trace against a single-level cache,
 * feeding each access's program counter to the replacement policy
 * via the AccessMeta side channel. For meta-ignoring policies the
 * result is identical to simulateTrace() on the address projection.
 */
cache::LevelStats
simulatePcTrace(const cache::Geometry& geom,
                const std::string& policySpec, const trace::PcTrace& t,
                uint64_t seed = 1);

/**
 * Simulates @p t against an already-built cache (does not reset its
 * statistics first).
 */
void simulateOn(cache::Cache& cache, const trace::Trace& t);

/** PC-annotated variant of simulateOn(). */
void simulateOn(cache::Cache& cache, const trace::PcTrace& t);

/**
 * Miss ratios per consecutive window of @p windowSize accesses, for
 * time-resolved plots (adaptive dynamics).
 */
std::vector<double>
windowedMissRatios(cache::Cache& cache, const trace::Trace& t,
                   size_t windowSize);

} // namespace recap::eval

#endif // RECAP_EVAL_SIMULATE_HH_
