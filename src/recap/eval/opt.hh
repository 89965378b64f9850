/**
 * @file
 * Belady's OPT: the offline-optimal replacement baseline used to
 * lower-bound every policy's miss ratio in the evaluation figures.
 */

#ifndef RECAP_EVAL_OPT_HH_
#define RECAP_EVAL_OPT_HH_

#include "recap/cache/cache.hh"
#include "recap/trace/trace.hh"

namespace recap::eval
{

/**
 * Simulates @p t against a cache with Belady's optimal replacement
 * (evict the resident line whose next use is farthest in the
 * future; ties go to the larger block number). Exact, per-set,
 * O(n * ways).
 */
cache::LevelStats
simulateOpt(const cache::Geometry& geom, const trace::Trace& t);

} // namespace recap::eval

#endif // RECAP_EVAL_OPT_HH_
