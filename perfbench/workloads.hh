/**
 * @file
 * The benchmark's three workloads. Each builds its inputs from the
 * workload seed (set-up), runs one timed phase of single-threaded
 * calls into recap, then checks its outputs outside the timed phase.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/checks.hh"

namespace perfbench
{

/** What one workload run measured and produced. */
struct RunResult
{
    /** Seconds from process start to the first timed call. */
    double setupS = 0.0;

    /** Wall seconds of the timed phase. */
    double runS = 0.0;

    /** Operations attempted/failed (levels, cells or analysis rows). */
    OpTally ops;

    /**
     * Accesses issued to simulated caches or policy models in the
     * timed phase: machine loads (infer), trace accesses (sweep) or
     * membership-query accesses (automata). Deterministic per seed.
     */
    uint64_t loads = 0;

    /**
     * Canonical rendering of every output (verdicts, cells, rows and
     * work counts); equal across traced and untraced runs of a seed.
     */
    std::vector<std::string> outputs;

    /** Checks that passed without proof (unverified equivalences). */
    std::vector<std::string> notes;
};

/** Names accepted by runWorkload(). */
const std::vector<std::string>& workloadNames();

/**
 * Runs workload @p name. @p startS is the process start on the
 * monotonic clock.
 * @throws std::invalid_argument for an unknown name.
 */
RunResult runWorkload(const std::string& name, uint64_t seed,
                      double startS);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
