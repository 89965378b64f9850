/**
 * @file
 * Batch trace-simulation kernel over compiled policy automata.
 *
 * This is the devirtualized hot path of trace-driven evaluation: the
 * cache is represented structure-of-arrays (one flat tag array, one
 * fill cursor and one integer policy-control-state per set) and every
 * access is a tag scan plus one transition-table lookup — no virtual
 * dispatch, no allocation, no per-set policy objects. Following the
 * measurement-kernel discipline of nanoBench/CacheQuery, the kernel
 * does exactly what cache::Cache does for read-only traces and is
 * pinned bit-exact against it by tests/test_kernel.cc (stats, final
 * tags, and final policy state keys all equal).
 *
 * simulateTracesBatch() runs many traces of one policy: the policy is
 * compiled once and the traces fan out over the shared TaskPool (see
 * common/parallel.hh), so sweeps stop paying per-call pool spin-up.
 * Policies that exceed the compile budget transparently fall back to
 * the interpreted cache::Cache path — same results, interpreter speed.
 */

#ifndef RECAP_EVAL_KERNEL_HH_
#define RECAP_EVAL_KERNEL_HH_

#include <string>
#include <vector>

#include "recap/cache/cache.hh"
#include "recap/policy/compiled.hh"
#include "recap/trace/trace.hh"

namespace recap::eval
{

/** Execution knobs of the kernel entry points. */
struct KernelOptions
{
    /** Seed for stochastic policies (interpreted fallback only). */
    uint64_t seed = 1;

    /**
     * Worker threads for simulateTracesBatch (0 = hardware
     * concurrency via the shared pool, 1 = serial). Per-trace results
     * are independent, so every value yields identical stats.
     */
    unsigned numThreads = 0;

    /** State budget for policy compilation. */
    policy::CompileBudget budget;
};

/** Final state of one set, for differential tests. */
struct SetImage
{
    std::vector<uint64_t> tags;  ///< tags of the valid ways
    std::vector<bool> valid;     ///< validity per way
    std::string policyKey;       ///< policy stateKey()

    bool operator==(const SetImage&) const = default;
};

/**
 * Runs @p t through a single-level cache described by @p geom on the
 * compiled tables @p table (read-only accesses). When @p finalImage
 * is non-null it receives one SetImage per set after the run.
 */
cache::LevelStats
simulateCompiled(const cache::Geometry& geom,
                 const policy::CompiledTable& table,
                 const trace::Trace& t,
                 std::vector<SetImage>* finalImage = nullptr);

/**
 * simulateTrace() with explicit kernel knobs: compiled fast path when
 * the policy fits the budget, interpreted cache::Cache otherwise.
 * Results are identical either way.
 */
cache::LevelStats
simulateTraceKernel(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const trace::Trace& t,
                    const KernelOptions& opts = {});

/**
 * Simulates many traces against the same (geometry, policy), sharing
 * one compiled table and the process-wide TaskPool. Result i
 * corresponds to traces[i]; stochastic fallback policies simulate
 * trace i with deriveTaskSeed(opts.seed, i).
 */
std::vector<cache::LevelStats>
simulateTracesBatch(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const std::vector<const trace::Trace*>& traces,
                    const KernelOptions& opts = {});

} // namespace recap::eval

#endif // RECAP_EVAL_KERNEL_HH_
