/**
 * @file
 * The simulated machine under test.
 *
 * Machine is the stand-in for the physical Intel boxes of the paper.
 * Reverse-engineering code may use only the observables a real
 * microbenchmark has:
 *   - issue a load to an address and read how many cycles it took
 *     (rdtsc-style), or
 *   - read per-level hit/miss event counters
 *     (performance-counter-style), and
 *   - flush all caches (wbinvd-style).
 *
 * A configurable noise model perturbs both observables so that the
 * robustness machinery (experiment repetition + majority voting) is
 * exercised exactly as on real hardware.
 */

#ifndef RECAP_HW_MACHINE_HH_
#define RECAP_HW_MACHINE_HH_

#include <cstdint>
#include <vector>

#include "recap/cache/hierarchy.hh"
#include "recap/common/rng.hh"
#include "recap/hw/faults.hh"
#include "recap/hw/spec.hh"

namespace recap::hw
{

/**
 * Legacy flat noise configuration — a thin compatibility shim over
 * FaultConfig (see faults.hh for the composable model). Maps to the
 * disturb + jitter sources via FaultConfig::fromNoise().
 */
struct NoiseConfig
{
    /**
     * Probability, per issued load, that a disturbing access (model
     * of a prefetcher or another core) touches a random line in the
     * same set as the load before it executes.
     */
    double disturbProbability = 0.0;

    /** Probability that a latency reading is garbled (+/- jitter). */
    double latencyJitterProbability = 0.0;

    /** Magnitude of latency jitter in cycles. */
    unsigned latencyJitterCycles = 30;
};

/** Cumulative per-level event counts (performance counters). */
struct PerfCounts
{
    std::vector<cache::LevelStats> levels;
    uint64_t memoryAccesses = 0;
};

/**
 * A machine under test built from a MachineSpec.
 *
 * The hierarchy and its ground-truth policies are private; tests may
 * use groundTruth() to validate inference results, but inference
 * code itself must restrict itself to the measurement interface.
 */
class Machine
{
  public:
    /**
     * @param spec  Machine description; validated.
     * @param seed  Seed for stochastic policies and the noise model.
     * @param noise Legacy measurement noise configuration.
     */
    explicit Machine(const MachineSpec& spec, uint64_t seed = 1,
                     const NoiseConfig& noise = {});

    /**
     * @param spec   Machine description; validated.
     * @param seed   Seed for stochastic policies and fault injection.
     * @param faults Composable interference model (see faults.hh).
     */
    Machine(const MachineSpec& spec, uint64_t seed,
            const FaultConfig& faults);

    const MachineSpec& spec() const { return spec_; }

    /** The active fault configuration. */
    const FaultConfig& faultConfig() const
    {
        return faults_.config();
    }

    /** Number of cache levels. */
    unsigned depth() const { return hierarchy_.depth(); }

    /** Issues a load and returns its (possibly noisy) latency. */
    uint64_t timedAccess(cache::Addr addr);

    /** Issues a load without timing it. */
    void access(cache::Addr addr);

    /** Issues a sequence of untimed loads. */
    void accessAll(const std::vector<cache::Addr>& addrs);

    /** Flushes all cache levels (wbinvd). */
    void wbinvd();

    /**
     * Reads the performance counters. Under counter faults the read
     * may be garbled or dropped (stale snapshot); otherwise exact.
     */
    PerfCounts counters() const;

    /** Total loads issued so far (measurement-cost accounting). */
    uint64_t loadsIssued() const { return loadsIssued_; }

    /**
     * Classifies a latency reading into the level it indicates:
     * 0..depth()-1 for cache levels, depth() for memory. Thresholds
     * are the midpoints between the spec's documented latencies,
     * which a real experimenter calibrates the same way.
     */
    unsigned classifyLatency(uint64_t cycles) const;

    /**
     * Ground-truth access for tests and reporting ONLY: a clone of
     * the policy automaton driving level @p level (set 0's instance).
     */
    policy::PolicyPtr groundTruthPolicy(unsigned level) const;

    /** Ground-truth adaptivity flag for level @p level. */
    bool groundTruthAdaptive(unsigned level) const;

    /**
     * White-box inspection for tests and experiment reporting ONLY —
     * inference code must not use these. Thin passthroughs to the
     * caches of the underlying cache::Hierarchy.
     */
    const cache::Geometry& levelGeometry(unsigned level) const;
    bool levelAdaptive(unsigned level) const;
    cache::Cache::SetRole levelSetRole(unsigned level,
                                       unsigned set) const;
    unsigned levelPsel(unsigned level) const;

  private:
    /**
     * Performs a load, returns the hit level (depth() = memory) and
     * the latency penalty injected interference charged to it.
     */
    unsigned issue(cache::Addr addr, uint64_t* latencyPenalty = nullptr);

    /** Injects one interfering access (not an experimenter load). */
    void injectAccess(cache::Addr addr);

    MachineSpec spec_;
    // Wired by eval::buildHierarchy, like evaluateHierarchy's.
    cache::Hierarchy hierarchy_;
    // Mutable: counter-read faults (garble/drop) consume RNG state
    // even though counters() is logically const for the experimenter.
    mutable FaultModel faults_;
    uint64_t loadsIssued_ = 0;
    uint64_t memoryAccesses_ = 0;
};

} // namespace recap::hw

#endif // RECAP_HW_MACHINE_HH_
