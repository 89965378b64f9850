/**
 * @file
 * Whole-hierarchy evaluation: run a trace through a multi-level
 * cache configuration and report per-level statistics plus the
 * average memory access time (AMAT) — the end-to-end performance
 * lens on the reverse-engineered policies.
 *
 * evaluateHierarchy() drives the interpreted cache::Hierarchy that
 * buildHierarchy() wires up, the same wiring hw::Machine uses.
 */

#ifndef RECAP_EVAL_HIERARCHY_EVAL_HH_
#define RECAP_EVAL_HIERARCHY_EVAL_HH_

#include <string>
#include <vector>

#include "recap/cache/hierarchy.hh"
#include "recap/hw/spec.hh"
#include "recap/trace/trace.hh"

namespace recap::eval
{

/** Per-level and end-to-end results of a hierarchy run. */
struct HierarchyResult
{
    std::vector<std::string> levelNames;
    std::vector<cache::LevelStats> levels;
    /** Hits served by each level; last entry = memory accesses. */
    std::vector<uint64_t> servedBy;
    uint64_t accesses = 0;
    uint64_t totalCycles = 0;

    /** Average memory access time in cycles. */
    double amat() const
    {
        return accesses ? static_cast<double>(totalCycles) /
                          static_cast<double>(accesses) : 0.0;
    }
};

/** Evaluation knobs beyond the bare seed. */
struct HierarchyOptions
{
    uint64_t seed = 1;

    /** Cross-level content discipline. */
    cache::InclusionMode inclusion =
        cache::InclusionMode::kNonInclusive;
};

/**
 * Builds a Hierarchy from a machine spec: level i is seeded
 * seed + i * 0x10001. hw::Machine and evaluateHierarchy() both wire
 * their hierarchies here.
 */
cache::Hierarchy buildHierarchy(
    const hw::MachineSpec& spec, uint64_t seed = 1,
    cache::InclusionMode mode = cache::InclusionMode::kNonInclusive);

/** Runs a load trace through the spec's hierarchy. */
HierarchyResult evaluateHierarchy(const hw::MachineSpec& spec,
                                  const trace::Trace& t,
                                  uint64_t seed = 1);

/** Runs a reference (load/store) trace through the hierarchy. */
HierarchyResult evaluateHierarchy(const hw::MachineSpec& spec,
                                  const trace::RefTrace& refs,
                                  uint64_t seed = 1);

/** Runs a load trace with explicit options. */
HierarchyResult evaluateHierarchy(const hw::MachineSpec& spec,
                                  const trace::Trace& t,
                                  const HierarchyOptions& opts);

/** Runs a reference trace with explicit options. */
HierarchyResult evaluateHierarchy(const hw::MachineSpec& spec,
                                  const trace::RefTrace& refs,
                                  const HierarchyOptions& opts);

/**
 * Convenience: a copy of @p spec with level @p level's policy
 * replaced by @p policySpec (and adaptivity removed at that level) —
 * for "what if this machine used policy X here?" comparisons.
 */
hw::MachineSpec withLevelPolicy(const hw::MachineSpec& spec,
                                unsigned level,
                                const std::string& policySpec);

} // namespace recap::eval

#endif // RECAP_EVAL_HIERARCHY_EVAL_HH_
