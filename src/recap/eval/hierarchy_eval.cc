#include "recap/eval/hierarchy_eval.hh"

#include "recap/common/error.hh"

namespace recap::eval
{

cache::Hierarchy
buildHierarchy(const hw::MachineSpec& spec, uint64_t seed,
               cache::InclusionMode mode)
{
    spec.validate();
    cache::Hierarchy hierarchy(spec.memoryLatency, mode);
    uint64_t level_seed = seed;
    for (const auto& lvl : spec.levels) {
        if (lvl.isAdaptive()) {
            hierarchy.addLevel(
                cache::Cache(lvl.geometry(), lvl.policySpec,
                             lvl.policySpecB, lvl.duel, lvl.name,
                             level_seed),
                lvl.hitLatency);
        } else {
            hierarchy.addLevel(
                cache::Cache(lvl.geometry(), lvl.policySpec, lvl.name,
                             level_seed),
                lvl.hitLatency);
        }
        level_seed += 0x10001;
    }
    return hierarchy;
}

namespace
{

/**
 * Runs @p count accesses through @p hierarchy; @p accessOne
 * performs access i and returns the level that served it.
 */
template <typename AccessFn>
HierarchyResult
run(cache::Hierarchy& hierarchy, std::size_t count,
    AccessFn&& accessOne)
{
    HierarchyResult result;
    result.servedBy.assign(hierarchy.depth() + 1, 0);
    for (std::size_t i = 0; i < count; ++i)
        ++result.servedBy[accessOne(i)];
    // The cycle total follows from the served-level histogram.
    for (unsigned l = 0; l <= hierarchy.depth(); ++l)
        result.totalCycles +=
            result.servedBy[l] * uint64_t{hierarchy.latencyOf(l)};
    result.accesses = count;
    for (unsigned i = 0; i < hierarchy.depth(); ++i) {
        const cache::Cache& c = hierarchy.level(i).cache;
        result.levelNames.push_back(c.name());
        result.levels.push_back(c.stats());
    }
    return result;
}

} // namespace

HierarchyResult
evaluateHierarchy(const hw::MachineSpec& spec, const trace::Trace& t,
                  uint64_t seed)
{
    HierarchyOptions opts;
    opts.seed = seed;
    return evaluateHierarchy(spec, t, opts);
}

HierarchyResult
evaluateHierarchy(const hw::MachineSpec& spec,
                  const trace::RefTrace& refs, uint64_t seed)
{
    HierarchyOptions opts;
    opts.seed = seed;
    return evaluateHierarchy(spec, refs, opts);
}

HierarchyResult
evaluateHierarchy(const hw::MachineSpec& spec, const trace::Trace& t,
                  const HierarchyOptions& opts)
{
    cache::Hierarchy h = buildHierarchy(spec, opts.seed, opts.inclusion);
    return run(h, t.size(), [&](std::size_t i) { return h.access(t[i]); });
}

HierarchyResult
evaluateHierarchy(const hw::MachineSpec& spec,
                  const trace::RefTrace& refs,
                  const HierarchyOptions& opts)
{
    cache::Hierarchy h = buildHierarchy(spec, opts.seed, opts.inclusion);
    return run(h, refs.size(), [&](std::size_t i) {
        return h.access(refs[i].addr, refs[i].write);
    });
}

hw::MachineSpec
withLevelPolicy(const hw::MachineSpec& spec, unsigned level,
                const std::string& policySpec)
{
    require(level < spec.levels.size(),
            "withLevelPolicy: level out of range");
    hw::MachineSpec modified = spec;
    modified.levels[level].policySpec = policySpec;
    modified.levels[level].policySpecB.clear();
    modified.validate();
    return modified;
}

} // namespace recap::eval
