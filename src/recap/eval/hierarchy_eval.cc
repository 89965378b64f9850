#include "recap/eval/hierarchy_eval.hh"

#include "recap/common/error.hh"
#include "recap/hier/hierarchy.hh"
#include "recap/hier/simulate.hh"

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

template <typename TraceT>
HierarchyResult
runCompiled(const hw::MachineSpec& spec, const TraceT& t,
            const HierarchyOptions& opts)
{
    hier::Options hopts;
    hopts.mode = opts.inclusion;
    hopts.budget = opts.budget;
    hier::Hierarchy hierarchy(spec, opts.seed, hopts);
    const hier::RunResult run = hier::runTrace(hierarchy, t);

    HierarchyResult result;
    result.servedBy = run.servedBy;
    result.accesses = run.accesses;
    result.totalCycles = run.totalCycles;
    for (unsigned i = 0; i < hierarchy.depth(); ++i) {
        result.levelNames.push_back(hierarchy.name(i));
        result.levels.push_back(hierarchy.stats(i));
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
    return runCompiled(spec, t, opts);
}

HierarchyResult
evaluateHierarchy(const hw::MachineSpec& spec,
                  const trace::RefTrace& refs,
                  const HierarchyOptions& opts)
{
    return runCompiled(spec, refs, opts);
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
