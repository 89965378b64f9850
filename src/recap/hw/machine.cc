#include "recap/hw/machine.hh"

#include "recap/common/error.hh"
#include "recap/eval/hierarchy_eval.hh"
#include "recap/policy/factory.hh"

namespace recap::hw
{

namespace
{

/** Flattens per-level stats into a fault-injectable word vector. */
CounterSnapshot
flatten(const PerfCounts& counts)
{
    CounterSnapshot snap;
    snap.words.reserve(counts.levels.size() * 3 + 1);
    for (const auto& lvl : counts.levels) {
        snap.words.push_back(lvl.accesses);
        snap.words.push_back(lvl.hits);
        snap.words.push_back(lvl.misses);
    }
    snap.words.push_back(counts.memoryAccesses);
    return snap;
}

void
unflatten(const CounterSnapshot& snap, PerfCounts& counts)
{
    std::size_t w = 0;
    for (auto& lvl : counts.levels) {
        lvl.accesses = snap.words[w++];
        lvl.hits = snap.words[w++];
        lvl.misses = snap.words[w++];
    }
    counts.memoryAccesses = snap.words[w++];
}

} // namespace

Machine::Machine(const MachineSpec& spec, uint64_t seed,
                 const NoiseConfig& noise)
    : Machine(spec, seed, FaultConfig::fromNoise(noise))
{}

Machine::Machine(const MachineSpec& spec, uint64_t seed,
                 const FaultConfig& faults)
    : spec_(spec), hierarchy_(eval::buildHierarchy(spec_, seed)),
      faults_(faults, seed, spec.levels.front().geometry())
{}

uint64_t
Machine::timedAccess(cache::Addr addr)
{
    uint64_t penalty = 0;
    const unsigned level = issue(addr, &penalty);
    return faults_.perturbLatency(hierarchy_.latencyOf(level),
                                  penalty);
}

void
Machine::access(cache::Addr addr)
{
    issue(addr);
}

void
Machine::accessAll(const std::vector<cache::Addr>& addrs)
{
    for (cache::Addr a : addrs)
        issue(a);
}

void
Machine::wbinvd()
{
    hierarchy_.flushAll();
}

PerfCounts
Machine::counters() const
{
    PerfCounts counts;
    counts.levels.reserve(depth());
    for (unsigned i = 0; i < depth(); ++i)
        counts.levels.push_back(hierarchy_.level(i).cache.stats());
    counts.memoryAccesses = memoryAccesses_;

    if (!faults_.config().anyCounterFaults())
        return counts;
    // A hostile machine may garble or drop the read: the returned
    // snapshot is what the experimenter's counter read observed, not
    // necessarily the truth.
    unflatten(faults_.readCounters(flatten(counts)), counts);
    return counts;
}

unsigned
Machine::classifyLatency(uint64_t cycles) const
{
    // Thresholds halfway between adjacent documented latencies.
    for (unsigned i = 0; i < depth(); ++i) {
        const uint64_t this_lat = hierarchy_.latencyOf(i);
        const uint64_t next_lat = hierarchy_.latencyOf(i + 1);
        if (cycles <= (this_lat + next_lat) / 2)
            return i;
    }
    return depth();
}

policy::PolicyPtr
Machine::groundTruthPolicy(unsigned level) const
{
    require(level < depth(), "Machine::groundTruthPolicy: level range");
    const auto& lvl = spec_.levels[level];
    return policy::makePolicy(lvl.policySpec, lvl.ways);
}

bool
Machine::groundTruthAdaptive(unsigned level) const
{
    require(level < depth(),
            "Machine::groundTruthAdaptive: level range");
    return spec_.levels[level].isAdaptive();
}

const cache::Geometry&
Machine::levelGeometry(unsigned level) const
{
    require(level < depth(), "Machine::levelGeometry: level range");
    return hierarchy_.level(level).cache.geometry();
}

bool
Machine::levelAdaptive(unsigned level) const
{
    require(level < depth(), "Machine::levelAdaptive: level range");
    return hierarchy_.level(level).cache.isAdaptive();
}

cache::Cache::SetRole
Machine::levelSetRole(unsigned level, unsigned set) const
{
    require(level < depth(), "Machine::levelSetRole: level range");
    return hierarchy_.level(level).cache.setRole(set);
}

unsigned
Machine::levelPsel(unsigned level) const
{
    require(level < depth(), "Machine::levelPsel: level range");
    return hierarchy_.level(level).cache.psel();
}

void
Machine::injectAccess(cache::Addr addr)
{
    if (hierarchy_.access(addr) == depth())
        ++memoryAccesses_;
}

unsigned
Machine::issue(cache::Addr addr, uint64_t* latencyPenalty)
{
    ++loadsIssued_;
    FaultModel::Interference plan = faults_.beforeLoad(addr);
    // Legacy disturbances model another measurement-visible actor and
    // count as issued loads; prefetcher/interrupt traffic perturbs
    // cache state and per-level counters only.
    for (cache::Addr d : plan.disturbances) {
        injectAccess(d);
        ++loadsIssued_;
    }
    for (cache::Addr b : plan.background)
        injectAccess(b);
    if (latencyPenalty)
        *latencyPenalty = plan.latencyPenalty;

    const unsigned level = hierarchy_.access(addr);
    if (level == depth())
        ++memoryAccesses_;
    return level;
}

} // namespace recap::hw
