#include "recap/eval/kernel.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/common/parallel.hh"

namespace recap::eval
{

namespace
{

/**
 * The devirtualized access loop, templated over the transition-table
 * element width and the associativity: narrow (uint16) tables halve
 * the state-indexed working set and are used whenever the automaton
 * fits (see CompiledTable::narrow()); a compile-time kFixedWays (0 =
 * dynamic) lets the compiler unroll and vectorize the tag scan and
 * turn the row multiply into a shift. Every instantiation runs the
 * identical algorithm, so results cannot differ.
 */
template <typename State, unsigned kFixedWays>
uint64_t
kernelLoop(const trace::Trace& t, unsigned dynWays,
           unsigned offsetBits, unsigned setBits, uint64_t setMask,
           const State* __restrict touchNext,
           const State* __restrict fillNext,
           const uint16_t* __restrict victim,
           uint64_t* __restrict tags, uint32_t* __restrict state,
           uint16_t* __restrict filled, uint64_t& evictions)
{
    const unsigned ways = kFixedWays != 0 ? kFixedWays : dynWays;
    uint64_t hits = 0;
    for (const cache::Addr addr : t) {
        const uint64_t block = addr >> offsetBits;
        const auto set = static_cast<unsigned>(block & setMask);
        const uint64_t tag = block >> setBits;

        uint64_t* setTags = tags +
                            static_cast<std::size_t>(set) * ways;
        const unsigned live = filled[set];
        const uint32_t s = state[set];
        const std::size_t row = static_cast<std::size_t>(s) * ways;

        // Branchless scan of the whole row, keeping the lowest
        // matching way. Ways fill bottom-up and the kernel never
        // invalidates, so valid ways are exactly [0, live) and valid
        // tags within a set are unique; the zero-initialized tags of
        // ways >= live can only produce a spurious lowest match at an
        // index >= live, which the hit test below rejects.
        unsigned way = ways;
        for (unsigned w = ways; w-- > 0;) {
            if (setTags[w] == tag)
                way = w;
        }
        if (way < live) {
            ++hits;
            state[set] = touchNext[row + way];
            continue;
        }
        if (live < ways) {
            way = live;
            filled[set] = static_cast<uint16_t>(live + 1);
        } else {
            way = victim[s];
            ++evictions;
        }
        setTags[way] = tag;
        state[set] = fillNext[row + way];
    }
    return hits;
}

template <typename State>
uint64_t
runKernel(const trace::Trace& t, unsigned ways, unsigned offsetBits,
          unsigned setBits, uint64_t setMask, const State* touchNext,
          const State* fillNext, const uint16_t* victim,
          uint64_t* tags, uint32_t* state, uint16_t* filled,
          uint64_t& evictions)
{
    switch (ways) {
    case 2:
        return kernelLoop<State, 2>(t, ways, offsetBits, setBits,
                                    setMask, touchNext, fillNext,
                                    victim, tags, state, filled,
                                    evictions);
    case 4:
        return kernelLoop<State, 4>(t, ways, offsetBits, setBits,
                                    setMask, touchNext, fillNext,
                                    victim, tags, state, filled,
                                    evictions);
    case 8:
        return kernelLoop<State, 8>(t, ways, offsetBits, setBits,
                                    setMask, touchNext, fillNext,
                                    victim, tags, state, filled,
                                    evictions);
    case 16:
        return kernelLoop<State, 16>(t, ways, offsetBits, setBits,
                                     setMask, touchNext, fillNext,
                                     victim, tags, state, filled,
                                     evictions);
    default:
        return kernelLoop<State, 0>(t, ways, offsetBits, setBits,
                                    setMask, touchNext, fillNext,
                                    victim, tags, state, filled,
                                    evictions);
    }
}

} // namespace

cache::LevelStats
simulateCompiled(const cache::Geometry& geom,
                 const policy::CompiledTable& table,
                 const trace::Trace& t,
                 std::vector<SetImage>* finalImage)
{
    geom.validate();
    require(table.ways() == geom.ways,
            "simulateCompiled: table/geometry associativity mismatch");

    const unsigned numSets = geom.numSets;
    const unsigned ways = geom.ways;
    const unsigned offsetBits = log2Floor(geom.lineSize);
    const unsigned setBits = log2Floor(numSets);
    const uint64_t setMask = numSets - 1;

    // Structure-of-arrays set state. The kernel never invalidates, so
    // the valid ways of a set are exactly [0, filled): the fill
    // cursor doubles as the "lowest invalid way" the cache model
    // fills on cold misses.
    std::vector<uint64_t> tags(static_cast<std::size_t>(numSets) *
                               ways);
    std::vector<uint32_t> state(numSets, 0);
    std::vector<uint16_t> filled(numSets, 0);

    uint64_t evictions = 0;
    const uint64_t hits =
        table.narrow()
            ? runKernel(t, ways, offsetBits, setBits, setMask,
                        table.touchData16(), table.fillData16(),
                        table.victimData(), tags.data(), state.data(),
                        filled.data(), evictions)
            : runKernel(t, ways, offsetBits, setBits, setMask,
                        table.touchData(), table.fillData(),
                        table.victimData(), tags.data(), state.data(),
                        filled.data(), evictions);

    cache::LevelStats stats;
    stats.accesses = t.size();
    stats.hits = hits;
    stats.misses = t.size() - hits;
    stats.evictions = evictions;

    if (finalImage) {
        finalImage->clear();
        finalImage->reserve(numSets);
        for (unsigned set = 0; set < numSets; ++set) {
            SetImage image;
            image.tags.assign(ways, 0);
            image.valid.assign(ways, false);
            for (unsigned w = 0; w < filled[set]; ++w) {
                image.tags[w] =
                    tags[static_cast<std::size_t>(set) * ways + w];
                image.valid[w] = true;
            }
            image.policyKey = table.stateKey(state[set]);
            finalImage->push_back(std::move(image));
        }
    }
    return stats;
}

namespace
{

cache::LevelStats
simulateInterpreted(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const trace::Trace& t, uint64_t seed)
{
    cache::Cache c(geom, policySpec, "eval", seed);
    for (const cache::Addr a : t)
        c.access(a);
    return c.stats();
}

} // namespace

cache::LevelStats
simulateTraceKernel(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const trace::Trace& t, const KernelOptions& opts)
{
    if (const policy::CompiledTablePtr table =
            policy::compiledTableFor(policySpec, geom.ways,
                                     opts.budget)) {
        return simulateCompiled(geom, *table, t);
    }
    return simulateInterpreted(geom, policySpec, t, opts.seed);
}

std::vector<cache::LevelStats>
simulateTracesBatch(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const std::vector<const trace::Trace*>& traces,
                    const KernelOptions& opts)
{
    const policy::CompiledTablePtr table =
        policy::compiledTableFor(policySpec, geom.ways, opts.budget);

    std::vector<cache::LevelStats> results(traces.size());
    parallelFor(traces.size(), opts.numThreads, [&](std::size_t i) {
        require(traces[i] != nullptr,
                "simulateTracesBatch: null trace");
        results[i] = table
            ? simulateCompiled(geom, *table, *traces[i])
            : simulateInterpreted(geom, policySpec, *traces[i],
                                  deriveTaskSeed(opts.seed, i));
    });
    return results;
}

} // namespace recap::eval
