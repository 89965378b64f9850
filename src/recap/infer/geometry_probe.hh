/**
 * @file
 * Measurement-based discovery of cache geometry (line size, number
 * of sets, associativity) for every level of the machine under test.
 *
 * Technique: cycle a working set of n lines at a stride S and watch
 * a level's steady-state miss counters.
 *  - With S chosen as a huge power of two (a multiple of every
 *    plausible set stride), all n lines land in one set of every
 *    level, so the largest n with zero steady misses is the
 *    associativity.
 *  - With n = ways+1 fixed, the smallest S that still produces
 *    steady misses is the level's set stride lineSize * numSets.
 *
 * Both observations hold for any replacement policy that keeps a
 * working set of at most `ways` cyclically accessed lines resident
 * (true for every deterministic policy in recap: hits never evict)
 * and must miss at least once per round on ways+1 lines (pigeonhole).
 */

#ifndef RECAP_INFER_GEOMETRY_PROBE_HH_
#define RECAP_INFER_GEOMETRY_PROBE_HH_

#include <cstdint>
#include <vector>

#include "recap/cache/geometry.hh"
#include "recap/infer/measurement.hh"

namespace recap::infer
{

/** Geometry discovered for one level. */
struct LevelGeometry
{
    unsigned lineSize = 0;
    unsigned numSets = 0;
    unsigned ways = 0;

    /** Byte distance between lines that share this level's set. */
    uint64_t setStride() const
    {
        return static_cast<uint64_t>(lineSize) * numSets;
    }

    uint64_t capacityBytes() const
    {
        return setStride() * ways;
    }

    cache::Geometry toGeometry() const
    {
        return cache::Geometry{lineSize, numSets, ways};
    }

    bool operator==(const LevelGeometry& other) const = default;
};

/** Geometry discovered for the whole machine. */
struct DiscoveredGeometry
{
    unsigned lineSize = 0;
    std::vector<LevelGeometry> levels;
};

/**
 * The geometry a spec documents, in discovered form — the white-box
 * shortcut for tools and tests that want a SetProber without paying
 * for the measurement-based discovery. Inference pipelines must keep
 * using GeometryProbe.
 */
DiscoveredGeometry assumedGeometry(const hw::MachineSpec& spec);

/** Tuning knobs for the probe. */
struct GeometryProbeConfig
{
    cache::Addr baseAddr = uint64_t{1} << 32; ///< probe anchor
    unsigned voteRepeats = 1; ///< full-experiment majority voting
};

/**
 * Runs the geometry-discovery experiments against a machine.
 */
class GeometryProbe
{
  public:
    GeometryProbe(MeasurementContext& ctx,
                  const GeometryProbeConfig& cfg = {})
        : ctx_(ctx), cfg_(cfg)
    {}

    /** Discovers the line size (assumed shared by all levels). */
    unsigned discoverLineSize();

    /**
     * Discovers set count and associativity of @p level. Requires
     * the line size to be known (pass the result of
     * discoverLineSize()).
     */
    LevelGeometry discoverLevel(unsigned level, unsigned lineSize);

    /** Full staged discovery: line size, then every level. */
    DiscoveredGeometry discoverAll();

  private:
    /**
     * Cycles @p count lines spaced @p stride bytes apart and reports
     * whether level @p level keeps missing in steady state.
     */
    bool steadyMisses(unsigned level, unsigned count, uint64_t stride);

    MeasurementContext& ctx_;
    GeometryProbeConfig cfg_;
};

} // namespace recap::infer

#endif // RECAP_INFER_GEOMETRY_PROBE_HH_
