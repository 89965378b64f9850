#include "recap/infer/measurement.hh"

#include "recap/common/error.hh"

namespace recap::infer
{

MeasurementContext::MeasurementContext(hw::Machine& machine)
    : machine_(machine)
{}

void
MeasurementContext::flush()
{
    machine_.wbinvd();
}

void
MeasurementContext::access(cache::Addr addr)
{
    machine_.access(addr);
}

bool
MeasurementContext::countedHit(unsigned level, cache::Addr addr)
{
    return observeAtLevel(level, addr).hit;
}

MeasurementContext::LevelObservation
MeasurementContext::observeAtLevel(unsigned level, cache::Addr addr)
{
    require(level < machine_.depth(),
            "MeasurementContext::observeAtLevel: level range");
    const auto before = machine_.counters();
    machine_.access(addr);
    const auto after = machine_.counters();

    LevelObservation obs;
    obs.hit = after.levels[level].hits > before.levels[level].hits;
    obs.reached = after.levels[level].accesses >
                  before.levels[level].accesses;
    return obs;
}

MeasurementContext::TimedReading
MeasurementContext::timedReading(cache::Addr addr)
{
    TimedReading r;
    r.cycles = machine_.timedAccess(addr);
    r.level = machine_.classifyLatency(r.cycles);
    r.outlier = outlierFence_ != 0 && r.cycles > outlierFence_;
    return r;
}

void
MeasurementContext::calibrateLatencyFence(unsigned samples)
{
    require(samples >= 1,
            "MeasurementContext::calibrateLatencyFence: need samples");
    beginExperiment();
    flush();
    // Cold, never-reused lines far above any probing range; the
    // stride skips many lines so a stream prefetcher cannot train on
    // the calibration run itself. Every load is served from memory —
    // the slowest genuine latency — so anything beyond the fence must
    // be interference (TLB walk, interrupt stall).
    const cache::Addr base = uint64_t{1} << 52;
    const uint64_t stride = uint64_t{1} << 20;
    std::vector<uint64_t> readings;
    readings.reserve(samples);
    for (unsigned i = 0; i < samples; ++i)
        readings.push_back(machine_.timedAccess(base + stride * i));
    outlierFence_ = outlierFence(robustStats(std::move(readings)));
}

bool
majorityVote(unsigned repeats, const std::function<bool()>& experiment)
{
    require(repeats >= 1, "majorityVote: need at least one repeat");
    return adaptiveVote(fixedSchedule(repeats), experiment).value();
}

} // namespace recap::infer
