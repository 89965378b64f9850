/**
 * @file
 * Pins of every vote the measurement layer casts on a hostile machine.
 *
 * SetProber, GeometryProbe and EvictionSetFinder decide each reading
 * by repeating an experiment and voting. These tests drive them on a
 * FaultConfig::hostile(0.5) machine under a fixed seed, fold every
 * verdict, confidence, determined flag and replay count into a digest
 * and pin it together with the loads and experiments the context
 * spent. Any change to a vote schedule, a tie rule or the order of
 * experiments moves a pin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/faults.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/eviction_sets.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/set_prober.hh"

namespace
{

using namespace recap;
using infer::BlockId;
using infer::MeasurementContext;
using infer::SetProber;
using infer::SetProberConfig;
using infer::VoteOutcome;

constexpr uint64_t kMachineSeed = 11;

/** FNV-1a over a textual record of every reading. */
class Digest
{
  public:
    void add(uint64_t v) { mix(std::to_string(v)); }

    void add(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%a", v);
        mix(buf);
    }

    void add(const VoteOutcome& v)
    {
        add(static_cast<uint64_t>(v.verdict));
        add(v.confidence);
        add(static_cast<uint64_t>(v.samples));
    }

    uint64_t value() const { return hash_; }

  private:
    void mix(const std::string& s)
    {
        for (unsigned char c : s + ";") {
            hash_ ^= c;
            hash_ *= 1099511628211ull;
        }
    }

    uint64_t hash_ = 14695981039346656037ull;
};

struct Pin
{
    uint64_t digest;
    uint64_t loads;
    uint64_t experiments;
};

std::string
describe(const Pin& p)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "{0x%016llxull, %llu, %llu}",
                  static_cast<unsigned long long>(p.digest),
                  static_cast<unsigned long long>(p.loads),
                  static_cast<unsigned long long>(p.experiments));
    return buf;
}

void
expectPin(const Pin& got, const Pin& want, const std::string& what)
{
    EXPECT_TRUE(got.digest == want.digest && got.loads == want.loads &&
                got.experiments == want.experiments)
        << what << ": got " << describe(got) << ", pinned "
        << describe(want);
}

hw::MachineSpec
hostileSpec()
{
    return hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
}

/** Random block sequences over a few more blocks than the set holds. */
std::vector<std::vector<BlockId>>
probeSequences(unsigned ways, unsigned count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<BlockId>> seqs;
    for (unsigned s = 0; s < count; ++s) {
        std::vector<BlockId> seq;
        const unsigned length = 2 * ways + rng.nextBelow(2 * ways);
        for (unsigned i = 0; i < length; ++i)
            seq.push_back(1 + rng.nextBelow(ways + 3));
        seqs.push_back(std::move(seq));
    }
    return seqs;
}

/**
 * Every reading of one prober configuration: survivesVote and
 * observeRobust in counter mode, then latency mode. With the
 * sequential test on, the latency readings are observeLevelsRobust's
 * behind a calibrated outlier fence; with fixed repeats they are
 * observeLevels' levels on an uncalibrated context, where no reading
 * is ever fenced.
 */
Pin
proberPin(const SetProberConfig& pc)
{
    const auto spec = hostileSpec();
    hw::Machine machine(spec, kMachineSeed, hw::FaultConfig::hostile(0.5));
    MeasurementContext ctx(machine);
    if (pc.vote.enabled)
        ctx.calibrateLatencyFence();
    SetProber prober(ctx, infer::assumedGeometry(spec), 1, pc);
    const unsigned k = prober.ways();

    Digest d;
    for (const auto& seq : probeSequences(k, 12, 101)) {
        for (BlockId probe : {seq.front(), seq.back(), BlockId{k + 3}})
            d.add(prober.survivesVote(seq, probe));
    }
    for (const auto& seq : probeSequences(k, 8, 202)) {
        const auto obs = prober.observeRobust(seq);
        for (std::size_t i = 0; i < seq.size(); ++i) {
            d.add(static_cast<uint64_t>(obs.hits[i]));
            d.add(obs.confidence[i]);
            d.add(static_cast<uint64_t>(obs.determined[i]));
        }
        d.add(static_cast<uint64_t>(obs.replays));
    }
    for (const auto& seq : probeSequences(k, 8, 303)) {
        if (!pc.vote.enabled) {
            for (unsigned level : prober.observeLevels(seq))
                d.add(static_cast<uint64_t>(level));
            continue;
        }
        const auto obs = prober.observeLevelsRobust(seq);
        for (std::size_t i = 0; i < seq.size(); ++i) {
            d.add(static_cast<uint64_t>(obs.levels[i]));
            d.add(obs.confidence[i]);
            d.add(static_cast<uint64_t>(obs.determined[i]));
        }
        d.add(static_cast<uint64_t>(obs.replays));
    }
    return {d.value(), ctx.loadsIssued(), ctx.experimentsRun()};
}

SetProberConfig
fixedVotes(unsigned repeats)
{
    SetProberConfig pc;
    pc.voteRepeats = repeats;
    return pc;
}

TEST(VotePins, FixedRepeatsOnHostileMachine)
{
    // An even count rounds up to the next odd one, so 2 and 3 agree.
    const std::pair<unsigned, Pin> pins[] = {
        {1, {0x010a7b2b372f5757ull, 21674, 52}},
        {2, {0xe05605880608fa49ull, 64911, 156}},
        {3, {0xe05605880608fa49ull, 64911, 156}},
        {9, {0x9becae4737c9f6f1ull, 194915, 468}},
    };
    for (const auto& [repeats, pin] : pins)
        expectPin(proberPin(fixedVotes(repeats)), pin,
                  "voteRepeats " + std::to_string(repeats));
}

TEST(VotePins, SequentialTestOnHostileMachine)
{
    // A budget this tight runs out on the machine's contradictory
    // readings, so some votes escalate and some abstain.
    SetProberConfig pc;
    pc.voteRepeats = 5; // ignored while the sequential test is on
    pc.vote.enabled = true;
    pc.vote.initialRepeats = 3;
    pc.vote.escalationStep = 2;
    pc.vote.maxRepeats = 5;
    pc.vote.settleMargin = 4;
    pc.vote.minConfidence = 0.9;
    expectPin(proberPin(pc), {0x46665af2dfbc1de0ull, 89057, 215},
              "sequential test");
}

TEST(VotePins, GeometryProbeAtThreeRepeats)
{
    const auto spec = hostileSpec();
    hw::Machine machine(spec, kMachineSeed, hw::FaultConfig::hostile(0.5));
    MeasurementContext ctx(machine);
    infer::GeometryProbeConfig gc;
    gc.voteRepeats = 3;
    infer::GeometryProbe probe(ctx, gc);

    Digest d;
    const unsigned line = probe.discoverLineSize();
    d.add(static_cast<uint64_t>(line));
    for (unsigned level = 0; level < ctx.depth(); ++level) {
        const auto g = probe.discoverLevel(level, line);
        d.add(static_cast<uint64_t>(g.numSets));
        d.add(static_cast<uint64_t>(g.ways));
    }
    expectPin({d.value(), ctx.loadsIssued(), ctx.experimentsRun()},
              {0xc2d6116a587758ecull, 6490, 111},
              "geometry probe");
}

TEST(VotePins, EvictionSetFinderAtThreeRepeats)
{
    const auto spec = hostileSpec();
    hw::Machine machine(spec, kMachineSeed, hw::FaultConfig::hostile(0.5));
    MeasurementContext ctx(machine);
    infer::EvictionSetConfig ec;
    ec.level = 0;
    ec.ways = spec.levels[0].ways;
    ec.voteRepeats = 3;
    infer::EvictionSetFinder finder(ctx, ec);

    Digest d;
    const cache::Addr target = uint64_t{1} << 30;
    for (uint64_t seed : {1, 2, 3}) {
        const auto r = finder.findFromRegion(target, uint64_t{1} << 31,
                                             uint64_t{1} << 20, 300,
                                             seed);
        d.add(static_cast<uint64_t>(r.evictionSet.has_value()));
        if (r.evictionSet)
            for (cache::Addr a : *r.evictionSet)
                d.add(a);
        d.add(r.tests);
        d.add(r.loadsUsed);
    }
    expectPin({d.value(), ctx.loadsIssued(), ctx.experimentsRun()},
              {0xf2c5c2c707691379ull, 79935, 819},
              "eviction-set finder");
}

} // namespace
