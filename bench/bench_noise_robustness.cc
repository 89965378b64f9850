/**
 * @file
 * Experiment R1 — Robust inference vs hostile-machine fault
 * intensity (extension beyond the paper).
 *
 * Sweeps FaultConfig::hostile(x) — every interference source the
 * paper's rigs face on real hardware (prefetchers, interrupts, TLB
 * walks, timer jitter, garbled counters, activity phases) — and
 * compares three measurement strategies on a k=4 LRU rig:
 *
 *   - fixed-1:   single-shot probing (trusting),
 *   - fixed-11:  11-repeat majority voting (the sequential test's
 *                fixed schedule),
 *   - adaptive:  the confidence-driven sequential test with
 *                graceful degradation (Undetermined, never wrong).
 *
 * Reported per cell: correct / wrong / undetermined verdict counts
 * and the mean measurement cost (loads per trial). The expected
 * shape: fixed-N accuracy decays into WRONG verdicts as intensity
 * grows; the adaptive strategy converts its losses into explicit
 * Undetermined results while staying cheaper than fixed-11 on quiet
 * machines (it settles early when readings agree).
 *
 * Every trial is deterministic, so each row is pinned exactly in
 * kPins below; the bench exits non-zero (stderr says PIN MISMATCH)
 * when a row leaves its pin. There is no timing floor.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "recap/common/table.hh"
#include "recap/hw/faults.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/measurement.hh"
#include "recap/infer/pipeline.hh"

namespace
{

using namespace recap;

hw::MachineSpec
rigSpec()
{
    hw::MachineSpec spec;
    spec.name = "rig";
    spec.description = "single-level robustness rig";
    hw::CacheLevelSpec lvl;
    lvl.name = "L1";
    lvl.capacityBytes = uint64_t{64} * 64 * 4;
    lvl.ways = 4;
    lvl.hitLatency = 4;
    lvl.policySpec = "lru";
    spec.levels = {lvl};
    spec.memoryLatency = 100;
    return spec;
}

/** Pinned row: verdict counts and mean loads of one cell. */
struct Pin
{
    double intensity;
    const char* strategy;
    unsigned correct;
    unsigned wrong;
    unsigned undetermined;
    uint64_t meanLoads;
};

const Pin kPins[] = {
    {0.00, "fixed-1", 20, 0, 0, 1605},
    {0.00, "fixed-11", 20, 0, 0, 17655},
    {0.00, "adaptive", 20, 0, 0, 4815},
    {0.25, "fixed-1", 20, 0, 0, 1437},
    {0.25, "fixed-11", 20, 0, 0, 17693},
    {0.25, "adaptive", 20, 0, 0, 4952},
    {0.50, "fixed-1", 17, 3, 0, 2065},
    {0.50, "fixed-11", 20, 0, 0, 17742},
    {0.50, "adaptive", 20, 0, 0, 5298},
    {1.00, "fixed-1", 16, 4, 0, 1788},
    {1.00, "fixed-11", 20, 0, 0, 18656},
    {1.00, "adaptive", 20, 0, 0, 5814},
    {2.00, "fixed-1", 10, 10, 0, 2900},
    {2.00, "fixed-11", 19, 1, 0, 18948},
    {2.00, "adaptive", 19, 0, 1, 6363},
};

static_assert(std::size(kPins) == 15, "5 intensities x 3 strategies");

enum class Strategy
{
    kFixed1,
    kFixed11,
    kAdaptive,
};

struct TrialResult
{
    enum
    {
        kCorrect,
        kWrong,
        kUndetermined
    } outcome;
    uint64_t loads;
};

TrialResult
trial(double intensity, Strategy strategy, uint64_t seed)
{
    hw::Machine machine(rigSpec(), seed,
                        hw::FaultConfig::hostile(intensity));
    infer::MeasurementContext ctx(machine);
    infer::DiscoveredGeometry geom;
    geom.lineSize = 64;
    geom.levels.push_back({64, 64, 4});

    infer::InferenceOptions opts;
    opts.agreementRounds = 6;
    switch (strategy) {
    case Strategy::kFixed1:
        opts.voteRepeats = 1;
        break;
    case Strategy::kFixed11:
        opts.voteRepeats = 11;
        break;
    case Strategy::kAdaptive:
        opts.robust.vote.enabled = true;
        opts.robust.calibrateLatency = true;
        ctx.calibrateLatencyFence();
        break;
    }

    const auto report = infer::inferLevelAt(
        ctx, geom, 0, uint64_t{1} << 32, opts);
    TrialResult result{};
    result.loads = report.loadsUsed;
    if (report.outcome == infer::LevelOutcome::kUndetermined)
        result.outcome = TrialResult::kUndetermined;
    else if (report.verdict == "LRU")
        result.outcome = TrialResult::kCorrect;
    else
        result.outcome = TrialResult::kWrong;
    return result;
}

/** Prints the sweep; false when a row leaves its pin. */
bool
printRobustnessSweep()
{
    std::cout
        << "====================================================\n"
        << " R1: Robust inference vs hostile-fault intensity\n"
        << "     (LRU, k=4; 20 trials per cell;\n"
        << "      correct/wrong/undet, mean loads per trial)\n"
        << "====================================================\n\n";

    constexpr unsigned kTrials = 20;
    const std::pair<Strategy, const char*> strategies[] = {
        {Strategy::kFixed1, "fixed-1"},
        {Strategy::kFixed11, "fixed-11"},
        {Strategy::kAdaptive, "adaptive"},
    };

    TextTable table({"intensity", "strategy", "correct", "wrong",
                     "undetermined", "mean loads"});
    bool pinsHold = true;
    std::size_t row = 0;
    for (double intensity : {0.0, 0.25, 0.5, 1.0, 2.0}) {
        for (const auto& [strategy, name] : strategies) {
            unsigned correct = 0;
            unsigned wrong = 0;
            unsigned undetermined = 0;
            uint64_t loads = 0;
            for (unsigned t = 0; t < kTrials; ++t) {
                const TrialResult r =
                    trial(intensity, strategy, 2000 + t);
                loads += r.loads;
                switch (r.outcome) {
                case TrialResult::kCorrect: ++correct; break;
                case TrialResult::kWrong: ++wrong; break;
                case TrialResult::kUndetermined:
                    ++undetermined;
                    break;
                }
            }
            table.addRow({formatDouble(intensity, 2), name,
                          std::to_string(correct),
                          std::to_string(wrong),
                          std::to_string(undetermined),
                          std::to_string(loads / kTrials)});

            const Pin& pin = kPins[row++];
            if (pin.intensity != intensity ||
                std::strcmp(pin.strategy, name) != 0 ||
                pin.correct != correct || pin.wrong != wrong ||
                pin.undetermined != undetermined ||
                pin.meanLoads != loads / kTrials) {
                std::cerr << "PIN MISMATCH: " << name << " at "
                          << formatDouble(intensity, 2) << ": "
                          << correct << "/" << wrong << "/"
                          << undetermined << " in "
                          << loads / kTrials << " loads, pinned "
                          << pin.correct << "/" << pin.wrong << "/"
                          << pin.undetermined << " in "
                          << pin.meanLoads << "\n";
                pinsHold = false;
            }
        }
    }
    table.print(std::cout);
    std::cout << "\n";
    std::cerr << "R1 pins " << (pinsHold ? "hold" : "FAIL") << "\n";
    return pinsHold;
}

void
BM_RobustInferenceHostile(benchmark::State& state)
{
    uint64_t seed = 1;
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            trial(1.0, Strategy::kAdaptive, seed++));
        (void)unused;
    }
}
BENCHMARK(BM_RobustInferenceHostile)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void
BM_FixedVoteInferenceHostile(benchmark::State& state)
{
    uint64_t seed = 1;
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            trial(1.0, Strategy::kFixed11, seed++));
        (void)unused;
    }
}
BENCHMARK(BM_FixedVoteInferenceHostile)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

} // namespace

int
main(int argc, char** argv)
{
    const bool pinsHold = printRobustnessSweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return pinsHold ? 0 : 1;
}
