/**
 * @file
 * Experiment F4 — Miss ratio vs cache size (crossover study,
 * reconstruction).
 *
 * Series: for cache sizes 8 KiB .. 1 MiB (8-way, 64 B lines), the
 * miss ratio of each policy plus OPT on a fixed mixed workload,
 * computed through eval::sizeSweep with an explicit root seed and
 * the parallel grid engine (results are bit-identical for any
 * thread count; see tests/test_parallel_determinism.cc).
 *
 * Expected shape: large gaps between policies while the working set
 * exceeds the cache; curves converge once the cache swallows the
 * working set; the thrash-resistant insertion policies cross over
 * the recency policies around the working-set-equals-cache point.
 *
 * The BM_FullSizeSweep/threads benchmark measures the wall-clock
 * effect of the num_threads knob on the whole grid.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/eval/simulate.hh"
#include "recap/eval/sweep.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

/** Explicit root seed for the sweep (stochastic "random" rows). */
constexpr uint64_t kSweepSeed = 2014;

const std::vector<std::string>&
policySpecs()
{
    static const std::vector<std::string> specs = {
        "lru", "fifo", "plru", "nru", "random", "bip",
        "qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2",
    };
    return specs;
}

trace::Trace
mixedWorkload()
{
    // Footprint anchored to 64 KiB so the sweep crosses it: Zipf
    // reuse plus periodic streaming sweeps.
    return trace::concatTraces({
        trace::zipf(96 * 1024, 120000, 0.9, 11),
        trace::sequentialScan(128 * 1024, 3),
        trace::zipf(96 * 1024, 120000, 0.9, 12),
        trace::sequentialScan(128 * 1024, 3),
    });
}

void
printFigure4()
{
    std::cout << "====================================================\n";
    std::cout << " F4: Miss ratio vs cache size (8-way, 64 B lines)\n";
    std::cout << "     mixed Zipf + streaming workload\n";
    std::cout << "====================================================\n\n";

    const auto workload = mixedWorkload();

    eval::SweepOptions opts;
    opts.seed = kSweepSeed;
    opts.numThreads = 0; // all hardware threads; grid is identical
    const auto sweepStart = std::chrono::steady_clock::now();
    const auto result =
        eval::sizeSweep(policySpecs(), workload, 8 * 1024,
                        1024 * 1024, 8, 64, opts);
    const std::chrono::duration<double> sweepElapsed =
        std::chrono::steady_clock::now() - sweepStart;

    std::vector<std::string> headers{"cache size"};
    for (const auto& s : policySpecs())
        headers.push_back(policy::makePolicy(s, 8)->name());
    headers.push_back("OPT");
    TextTable table(headers);

    for (const auto& column : result.columnLabels) {
        const uint64_t bytes = std::stoull(column);
        std::vector<std::string> row{formatBytes(bytes)};
        for (const auto& s : policySpecs())
            row.push_back(
                formatPercent(result.at(s, column).missRatio, 2));
        row.push_back(
            formatPercent(result.at("OPT", column).missRatio, 2));
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    // Versioned sweep record: one row per grid cell, so the perf
    // trajectory covers the batched sweep grid.
    benchjson::Writer json(
        "fig4", "miss ratio vs cache size sweep (batched grid)");
    json.field("seed", kSweepSeed);
    json.field("workload_accesses", uint64_t{workload.size()});
    uint64_t simulatedAccesses = 0;
    for (const auto& cell : result.cells) {
        json.row({{"policy", cell.rowLabel},
                  {"cache_bytes", cell.columnLabel},
                  {"miss_ratio", cell.missRatio},
                  {"misses", cell.misses},
                  {"accesses", cell.accesses}});
        simulatedAccesses += cell.accesses;
    }
    json.field("simulated_accesses", simulatedAccesses);
    json.field("seconds", sweepElapsed.count());
    json.field("accesses_per_sec",
               simulatedAccesses / sweepElapsed.count());
    if (const std::string path = json.write(); !path.empty())
        std::cout << "Wrote " << path << "\n";
    std::cout << "\n";
}

/**
 * Whole-grid wall-clock vs thread count: the same sizeSweep at 1, 2
 * and 4 workers (plus all hardware threads as Arg 0). Grid results
 * are bit-identical across args; only the wall clock changes.
 */
void
BM_FullSizeSweep(benchmark::State& state)
{
    const auto workload = mixedWorkload();
    eval::SweepOptions opts;
    opts.seed = kSweepSeed;
    opts.numThreads = static_cast<unsigned>(state.range(0));
    opts.includeOpt = false; // OPT dominates and hides the scaling
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::sizeSweep(policySpecs(), workload, 8 * 1024,
                            256 * 1024, 8, 64, opts)
                .cells.size());
        (void)unused;
    }
}
BENCHMARK(BM_FullSizeSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_SweepPoint(benchmark::State& state)
{
    const auto workload = mixedWorkload();
    const auto geom = cache::Geometry::fromCapacity(
        static_cast<uint64_t>(state.range(0)) * 1024, 8);
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::simulateTrace(geom, "plru", workload).misses);
        (void)unused;
    }
}
BENCHMARK(BM_SweepPoint)->Arg(8)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    printFigure4();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
