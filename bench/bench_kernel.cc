/**
 * @file
 * Simulation throughput of the one engine, cache::Cache, per policy.
 *
 * For every catalog policy at the reference geometry, runs the same
 * trace through eval::simulateTrace (a cache::Cache access loop) and
 * reports single-thread throughput in accesses/second, the baseline
 * a faster cache::Cache has to beat.
 *
 * Writes BENCH_kernel.json. There is no timing floor.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

const cache::Geometry kGeom = cache::Geometry{64, 64, 8}; // 32 KiB
constexpr uint64_t kAccesses = 200000;
constexpr unsigned kReps = 3;

/** Best-of-kReps wall-clock seconds of one full-trace simulation. */
double
timeBestOf(const std::string& spec, const trace::Trace& t)
{
    double best = 1e300;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(
            eval::simulateTrace(kGeom, spec, t).misses);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

void
printThroughput()
{
    std::cout << "====================================================\n";
    std::cout << " Simulation throughput per policy (cache::Cache)\n";
    std::cout << "     (" << kGeom.describe() << ", "
              << kAccesses << "-access zipf trace, 1 thread)\n";
    std::cout << "====================================================\n\n";

    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);

    TextTable table({"policy", "throughput"});
    benchjson::Writer json("kernel",
                           "cache::Cache simulation throughput per policy");
    json.field("geometry", kGeom.describe());
    json.field("accesses", kAccesses);

    double logSum = 0.0;
    unsigned counted = 0;
    for (const auto& spec : policy::catalogSpecs()) {
        if (!policy::specSupportsWays(spec, kGeom.ways))
            continue;
        const double rate = kAccesses / timeBestOf(spec, t);
        logSum += std::log(rate);
        ++counted;
        table.addRow({spec, formatDouble(rate / 1e6, 1) + " M/s"});
        json.row({{"policy", spec}, {"acc_per_sec", rate}});
    }

    const double geomean = counted ? std::exp(logSum / counted) : 0.0;
    table.print(std::cout);
    std::cout << "\nGeomean throughput: "
              << formatDouble(geomean / 1e6, 1) << " M/s\n";
    json.field("geomean_acc_per_sec", geomean);
    const std::string path = json.write();
    if (!path.empty())
        std::cout << "Wrote " << path << "\n";
    std::cout << "\n";
}

void
BM_SimulatePlru(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::simulateTrace(kGeom, "plru", t).misses);
        (void)unused;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulatePlru)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    printThroughput();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
