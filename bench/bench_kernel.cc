/**
 * @file
 * Experiment K1 — Compiled policy automata vs interpreted simulation.
 *
 * For every catalog policy that compiles at the reference geometry,
 * runs the same trace through the interpreted Cache model and the
 * compiled table kernel, checks the statistics agree bit-exactly,
 * and reports single-thread throughput (accesses/second) for both
 * paths plus the speedup. Policies whose state space exceeds the
 * compile budget are listed as fallbacks (the kernel transparently
 * runs them interpreted).
 *
 * Writes BENCH_kernel.json. When RECAP_KERNEL_SPEEDUP_FLOOR is set
 * (the CI perf-smoke job sets a conservative floor), exits non-zero
 * if the geometric-mean speedup over compiled policies drops below
 * it — a regression gate for the devirtualized hot loop.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "recap/cache/cache.hh"
#include "recap/common/table.hh"
#include "recap/eval/kernel.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

const cache::Geometry kGeom = cache::Geometry{64, 64, 8}; // 32 KiB
constexpr uint64_t kAccesses = 200000;
constexpr unsigned kReps = 3;

/** Best-of-kReps wall-clock seconds of one full-trace simulation. */
template <typename Fn>
double
timeBestOf(Fn&& fn)
{
    double best = 1e300;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(fn());
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** The interpreted reference: a cache::Cache access loop. */
cache::LevelStats
simulateInterpreted(const std::string& spec, const trace::Trace& t)
{
    cache::Cache c(kGeom, spec, "eval", 1);
    for (const cache::Addr a : t)
        c.access(a);
    return c.stats();
}

std::string
formatRate(double accPerSec)
{
    return formatDouble(accPerSec / 1e6, 1) + " M/s";
}

int
runComparison()
{
    std::cout << "====================================================\n";
    std::cout << " K1: compiled-table kernel vs interpreted Cache\n";
    std::cout << "     (" << kGeom.describe() << ", "
              << kAccesses << "-access zipf trace, 1 thread)\n";
    std::cout << "====================================================\n\n";

    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);

    TextTable table({"policy", "states", "interpreted", "compiled",
                     "speedup"});
    benchjson::Writer json(
        "kernel",
        "interpreted vs compiled-automaton simulation throughput");
    json.field("geometry", kGeom.describe());
    json.field("accesses", kAccesses);

    double logSum = 0.0;
    unsigned counted = 0;
    bool mismatch = false;

    // The full catalog, modern policies included: at this 8-way
    // geometry the default-parameter dueling/predictor automata
    // exceed the compile budget (or consume metadata outright) and
    // appear as fallback rows; the small-parameter DRRIP variant
    // still compiles, putting one modern policy on the kernel path
    // the CI speedup floor guards.
    for (const auto& spec : policy::catalogSpecs()) {
        if (!policy::specSupportsWays(spec, kGeom.ways))
            continue;
        const auto compiled =
            policy::compiledTableFor(spec, kGeom.ways, {});

        const double interpSecs = timeBestOf(
            [&] { return simulateInterpreted(spec, t).misses; });
        const double interpRate = kAccesses / interpSecs;

        if (!compiled) {
            table.addRow({spec, "> budget", formatRate(interpRate),
                          "(fallback)", "-"});
            json.row({{"policy", spec},
                      {"mode", std::string("fallback")},
                      {"interpreted_acc_per_sec", interpRate}});
            continue;
        }

        const double compiledSecs = timeBestOf([&] {
            return eval::simulateCompiled(kGeom, *compiled, t).misses;
        });
        const double compiledRate = kAccesses / compiledSecs;
        const double speedup = compiledRate / interpRate;
        logSum += std::log(speedup);
        ++counted;

        // The whole point is bit-exactness: diff the statistics here
        // too, not only in the unit tests.
        const auto a = simulateInterpreted(spec, t);
        const auto b = eval::simulateCompiled(kGeom, *compiled, t);
        if (a.hits != b.hits || a.misses != b.misses ||
            a.evictions != b.evictions) {
            std::cerr << "MISMATCH: " << spec
                      << " interpreted/compiled stats differ\n";
            mismatch = true;
        }

        table.addRow({spec, std::to_string(compiled->numStates()),
                      formatRate(interpRate), formatRate(compiledRate),
                      formatDouble(speedup, 2) + "x"});
        json.row({{"policy", spec},
                  {"mode", std::string("compiled")},
                  {"states", uint64_t{compiled->numStates()}},
                  {"interpreted_acc_per_sec", interpRate},
                  {"compiled_acc_per_sec", compiledRate},
                  {"speedup", speedup}});
    }

    const double geomean =
        counted ? std::exp(logSum / counted) : 0.0;
    table.print(std::cout);
    std::cout << "\nGeomean speedup over compiled policies: "
              << formatDouble(geomean, 2) << "x\n";
    json.field("geomean_speedup", geomean);
    const std::string path = json.write();
    if (!path.empty())
        std::cout << "Wrote " << path << "\n";
    std::cout << "\n";

    if (mismatch)
        return 1;
    if (const char* env =
            std::getenv("RECAP_KERNEL_SPEEDUP_FLOOR")) {
        const double floor = std::strtod(env, nullptr);
        if (geomean < floor) {
            std::cerr << "FAIL: geomean speedup "
                      << formatDouble(geomean, 2)
                      << "x below the configured floor of "
                      << formatDouble(floor, 2) << "x\n";
            return 1;
        }
        std::cout << "Speedup floor of " << formatDouble(floor, 2)
                  << "x satisfied.\n\n";
    }
    return 0;
}

void
BM_KernelCompiled(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);
    const auto table = policy::compiledTableFor("plru", kGeom.ways, {});
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::simulateCompiled(kGeom, *table, t).misses);
        (void)unused;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_KernelCompiled)->Unit(benchmark::kMillisecond);

void
BM_KernelInterpreted(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);
    for (auto unused : state) {
        benchmark::DoNotOptimize(simulateInterpreted("plru", t).misses);
        (void)unused;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_KernelInterpreted)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    const int status = runComparison();
    if (status != 0)
        return status;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
