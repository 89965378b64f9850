/**
 * @file
 * Simulation throughput of the one engine, cache::Cache, per policy,
 * with Belady's OPT (eval::simulateOpt) timed beside it.
 *
 * For every catalog policy at the reference geometry, runs the same
 * trace through eval::simulateTrace (a cache::Cache access loop) and
 * reports single-thread throughput in accesses/second, the baseline
 * a faster cache::Cache has to beat; the OPT row runs the flat-array
 * Belady simulation over the same trace.
 *
 * Writes BENCH_kernel.json and exits non-zero when a row's miss count
 * leaves kPins below (stderr says PIN MISMATCH). The trace and the
 * seeds are fixed, so the pins are exact; there is no timing floor.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/eval/opt.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

const cache::Geometry kGeom = cache::Geometry{64, 64, 8}; // 32 KiB
constexpr uint64_t kAccesses = 200000;
constexpr unsigned kReps = 3;

/** Pinned miss count of one row on the 200k-access zipf trace. */
struct Pin
{
    const char* row;
    uint64_t misses;
};

const Pin kPins[] = {
    {"lru", 65683},
    {"fifo", 74096},
    {"plru", 66494},
    {"bitplru", 66065},
    {"nru", 66217},
    {"random", 74245},
    {"lip", 54935},
    {"bip", 56284},
    {"srrip", 60662},
    {"brrip", 55411},
    {"slru", 60674},
    {"qlru:H1,M1,R0,U2", 65046},
    {"qlru:H1,M3,R0,U2", 52601},
    {"dip", 63366},
    {"drrip", 58968},
    {"ship", 60108},
    {"eaf", 59485},
    {"dip:4,3,4", 64064},
    {"drrip:1,4,3,4", 64404},
    {"opt", 38954},
};

/** The pinned misses of @p row, or nullptr. */
const Pin*
findPin(const std::string& row)
{
    for (const Pin& pin : kPins)
        if (row == pin.row)
            return &pin;
    return nullptr;
}

/** Best-of-kReps wall-clock seconds of @p run; @p misses its result. */
double
timeBestOf(const std::function<cache::LevelStats()>& run,
           uint64_t& misses)
{
    double best = 1e300;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const cache::LevelStats stats = run();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        benchmark::DoNotOptimize(stats.misses);
        misses = stats.misses;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** Prints the table; @return true when every row holds its pin. */
bool
printThroughput()
{
    std::cout << "====================================================\n";
    std::cout << " Simulation throughput per policy (cache::Cache)\n";
    std::cout << "     (" << kGeom.describe() << ", "
              << kAccesses << "-access zipf trace, 1 thread)\n";
    std::cout << "====================================================\n\n";

    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);

    TextTable table({"policy", "misses", "throughput"});
    benchjson::Writer json("kernel",
                           "cache::Cache simulation throughput per policy");
    json.field("geometry", kGeom.describe());
    json.field("accesses", kAccesses);

    bool pinsHold = true;
    std::size_t rowsPinned = 0;
    auto addRow = [&](const std::string& row, double seconds,
                      uint64_t misses) {
        const double rate = kAccesses / seconds;
        table.addRow({row, std::to_string(misses),
                      formatDouble(rate / 1e6, 1) + " M/s"});
        json.row({{"policy", row},
                  {"misses", misses},
                  {"acc_per_sec", rate}});
        const Pin* pin = findPin(row);
        if (!pin) {
            std::cerr << "PIN MISSING: " << row << "\n";
            pinsHold = false;
            return rate;
        }
        ++rowsPinned;
        if (misses != pin->misses) {
            std::cerr << "PIN MISMATCH: " << row << " missed " << misses
                      << " times, pinned " << pin->misses << "\n";
            pinsHold = false;
        }
        return rate;
    };

    double logSum = 0.0;
    unsigned counted = 0;
    for (const auto& spec : policy::catalogSpecs()) {
        if (!policy::specSupportsWays(spec, kGeom.ways))
            continue;
        uint64_t misses = 0;
        const double seconds = timeBestOf(
            [&] { return eval::simulateTrace(kGeom, spec, t); }, misses);
        logSum += std::log(addRow(spec, seconds, misses));
        ++counted;
    }
    uint64_t optMisses = 0;
    const double optSeconds = timeBestOf(
        [&] { return eval::simulateOpt(kGeom, t); }, optMisses);
    addRow("opt", optSeconds, optMisses);

    const double geomean = counted ? std::exp(logSum / counted) : 0.0;
    table.print(std::cout);
    std::cout << "\nGeomean throughput over the policies: "
              << formatDouble(geomean / 1e6, 1) << " M/s\n\n";

    if (rowsPinned != std::size(kPins)) {
        std::cerr << "PIN MISSING: " << std::size(kPins) - rowsPinned
                  << " pinned rows were not simulated\n";
        pinsHold = false;
    }
    json.field("geomean_acc_per_sec", geomean);
    json.field("pins_hold", std::string(pinsHold ? "yes" : "no"));
    const std::string path = json.write();
    std::cerr << "Kernel pins " << (pinsHold ? "hold" : "FAIL")
              << "; wrote " << (path.empty() ? "(nothing)" : path)
              << "\n";
    return pinsHold;
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
    const bool pinsHold = printThroughput();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return pinsHold ? 0 : 1;
}
