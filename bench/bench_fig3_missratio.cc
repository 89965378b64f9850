/**
 * @file
 * Experiment F3 — Policy miss ratios across the workload suite
 * (reconstruction of the paper's evaluation figure).
 *
 * Series: per workload, each policy's miss ratio normalized to LRU
 * (LRU = 1.00), plus OPT as the lower bound.
 *
 * Expected shape: PLRU and BitPLRU track LRU within a few percent;
 * FIFO/Random trail on reuse-friendly workloads; LIP/BIP and the
 * M3-insertion QLRU variant win on thrashing workloads and lose mildly
 * on reuse-friendly ones; nothing beats OPT.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/eval/opt.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

const cache::Geometry kGeom = cache::Geometry{64, 64, 8}; // 32 KiB

void
printFigure3()
{
    std::cout << "====================================================\n";
    std::cout << " F3: Miss ratio by policy and workload, relative\n";
    std::cout << "     to LRU (cache: " << kGeom.describe() << ")\n";
    std::cout << "====================================================\n\n";

    trace::SuiteConfig cfg;
    cfg.cacheBytes = kGeom.sizeBytes();
    cfg.accessesPerWorkload = 150000;
    const auto suite = trace::specLikeSuite(cfg);

    std::vector<std::string> headers{"policy"};
    for (const auto& w : suite)
        headers.push_back(w.name);
    headers.push_back("geomean");
    TextTable table(headers);

    benchjson::Writer json(
        "fig3_missratio",
        "per-policy miss ratios over the SPEC-like workload suite");
    json.field("geometry", kGeom.describe());
    uint64_t simulatedAccesses = 0;
    const auto sweepStart = std::chrono::steady_clock::now();

    // Baseline catalog, then the modern dueling/predictor policies
    // (default parameterizations; the compile-tractable small
    // variants duplicate the same labels and add nothing here).
    // SHiP sees no PCs on this address-only suite and degenerates to
    // its single-signature adaptive SRRIP — the PC-aware section
    // below shows it with signatures.
    std::vector<std::string> specs = policy::baselineSpecs();
    for (const char* modern : {"dip", "drrip", "ship", "eaf"})
        specs.emplace_back(modern);
    std::vector<std::string> batchSpecs{"lru"};
    for (const auto& spec : specs)
        if (spec != "lru" &&
            policy::specSupportsWays(spec, kGeom.ways))
            batchSpecs.push_back(spec);

    // One simulatePoliciesBatch call per workload
    // (eval/multi_kernel.hh): the policies fan out over the pool.
    std::vector<std::vector<double>> ratioOfSpec(batchSpecs.size());
    for (const auto& w : suite) {
        const auto stats =
            eval::simulatePoliciesBatch(kGeom, batchSpecs, w.trace);
        for (std::size_t i = 0; i < batchSpecs.size(); ++i)
            ratioOfSpec[i].push_back(stats[i].missRatio());
        simulatedAccesses += w.trace.size() * batchSpecs.size();
    }
    const std::vector<double>& lru_ratio = ratioOfSpec[0];

    auto add_row = [&](const std::string& label,
                       const std::vector<double>& ratios) {
        std::vector<std::string> row{label};
        double log_sum = 0.0;
        unsigned counted = 0;
        for (size_t i = 0; i < ratios.size(); ++i) {
            const double rel = lru_ratio[i] > 0
                ? ratios[i] / lru_ratio[i] : 1.0;
            row.push_back(formatDouble(rel, 3));
            if (rel > 0) {
                log_sum += std::log(rel);
                ++counted;
            }
        }
        const double geomean =
            counted ? std::exp(log_sum / counted) : 1.0;
        row.push_back(formatDouble(geomean, 3));
        table.addRow(std::move(row));
        json.row({{"policy", label},
                  {"geomean_rel_missratio", geomean}});
    };

    add_row("LRU (reference)", lru_ratio);
    for (std::size_t i = 1; i < batchSpecs.size(); ++i) {
        add_row(policy::makePolicy(batchSpecs[i], kGeom.ways)->name(),
                ratioOfSpec[i]);
    }
    {
        std::vector<double> ratios;
        for (const auto& w : suite) {
            ratios.push_back(
                eval::simulateOpt(kGeom, w.trace).missRatio());
            simulatedAccesses += w.trace.size();
        }
        add_row("OPT (offline)", ratios);
    }
    table.print(std::cout);

    const std::chrono::duration<double> sweepElapsed =
        std::chrono::steady_clock::now() - sweepStart;
    json.field("simulated_accesses", simulatedAccesses);
    json.field("seconds", sweepElapsed.count());
    json.field("accesses_per_sec",
               simulatedAccesses / sweepElapsed.count());
    if (const std::string path = json.write(); !path.empty())
        std::cout << "\nWrote " << path << "\n";

    std::cout << "\nAbsolute LRU miss ratios per workload:\n";
    TextTable abs({"workload", "LRU miss ratio"});
    for (size_t i = 0; i < suite.size(); ++i)
        abs.addRow({suite[i].name, formatPercent(lru_ratio[i])});
    abs.print(std::cout);
    std::cout << "\n";
}

/**
 * F3b — What the PC side channel buys SHiP: a loop/stream mix where
 * one instruction's accesses have reuse and another's never do.
 * With signatures SHiP learns to insert the streaming PC's lines
 * distant; stripped of PCs the same policy collapses every access
 * into signature 0 and the distinction is lost.
 */
void
printFigure3b()
{
    std::cout << "====================================================\n";
    std::cout << " F3b: SHiP with and without PC signatures\n";
    std::cout << "     (loop/stream mix, " << kGeom.describe() << ")\n";
    std::cout << "====================================================\n\n";

    // Hot set at 3/4 of the cache: big enough that streaming fills
    // evict live lines under recency/RRIP insertion, small enough
    // that insert-distant scans leave it fully resident.
    const auto pcTrace =
        trace::pcReuseStreamMix(3 * kGeom.sizeBytes() / 4, 150000, 7);
    const auto addrOnly = trace::addressesOf(pcTrace);

    TextTable table({"policy", "miss ratio"});
    benchjson::Writer json(
        "fig3b_ship_pc",
        "PC-aware policies on the reuse/stream PC mix");
    json.field("geometry", kGeom.describe());
    json.field("accesses", uint64_t{pcTrace.size()});
    auto add = [&](const std::string& label, double ratio) {
        table.addRow({label, formatPercent(ratio)});
        json.row({{"policy", label}, {"miss_ratio", ratio}});
    };
    add("SHiP + PCs",
        eval::simulatePcTrace(kGeom, "ship", pcTrace).missRatio());
    add("SHiP, PCs stripped",
        eval::simulateTrace(kGeom, "ship", addrOnly).missRatio());
    add("SRRIP",
        eval::simulateTrace(kGeom, "srrip", addrOnly).missRatio());
    add("LRU",
        eval::simulateTrace(kGeom, "lru", addrOnly).missRatio());
    table.print(std::cout);
    if (const std::string path = json.write(); !path.empty())
        std::cout << "\nWrote " << path << "\n";
    std::cout << "\n";
}

void
BM_SimulateTraceThroughput(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, 200000, 0.9, 1);
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::simulateTrace(kGeom, "plru", t).misses);
        (void)unused;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateTraceThroughput)->Unit(benchmark::kMillisecond);

void
BM_OptSimulation(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, 200000, 0.9, 1);
    for (auto unused : state) {
        benchmark::DoNotOptimize(eval::simulateOpt(kGeom, t).misses);
        (void)unused;
    }
}
BENCHMARK(BM_OptSimulation)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    printFigure3();
    printFigure3b();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
