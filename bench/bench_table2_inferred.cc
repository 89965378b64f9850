/**
 * @file
 * Experiment T2 — "Inferred replacement policies" (reconstruction of
 * the paper's headline table).
 *
 * Runs the complete reverse-engineering pipeline against every
 * machine in the catalog (reduced set counts; inference results are
 * set-count independent) and prints, per cache level: the inferred
 * policy, whether the permutation method or candidate elimination
 * decided it, the cross-validation agreement, and the measurement
 * cost in loads.
 *
 * Expected shape: all PLRU/LRU/FIFO levels are recovered exactly by
 * the permutation method; NRU and QLRU levels are flagged
 * non-permutation and recovered by candidate search; the Ivy Bridge
 * L3 is detected as adaptive with both duel constituents identified.
 *
 * Also writes BENCH_table2.json, one row per machine x level (method,
 * verdict, loads, and the machine's inference wall time), and exits
 * non-zero when a verdict or a loads count leaves kPins below. Both
 * are deterministic, so the pins are exact; there is no timing floor.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/hw/catalog.hh"
#include "recap/infer/pipeline.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;

constexpr unsigned kReducedSets = 1024;

/** Pinned outcome of one machine x level. */
struct Pin
{
    const char* machine;
    const char* level;
    const char* verdict;
    uint64_t loads;
};

constexpr const char* kAdaptiveQlru =
    "adaptive (set dueling): QLRU(H1,M3,R0,U2) vs QLRU(H1,M1,R0,U2)";
constexpr const char* kNru = "NRU (+1 equivalent form)";

const Pin kPins[] = {
    {"atom-d525", "L1", "LRU", 15148},
    {"atom-d525", "L2", "PLRU", 273169},
    {"core2-e6300", "L1", "PLRU", 11029},
    {"core2-e6300", "L2", "PLRU", 357221},
    {"core2-e6750", "L1", "PLRU", 11029},
    {"core2-e6750", "L2", "PLRU", 1224085},
    {"core2-e8400", "L1", "PLRU", 11029},
    {"core2-e8400", "L2", kNru, 3345209},
    {"nehalem-i5", "L1", "PLRU", 9365},
    {"nehalem-i5", "L2", "PLRU", 357221},
    {"nehalem-i5", "L3", kNru, 2342901},
    {"westmere-i5", "L1", "PLRU", 11029},
    {"westmere-i5", "L2", "PLRU", 357221},
    {"westmere-i5", "L3", kNru, 2342901},
    {"sandybridge-i5", "L1", "PLRU", 9365},
    {"sandybridge-i5", "L2", "PLRU", 357221},
    {"sandybridge-i5", "L3", "QLRU(H1,M1,R0,U2)", 1422663},
    {"ivybridge-i5", "L1", "PLRU", 9365},
    {"ivybridge-i5", "L2", "PLRU", 357221},
    {"ivybridge-i5", "L3", kAdaptiveQlru, 789872},
};

/** The pin of (@p machine, @p level), or nullptr. */
const Pin*
findPin(const std::string& machine, const std::string& level)
{
    for (const Pin& pin : kPins)
        if (machine == pin.machine && level == pin.level)
            return &pin;
    return nullptr;
}

/**
 * Prints Table 2 and writes BENCH_table2.json. Returns false when a
 * row leaves its pin or a pinned row is missing.
 */
bool
printTable2()
{
    std::cout << "=============================================="
                 "==================\n";
    std::cout << " T2: Inferred replacement policies "
                 "(reduced machines, "
              << kReducedSets << " sets max)\n";
    std::cout << "=============================================="
                 "==================\n\n";

    TextTable table({"machine", "level", "geometry (discovered)",
                     "method", "inferred policy", "ground truth",
                     "agree", "loads"});
    benchjson::Writer json(
        "table2", "inferred policy per machine x level; wall_ms is "
                  "the machine's whole inferMachine() time");
    json.field("reduced_sets", uint64_t{kReducedSets});

    bool pinsHold = true;
    std::size_t rowsPinned = 0;
    for (const auto& name : hw::catalogNames()) {
        const auto spec =
            hw::reducedSpec(hw::catalogMachine(name), kReducedSets);
        hw::Machine machine(spec);
        infer::InferenceOptions opts;
        opts.adaptive.windowSets = 64;
        const auto start = std::chrono::steady_clock::now();
        const auto report = infer::inferMachine(machine, opts);
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - start;

        for (size_t i = 0; i < report.levels.size(); ++i) {
            const auto& lvl = report.levels[i];
            const auto& truth_lvl = spec.levels[i];
            std::string truth =
                policy::makePolicy(truth_lvl.policySpec,
                                   truth_lvl.ways)
                    ->name();
            if (truth_lvl.isAdaptive()) {
                truth = "adaptive: " +
                        policy::makePolicy(truth_lvl.policySpecB,
                                           truth_lvl.ways)
                            ->name() +
                        " vs " + truth;
            }
            std::string method = lvl.adaptive
                ? "set-dueling detect"
                : (lvl.isPermutation ? "permutation infer"
                                     : "candidate search");
            table.addRow({
                i == 0 ? name : "",
                lvl.levelName,
                lvl.geometry.toGeometry().describe(),
                method,
                lvl.verdict,
                truth,
                formatPercent(lvl.agreement, 1),
                std::to_string(lvl.loadsUsed),
            });
            json.row({{"machine", name},
                      {"level", lvl.levelName},
                      {"method", method},
                      {"verdict", lvl.verdict},
                      {"loads", lvl.loadsUsed},
                      {"wall_ms", wall.count()}});

            const Pin* pin = findPin(name, lvl.levelName);
            if (!pin) {
                std::cerr << "PIN MISSING: " << name << " "
                          << lvl.levelName << "\n";
                pinsHold = false;
                continue;
            }
            ++rowsPinned;
            if (lvl.verdict != pin->verdict ||
                lvl.loadsUsed != pin->loads) {
                std::cerr << "PIN MISMATCH: " << name << " "
                          << lvl.levelName << " inferred '"
                          << lvl.verdict << "' in " << lvl.loadsUsed
                          << " loads, pinned '" << pin->verdict
                          << "' in " << pin->loads << "\n";
                pinsHold = false;
            }
        }
    }
    table.print(std::cout);
    std::cout << "\n";

    if (rowsPinned != std::size(kPins)) {
        std::cerr << "PIN MISSING: " << std::size(kPins) - rowsPinned
                  << " pinned rows were not inferred\n";
        pinsHold = false;
    }
    json.field("pins_hold", std::string(pinsHold ? "yes" : "no"));
    const std::string path = json.write();
    std::cerr << "Table 2 pins " << (pinsHold ? "hold" : "FAIL")
              << "; wrote " << (path.empty() ? "(nothing)" : path)
              << "\n";
    return pinsHold;
}

void
BM_FullInferenceTwoLevelMachine(benchmark::State& state)
{
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    for (auto unused : state) {
        hw::Machine machine(spec);
        infer::InferenceOptions opts;
        opts.adaptive.windowSets = 32;
        const auto report = infer::inferMachine(machine, opts);
        benchmark::DoNotOptimize(report.totalLoads);
        (void)unused;
    }
}
BENCHMARK(BM_FullInferenceTwoLevelMachine)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int
main(int argc, char** argv)
{
    const bool pinsHold = printTable2();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return pinsHold ? 0 : 1;
}
