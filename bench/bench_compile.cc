/**
 * @file
 * Experiment C1 — policy compilation throughput.
 *
 * Compiles every pinned spec (catalogSpecs() plus the permutation-
 * engine forms; tests/compile_pins.hh) at 8, 12 and 16 ways under the
 * default CompileBudget, best of three runs each, and reports:
 *
 *  - states/s per associativity over the tables that compiled;
 *  - the time of every (spec, ways), split into compiled and refused;
 *  - the total compile time of the 8-way catalogSpecs().
 *
 * Writes BENCH_compile.json. Exits non-zero when any state count
 * differs from the pins; there is no timing floor.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "../tests/compile_pins.hh"
#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;

constexpr unsigned kReps = 3;
constexpr unsigned kBenchWays[] = {8, 12, 16};

/** Index of @p ways in pins::kPinWays. */
std::size_t
pinIndex(unsigned ways)
{
    const auto it = std::find(pins::kPinWays.begin(),
                              pins::kPinWays.end(), ways);
    return static_cast<std::size_t>(it - pins::kPinWays.begin());
}

bool
inCatalog(const std::string& spec)
{
    const auto catalog = policy::catalogSpecs();
    return std::find(catalog.begin(), catalog.end(), spec) !=
           catalog.end();
}

/** Per-associativity totals. */
struct WaysTotals
{
    uint64_t states = 0;
    double compiledSecs = 0.0;
    double refusedSecs = 0.0;
    double catalogSecs = 0.0;
};

} // namespace

int
main()
{
    std::cout << "====================================================\n";
    std::cout << " C1: policy compilation (default budget, best of "
              << kReps << ")\n";
    std::cout << "====================================================\n\n";

    TextTable table({"policy", "ways", "states", "outcome", "ms"});
    benchjson::Writer json(
        "compile", "compilePolicy time and states/s per (spec, ways)");
    json.field("reps", uint64_t{kReps});

    bool pinsHold = true;
    std::vector<WaysTotals> totals;
    for (const unsigned ways : kBenchWays) {
        WaysTotals sum;
        for (const auto& pin : pins::kCompilePins) {
            const std::string spec = pin.spec;
            if (!policy::specSupportsWays(spec, ways))
                continue;
            const policy::PolicyPtr proto = policy::makePolicy(spec, ways);
            double best = 1e300;
            policy::CompiledTablePtr compiled;
            for (unsigned rep = 0; rep < kReps; ++rep) {
                const auto start = std::chrono::steady_clock::now();
                compiled = policy::compilePolicy(*proto);
                const std::chrono::duration<double> elapsed =
                    std::chrono::steady_clock::now() - start;
                best = std::min(best, elapsed.count());
            }
            const uint64_t states = compiled ? compiled->numStates() : 0;
            const int64_t pinned = pin.states[pinIndex(ways)];
            if (static_cast<int64_t>(states) != pinned) {
                std::cerr << "PIN MISMATCH: " << spec << " k=" << ways
                          << " compiled " << states << " states, pinned "
                          << pinned << "\n";
                pinsHold = false;
            }
            const std::string outcome = compiled ? "compiled" : "refused";
            (compiled ? sum.compiledSecs : sum.refusedSecs) += best;
            sum.states += states;
            if (inCatalog(spec))
                sum.catalogSecs += best;
            table.addRow({spec, std::to_string(ways),
                          std::to_string(states), outcome,
                          formatDouble(best * 1e3, 2)});
            json.row({{"policy", spec},
                      {"ways", uint64_t{ways}},
                      {"states", states},
                      {"outcome", outcome},
                      {"seconds", best}});
        }
        totals.push_back(sum);
    }
    table.print(std::cout);

    std::cout << "\n";
    TextTable summary({"ways", "compiled states", "compiled s",
                       "states/s", "refused s", "catalog s"});
    for (std::size_t i = 0; i < totals.size(); ++i) {
        const WaysTotals& sum = totals[i];
        const std::string k = std::to_string(kBenchWays[i]);
        const double rate = sum.compiledSecs > 0
            ? static_cast<double>(sum.states) / sum.compiledSecs : 0.0;
        summary.addRow({k, std::to_string(sum.states),
                        formatDouble(sum.compiledSecs, 3),
                        formatDouble(rate / 1e6, 2) + " M",
                        formatDouble(sum.refusedSecs, 3),
                        formatDouble(sum.catalogSecs, 3)});
        json.field("states_per_sec_k" + k, rate);
        json.field("compiled_seconds_k" + k, sum.compiledSecs);
        json.field("refused_seconds_k" + k, sum.refusedSecs);
        json.field("catalog_seconds_k" + k, sum.catalogSecs);
    }
    summary.print(std::cout);
    json.field("pins_hold", std::string(pinsHold ? "yes" : "no"));

    const std::string path = json.write();
    std::cout << "\n8-way catalogSpecs() compile: "
              << formatDouble(totals[0].catalogSecs, 3) << " s; wrote "
              << (path.empty() ? "(nothing)" : path) << "\n";
    return pinsHold ? 0 : 1;
}
