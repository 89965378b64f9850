/**
 * @file
 * Experiment X1 — product-automaton exploration throughput.
 *
 * Runs infer::checkEquivalence() on the capped pairs candidate search
 * meets when it separates or certifies NRU survivors: nru against
 * lru, srrip and qlru:H0,M0,R0,U1 at 8, 16 and 24 ways, under the
 * certification cap (50k states) and the targeted-phase cap (300k).
 * Reports product states/s per run: best of kReps under the 50k cap,
 * one run under the 300k cap (several seconds each at 16 and 24 ways).
 *
 * Writes BENCH_explore.json. Exits non-zero when a verdict, the
 * exhausted flag, statesExplored or the counterexample length leaves
 * the pins below; there is no timing floor.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/infer/equivalence.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;

constexpr unsigned kReps = 3;

/** One capped pair and its pinned outcome. */
struct Pin
{
    const char* a;
    const char* b;
    unsigned ways;
    uint64_t cap;
    bool equivalent;
    bool exhausted;
    uint64_t statesExplored;
    std::size_t counterexampleLength;
};

// The outcomes of the string-keyed reference BFS in
// tests/test_explore_reference.cc, which the explorer reproduces.
constexpr Pin kPins[] = {
    {"nru", "lru", 8, 50'000, false, true, 764, 11},
    {"nru", "lru", 8, 300'000, false, true, 764, 11},
    {"nru", "srrip", 8, 50'000, false, true, 177, 11},
    {"nru", "srrip", 8, 300'000, false, true, 177, 11},
    {"nru", "qlru:H0,M0,R0,U1", 8, 50'000, false, true, 809, 11},
    {"nru", "qlru:H0,M0,R0,U1", 8, 300'000, false, true, 809, 11},
    {"nru", "lru", 16, 50'000, true, false, 50'001, 0},
    {"nru", "lru", 16, 300'000, true, false, 300'001, 0},
    {"nru", "srrip", 16, 50'000, false, true, 8361, 19},
    {"nru", "srrip", 16, 300'000, false, true, 8361, 19},
    {"nru", "qlru:H0,M0,R0,U1", 16, 50'000, true, false, 50'001, 0},
    {"nru", "qlru:H0,M0,R0,U1", 16, 300'000, true, false, 300'001, 0},
    {"nru", "lru", 24, 50'000, true, false, 50'001, 0},
    {"nru", "lru", 24, 300'000, true, false, 300'001, 0},
    {"nru", "srrip", 24, 50'000, true, false, 50'001, 0},
    {"nru", "srrip", 24, 300'000, true, false, 300'001, 0},
    {"nru", "qlru:H0,M0,R0,U1", 24, 50'000, true, false, 50'001, 0},
    {"nru", "qlru:H0,M0,R0,U1", 24, 300'000, true, false, 300'001, 0},
};

} // namespace

int
main()
{
    std::cout << "====================================================\n";
    std::cout << " X1: product exploration (checkEquivalence)\n";
    std::cout << "====================================================\n\n";

    TextTable table({"pair", "ways", "cap", "verdict", "states",
                     "ms", "states/s"});
    benchjson::Writer json(
        "explore", "checkEquivalence product states/s per capped pair");
    json.field("reps", uint64_t{kReps});

    bool pinsHold = true;
    for (const Pin& pin : kPins) {
        const auto a = policy::makePolicy(pin.a, pin.ways);
        const auto b = policy::makePolicy(pin.b, pin.ways);
        infer::EquivalenceConfig cfg;
        cfg.maxStates = pin.cap;
        infer::EquivalenceResult result;
        double best = 1e300;
        const unsigned reps = pin.cap > 50'000 ? 1 : kReps;
        for (unsigned rep = 0; rep < reps; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            result = infer::checkEquivalence(*a, *b, cfg);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            best = std::min(best, elapsed.count());
        }
        const std::string pair = std::string(pin.a) + " vs " + pin.b;
        const std::string verdict = !result.equivalent ? "distinguished"
                                    : result.exhausted ? "equivalent"
                                                       : "capped";
        if (result.equivalent != pin.equivalent ||
            result.exhausted != pin.exhausted ||
            result.statesExplored != pin.statesExplored ||
            result.counterexample.size() != pin.counterexampleLength) {
            std::cerr << "PIN MISMATCH: " << pair << " k=" << pin.ways
                      << " cap " << pin.cap << ": " << verdict << ", "
                      << result.statesExplored << " states, "
                      << result.counterexample.size()
                      << "-access counterexample\n";
            pinsHold = false;
        }
        const double rate =
            static_cast<double>(result.statesExplored) / best;
        table.addRow({pair, std::to_string(pin.ways),
                      std::to_string(pin.cap), verdict,
                      std::to_string(result.statesExplored),
                      formatDouble(best * 1e3, 1),
                      formatDouble(rate / 1e3, 1) + " k"});
        json.row({{"pair", pair},
                  {"ways", uint64_t{pin.ways}},
                  {"cap", pin.cap},
                  {"verdict", verdict},
                  {"states", result.statesExplored},
                  {"seconds", best},
                  {"states_per_sec", rate}});
        if (pin.cap == 50'000 && std::string(pin.b) == "lru")
            json.field("states_per_sec_nru_lru_k" +
                           std::to_string(pin.ways),
                       rate);
    }
    table.print(std::cout);
    json.field("pins_hold", std::string(pinsHold ? "yes" : "no"));

    const std::string path = json.write();
    std::cout << "\nwrote " << (path.empty() ? "(nothing)" : path) << "\n";
    return pinsHold ? 0 : 1;
}
