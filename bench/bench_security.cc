/**
 * @file
 * Experiment S1 — Security analysis of the policy catalog.
 *
 * Runs the sec:: searches — minimal eviction strategies, stealthy
 * RELOAD+REFRESH-style probe synthesis, and attacker observability —
 * over every compilable catalog policy at 2 and 4 ways, ranks the
 * catalog by leakage score, and replays the attacker/victim
 * interleaved workloads through a cache::Cache for miss-ratio
 * context. Every search either completes or reports an explicit
 * abstention; nothing is silently truncated.
 *
 * Writes BENCH_security.json. The run cross-checks the strategy
 * searches against eval::evictBound and against hand-derivable
 * ground truth (LRU/FIFO need exactly `ways` accesses over `ways`
 * distinct lines) and exits non-zero on any violation.
 *
 * RECAP_SEC_SMOKE=1 shrinks the sweep (fewer policies, smaller
 * budget) for CI.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"
#include "recap/sec/profile.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

constexpr unsigned kMinFullPolicies = 8;

bool
smokeMode()
{
    const char* env = std::getenv("RECAP_SEC_SMOKE");
    return env != nullptr && env[0] != '\0' &&
           std::string(env) != "0";
}

std::vector<std::string>
sweepSpecs(bool smoke)
{
    if (smoke)
        return {"lru", "fifo", "plru", "nru", "lip", "srrip"};
    return policy::catalogSpecs();
}

std::string
yesNo(bool b)
{
    return b ? "yes" : "no";
}

/** Ground-truth gate: LRU and FIFO evict in exactly `ways` steps. */
bool
checkGroundTruth(const sec::SecurityProfile& p)
{
    if (p.spec != "lru" && p.spec != "fifo")
        return true;
    if (!p.compiled)
        return false;
    const uint64_t w = p.ways;
    bool ok = true;
    if (p.evict.outcome == sec::SecOutcome::kComplete &&
        (p.evict.pureMissUnbounded || p.evict.pureMissLen != w))
        ok = false;
    if (p.evict.informedOutcome == sec::SecOutcome::kComplete &&
        (p.evict.informedUnbounded || p.evict.informedLen != w ||
         p.evict.informedMinLines != w))
        ok = false;
    if (!ok) {
        std::cerr << "FAIL: " << p.spec << " @" << p.ways
                  << " eviction strategy contradicts ground truth ("
                  << p.evict.render() << ", expected " << w << ")\n";
    }
    return ok;
}

int
runSecuritySweep()
{
    const bool smoke = smokeMode();
    std::cout << "====================================================\n";
    std::cout << " S1: security analysis of the policy catalog\n";
    std::cout << "     (eviction strategy / stealthy probe / "
                 "observability)\n";
    std::cout << "====================================================\n\n";

    sec::ProfileConfig cfg;
    if (smoke)
        cfg.budget.maxConfigs = 200000;
    const std::vector<unsigned> waysList = {2, 4};
    const auto specs = sweepSpecs(smoke);

    auto profiles = sec::securitySweep(specs, waysList, cfg);

    TextTable table({"policy", "ways", "evict (blind)",
                     "evict (informed)", "stealth", "observability",
                     "score"});
    benchjson::Writer json(
        "security",
        "eviction-set strategies, stealthy probes, and attacker "
        "observability per catalog policy");
    json.field("smoke", uint64_t{smoke ? 1u : 0u});
    json.field("max_configs", cfg.budget.maxConfigs);
    json.field("victim_lines", uint64_t{cfg.observe.victimLines});

    bool violation = false;
    std::vector<unsigned> fullBothWays;
    for (const auto& spec : specs) {
        unsigned fullCount = 0;
        for (const auto& p : profiles) {
            if (p.spec != spec)
                continue;
            if (p.compiled && !p.partial())
                ++fullCount;
        }
        fullBothWays.push_back(fullCount);
    }

    for (const auto& p : profiles) {
        const double score = sec::leakageScore(p);
        std::string blind = "-";
        std::string informed = "-";
        if (p.compiled) {
            blind = p.evict.pureMissUnbounded
                        ? "unbounded"
                        : std::to_string(p.evict.pureMissLen);
            if (p.evict.informedOutcome ==
                sec::SecOutcome::kOverBudget) {
                informed = ">budget";
            } else if (p.evict.informedUnbounded) {
                informed = "unbounded";
            } else {
                informed = std::to_string(p.evict.informedLen) +
                           " (" +
                           std::to_string(p.evict.informedMinLines) +
                           " lines)";
            }
        }
        table.addRow({p.spec, std::to_string(p.ways),
                      p.compiled ? blind : "not compiled", informed,
                      p.compiled ? p.stealth.render() : "-",
                      p.compiled ? p.observe.render() : "-",
                      formatDouble(score, 2)});

        benchjson::Object row = {
            {"policy", p.spec},
            {"ways", uint64_t{p.ways}},
            {"compiled", yesNo(p.compiled)},
            {"evict_blind_outcome",
             sec::outcomeName(p.evict.outcome)},
            {"evict_blind_unbounded",
             yesNo(p.evict.pureMissUnbounded)},
            {"evict_blind_len", p.evict.pureMissLen},
            {"evict_informed_outcome",
             sec::outcomeName(p.evict.informedOutcome)},
            {"evict_informed_unbounded",
             yesNo(p.evict.informedUnbounded)},
            {"evict_informed_len", p.evict.informedLen},
            {"evict_min_lines", p.evict.informedMinLines},
            {"stealth_outcome", sec::outcomeName(p.stealth.outcome)},
            {"stealth_feasible", yesNo(p.stealth.feasible)},
            {"stealth_probe_len", p.stealth.probeLen},
            {"observe_outcome", sec::outcomeName(p.observe.outcome)},
            {"observe_patterns", p.observe.patterns},
            {"observe_observations", p.observe.observations},
            {"observe_leaked_bits", p.observe.leakedBits},
            {"leakage_score", score},
            {"partial", yesNo(p.partial())},
        };
        json.row(std::move(row));

        if (!checkGroundTruth(p))
            violation = true;
        if (p.compiled) {
            const auto check =
                sec::crossCheckEvictBound(p.spec, p.ways, cfg.budget);
            if (!check.consistent) {
                std::cerr << "FAIL: " << p.spec << " @" << p.ways
                          << " cross-check vs evictBound: "
                          << check.detail << "\n";
                violation = true;
            }
        }
    }
    table.print(std::cout);

    // Leakage ranking (most leaky first).
    auto ranked = profiles;
    sec::sortByLeakage(ranked);
    std::cout << "\nLeakage ranking (higher = leakier; * = some "
                 "search abstained):\n";
    unsigned rank = 1;
    for (const auto& p : ranked) {
        if (!p.compiled)
            continue;
        std::cout << "  " << rank++ << ". " << p.spec << " @"
                  << p.ways << "  score "
                  << formatDouble(sec::leakageScore(p), 2)
                  << (p.partial() ? " *" : "") << "\n";
    }

    // Workload context: attacker/victim interleavings simulated at
    // the 4-way reference geometry.
    const cache::Geometry geom{64, 64, 4};
    const auto suite = trace::attackerVictimSuite(geom);
    TextTable wtable({"policy", "workload", "miss ratio"});
    for (const auto& spec : specs) {
        if (!policy::specSupportsWays(spec, geom.ways))
            continue;
        for (const auto& w : suite) {
            const auto stats = eval::simulateTrace(geom, spec, w.trace);
            const double ratio =
                static_cast<double>(stats.misses) /
                static_cast<double>(w.trace.size());
            wtable.addRow({spec, w.name, formatDouble(ratio, 4)});
            json.row({{"policy", spec},
                      {"workload", w.name},
                      {"ways", uint64_t{geom.ways}},
                      {"miss_ratio", ratio}});
        }
    }
    std::cout << "\nAttacker/victim workload context ("
              << geom.describe() << "):\n";
    wtable.print(std::cout);

    const std::string path = json.write();
    if (!path.empty())
        std::cout << "\nWrote " << path << "\n";
    std::cout << "\n";

    if (!smoke) {
        unsigned fullPolicies = 0;
        for (const unsigned n : fullBothWays)
            if (n >= waysList.size())
                ++fullPolicies;
        if (fullPolicies < kMinFullPolicies) {
            std::cerr << "FAIL: only " << fullPolicies
                      << " policies have complete results at every "
                         "associativity (need "
                      << kMinFullPolicies << ")\n";
            return 1;
        }
        std::cout << fullPolicies
                  << " policies fully analyzed at every "
                     "associativity.\n\n";
    }
    return violation ? 1 : 0;
}

void
BM_SecEvictStrategy(benchmark::State& state)
{
    const auto view = sec::viewForSpec("plru", 4);
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            sec::evictStrategy(*view).informedLen);
        (void)unused;
    }
}
BENCHMARK(BM_SecEvictStrategy)->Unit(benchmark::kMillisecond);

void
BM_SecStealthProbe(benchmark::State& state)
{
    const auto view = sec::viewForSpec("plru", 4);
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            sec::stealthProbe(*view).probeLen);
        (void)unused;
    }
}
BENCHMARK(BM_SecStealthProbe)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    const int status = runSecuritySweep();
    if (status != 0)
        return status;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
