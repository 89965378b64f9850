/**
 * @file
 * recap-sec — security analyses over compiled policy automata.
 *
 * Runs the sec:: searches (minimal eviction strategies, stealthy
 * probe synthesis, attacker observability) for one policy and
 * associativity and prints a human-readable report:
 *
 *   recap-sec --policy lru --ways 4
 *   recap-sec --policy drrip --ways 2 --analysis evict
 *   recap-sec --policy plru --ways 8 --max-configs 50000000
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>

#include "recap/common/cli.hh"
#include "recap/policy/factory.hh"
#include "recap/sec/profile.hh"

namespace
{

void
usage(std::ostream& os)
{
    os << "usage: recap-sec --policy <spec> --ways <k>\n"
       << "                 [--analysis all|evict|stealth|observe]\n"
       << "                 [--max-configs <n>] [--victim-lines <v>]\n"
       << "                 [--horizon <l>]\n"
       << "\n"
       << "  --policy <spec>   policy spec (policy::makePolicy "
          "grammar)\n"
       << "  --ways <k>        associativity\n"
       << "  --analysis <a>    which analysis to run (default all)\n"
       << "  --max-configs <n> search budget per analysis "
          "(default 2000000)\n"
       << "  --victim-lines <v> observability victim alphabet "
          "(default 2)\n"
       << "  --horizon <l>     observability victim accesses "
          "(default 2*ways)\n";
}

void
printEvict(const recap::sec::EvictStrategyResult& r)
{
    std::cout << "eviction strategy: " << r.render() << "\n";
    if (r.informedOutcome == recap::sec::SecOutcome::kComplete &&
        !r.informedUnbounded) {
        std::cout << "  adaptive attacker: " << r.informedLen
                  << " accesses over " << r.informedMinLines
                  << " distinct lines (shortest at that pool: "
                  << r.informedLenAtMinLines << ")\n";
    }
    std::cout << "  configs explored: " << r.configsExplored << "\n";
}

void
printStealth(const recap::sec::StealthResult& r)
{
    std::cout << "stealthy probe: " << r.render() << "\n";
    if (r.feasible) {
        std::cout << "  monitored way: " << r.monitoredWay
                  << "\n  probe word (home ways):";
        for (const auto w : r.probe)
            std::cout << " " << w;
        std::cout << "\n";
    }
    std::cout << "  configs explored: " << r.configsExplored << "\n";
}

void
printObserve(const recap::sec::ObservabilityResult& r)
{
    std::cout << "observability: " << r.render() << "\n";
    if (r.outcome == recap::sec::SecOutcome::kComplete) {
        std::cout << "  reached configurations: " << r.reachedConfigs
                  << "\n  class sizes: min " << r.minClass << ", max "
                  << r.maxClass << "\n";
    }
    std::cout << "  configs explored: " << r.configsExplored << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace recap;

    std::string policySpec;
    std::string analysis = "all";
    unsigned ways = 0;
    sec::SecBudget budget;
    sec::ObservabilityConfig observeCfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "recap-sec: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // Checked: "-1" must not wrap and "8x" must not read 8.
        const auto count = [&](auto& dst) {
            try {
                dst = parseCount<std::remove_reference_t<decltype(dst)>>(
                    value(), arg);
            } catch (const UsageError& e) {
                std::cerr << "recap-sec: " << e.what() << "\n";
                usage(std::cerr);
                std::exit(2);
            }
        };
        if (arg == "--policy") {
            policySpec = value();
        } else if (arg == "--ways") {
            count(ways);
        } else if (arg == "--analysis") {
            analysis = value();
        } else if (arg == "--max-configs") {
            count(budget.maxConfigs);
        } else if (arg == "--victim-lines") {
            count(observeCfg.victimLines);
        } else if (arg == "--horizon") {
            count(observeCfg.horizon);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "recap-sec: unknown argument '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (policySpec.empty() || ways == 0) {
        usage(std::cerr);
        return 2;
    }
    if (analysis != "all" && analysis != "evict" &&
        analysis != "stealth" && analysis != "observe") {
        std::cerr << "recap-sec: unknown analysis '" << analysis
                  << "'\n";
        return 2;
    }

    try {
        // A typo'd policy name should be an error, not an abstention
        // (makePolicy's message lists every known policy).
        if (!policy::isKnownPolicySpec(policySpec))
            policy::makePolicy(policySpec, ways);
        const auto view = sec::viewForSpec(policySpec, ways, budget);
        if (!view) {
            std::cout << policySpec << " @" << ways
                      << ": not compiled (metadata-dependent policy "
                         "or state space over budget)\n";
            return 0;
        }
        std::cout << view->policyName() << " @" << ways << ": "
                  << view->numStates() << " compiled states\n";
        if (analysis == "all" || analysis == "evict")
            printEvict(sec::evictStrategy(*view, budget));
        if (analysis == "all" || analysis == "stealth")
            printStealth(sec::stealthProbe(*view, budget));
        if (analysis == "all" || analysis == "observe")
            printObserve(
                sec::observability(*view, observeCfg, budget));
    } catch (const std::exception& e) {
        std::cerr << "recap-sec: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
