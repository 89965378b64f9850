/**
 * @file
 * recap-dot — Graphviz DOT dump of replacement-policy automata.
 *
 * Renders either the exact extracted machine of a catalog policy
 * (learn::automatonOfPolicy) or the machine the active learner
 * recovers from membership queries alone (--learn), so the two can
 * be diffed visually:
 *
 *   recap-dot --policy lru --ways 2 | dot -Tsvg > lru.svg
 *   recap-dot --policy slru:1 --ways 4 --learn --minimize
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>

#include "recap/common/cli.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/mealy.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/factory.hh"
#include "recap/query/oracle.hh"

namespace
{

void
usage(std::ostream& os)
{
    os << "usage: recap-dot --policy <spec> --ways <k>\n"
       << "                 [--alphabet <n>] [--minimize] [--learn]\n"
       << "                 [--semantics concrete|roles]\n"
       << "\n"
       << "  --policy <spec> policy spec (policy::makePolicy grammar)\n"
       << "  --ways <k>      associativity\n"
       << "  --alphabet <n>  block alphabet (default ways + 1)\n"
       << "  --minimize      emit the canonical minimal machine\n"
       << "  --learn         run the L* learner against the policy\n"
       << "                  instead of extracting the exact machine\n"
       << "  --semantics     learner symbol semantics (with --learn)\n";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace recap;

    std::string policySpec;
    unsigned ways = 0;
    unsigned alphabet = 0;
    bool minimize = false;
    bool doLearn = false;
    auto semantics = learn::SymbolSemantics::kConcreteBlocks;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "recap-dot: " << arg
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
                std::cerr << "recap-dot: " << e.what() << "\n";
                usage(std::cerr);
                std::exit(2);
            }
        };
        if (arg == "--policy") {
            policySpec = value();
        } else if (arg == "--ways") {
            count(ways);
        } else if (arg == "--alphabet") {
            count(alphabet);
        } else if (arg == "--minimize") {
            minimize = true;
        } else if (arg == "--learn") {
            doLearn = true;
        } else if (arg == "--semantics") {
            const std::string s = value();
            if (s == "concrete") {
                semantics = learn::SymbolSemantics::kConcreteBlocks;
            } else if (s == "roles") {
                semantics = learn::SymbolSemantics::kRecencyRoles;
            } else {
                std::cerr << "recap-dot: unknown semantics '" << s
                          << "'\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "recap-dot: unknown argument '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (policySpec.empty() || ways == 0) {
        usage(std::cerr);
        return 2;
    }
    if (alphabet == 0)
        alphabet = ways + 1;

    try {
        learn::MealyMachine machine;
        std::string title;
        if (doLearn) {
            query::PolicyOracle oracle(policySpec, ways);
            learn::OracleTeacher teacher(oracle);
            learn::LearnOptions options;
            options.alphabet = alphabet;
            options.semantics = semantics;
            learn::LStarLearner learner(teacher, options);
            const auto result = learner.run();
            if (result.outcome != learn::LearnOutcome::kLearned) {
                std::cerr << "recap-dot: learner abstained: "
                          << result.diagnostics << "\n";
                return 1;
            }
            machine = result.machine;
            title = "learned " + policySpec + " @" +
                    std::to_string(ways) + " (" +
                    std::to_string(result.membershipWords) +
                    " words)";
        } else {
            const auto policy = policy::makePolicy(policySpec, ways);
            machine = learn::automatonOfPolicy(*policy, alphabet);
            title = policy->name() + " @" + std::to_string(ways);
        }
        if (minimize) {
            machine = machine.minimized();
            title += ", minimized";
        }
        std::cout << machine.toDot(title);
    } catch (const std::exception& e) {
        std::cerr << "recap-dot: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
