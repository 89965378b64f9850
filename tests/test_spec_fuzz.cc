/**
 * @file
 * Policy-spec fuzzing: random and mutated spec strings, as they can
 * arrive from the CLIs and `recap-queryd --policy`, fed to
 * makePolicy(), isKnownPolicySpec() and compiledTableFor() at
 * associativities 1-32. Every input must either build a policy that
 * steps, or be rejected with UsageError; nothing may crash, hang or
 * throw anything else. Fixed seed, bounded count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{
namespace
{

/** Numbers around the widths where parameter arithmetic can wrap. */
const std::vector<std::string> kEdgeNumbers = {
    "0", "1", "2", "3", "7", "8", "9", "15", "16", "17", "31", "32",
    "33", "63", "64", "65", "255", "256",
    "1073741823", "1073741824", "1073741825",    // 2^30
    "2147483647", "2147483648", "2147483649",    // 2^31
    "4294967295", "4294967296", "4294967297",    // 2^32
    "18446744073709551615", "18446744073709551616", "-1", "+1", "01",
};

/** Parameterized and edge-case seeds for the mutator. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> seeds = catalogSpecs();
    for (const char* extra :
         {"perm-lru", "perm-fifo", "perm-plru", "bip:4", "srrip:3",
          "brrip:2,8", "slru:1", "qlru:H0,M0,R0,U0",
          "dip:16,4,4", "drrip:2,16,4,4", "ship:2,4,2", "eaf:8,16",
          "dip:16,4,1073741824", "drrip:2,16,4,1073741824"}) {
        seeds.emplace_back(extra);
    }
    return seeds;
}

std::string
pick(const std::vector<std::string>& from, Rng& rng)
{
    return from[rng.nextBelow(from.size())];
}

/** One random edit: numbers, parameter counts, separators, bytes. */
std::string
mutate(std::string spec, Rng& rng)
{
    const std::string separators = ":,;| \t";
    switch (rng.nextBelow(9)) {
      case 0: {
        // Replace the first run of digits with an edge number.
        const auto begin = spec.find_first_of("0123456789");
        if (begin == std::string::npos)
            return spec + ":" + pick(kEdgeNumbers, rng);
        const auto end = spec.find_first_not_of("0123456789", begin);
        return spec.substr(0, begin) + pick(kEdgeNumbers, rng) +
               (end == std::string::npos ? "" : spec.substr(end));
      }
      case 1: // an extra trailing parameter
        return spec + (spec.find(':') == std::string::npos ? ":" : ",") +
               pick(kEdgeNumbers, rng);
      case 2: { // drop the last parameter
        const auto cut = spec.find_last_of(":,");
        return cut == std::string::npos ? spec : spec.substr(0, cut);
      }
      case 3: { // a stray separator anywhere
        const auto at = rng.nextBelow(spec.size() + 1);
        return spec.insert(at, 1, separators[rng.nextBelow(
                                      separators.size())]);
      }
      case 4: // empty parameters
        return spec + (rng.nextBelow(2) ? ":" : ",,");
      case 5: { // delete one byte
        if (spec.empty())
            return spec;
        return spec.erase(rng.nextBelow(spec.size()), 1);
      }
      case 6: { // overwrite one byte with any byte
        if (spec.empty())
            return spec;
        spec[rng.nextBelow(spec.size())] =
            static_cast<char>(rng.nextBelow(256));
        return spec;
      }
      case 7: { // a full parameter list of edge numbers
        const auto colon = spec.find(':');
        std::string out = spec.substr(0, colon) + ":";
        const unsigned n = 1 + static_cast<unsigned>(rng.nextBelow(5));
        for (unsigned i = 0; i < n; ++i)
            out += (i ? "," : "") + pick(kEdgeNumbers, rng);
        return out;
      }
      default: { // random printable bytes
        std::string out;
        const auto n = rng.nextBelow(12);
        for (uint64_t i = 0; i < n; ++i)
            out.push_back(static_cast<char>(' ' + rng.nextBelow(95)));
        return out;
      }
    }
}

/** Builds and steps @p spec at @p ways, unless it is a usage error. */
void
exercise(const std::string& spec, unsigned ways, Rng& rng)
{
    (void)isKnownPolicySpec(spec);
    try {
        PolicyPtr policy = makePolicy(spec, ways);
        for (unsigned i = 0; i < 64; ++i) {
            const Way victim = policy->victim();
            ASSERT_LT(victim, ways) << "'" << spec << "' k=" << ways;
            if (rng.nextBelow(2) == 0)
                policy->touch(static_cast<Way>(rng.nextBelow(ways)));
            else
                policy->fill(victim);
        }
        (void)policy->stateKey();
        (void)policy->clone();
    } catch (const UsageError&) {
    }

    CompileBudget small;
    small.maxStates = 256;
    try {
        if (const CompiledTablePtr table =
                compiledTableFor(spec, ways, small)) {
            CompiledPolicy compiled(table);
            for (unsigned i = 0; i < 64; ++i) {
                const Way victim = compiled.victim();
                ASSERT_LT(victim, ways) << "'" << spec << "' k=" << ways;
                compiled.fill(victim);
                compiled.touch(static_cast<Way>(rng.nextBelow(ways)));
            }
        }
    } catch (const UsageError&) {
    }
}

TEST(SpecFuzz, MutatedSpecsBuildOrRaiseUsageError)
{
    const std::vector<std::string> seeds = corpus();
    Rng rng(0x5EC5F022);
    for (unsigned i = 0; i < 10000; ++i) {
        std::string spec = pick(seeds, rng);
        const auto edits = 1 + rng.nextBelow(3);
        for (uint64_t e = 0; e < edits; ++e)
            spec = mutate(spec, rng);
        const unsigned ways = 1 + static_cast<unsigned>(rng.nextBelow(32));
        exercise(spec, ways, rng);
        if (HasFatalFailure())
            return;
    }
}

TEST(SpecFuzz, EverySeedAtEveryAssociativity)
{
    Rng rng(0xA55);
    for (const auto& spec : corpus()) {
        for (unsigned ways = 1; ways <= 32; ++ways) {
            exercise(spec, ways, rng);
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace recap::policy
