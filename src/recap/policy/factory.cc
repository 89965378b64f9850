#include "recap/policy/factory.hh"

#include "recap/common/bitops.hh"
#include "recap/common/cli.hh"
#include "recap/common/error.hh"
#include "recap/policy/dip.hh"
#include "recap/policy/drrip.hh"
#include "recap/policy/eaf.hh"
#include "recap/policy/fifo.hh"
#include "recap/policy/lru.hh"
#include "recap/policy/nru.hh"
#include "recap/policy/permutation.hh"
#include "recap/policy/plru.hh"
#include "recap/policy/qlru.hh"
#include "recap/policy/random.hh"
#include "recap/policy/rrip.hh"
#include "recap/policy/ship.hh"
#include "recap/policy/slru.hh"

namespace recap::policy
{

namespace
{

/** Splits "name:args" into (name, args); a bare trailing colon is a
 *  malformed spec. */
std::pair<std::string, std::string>
splitSpec(const std::string& spec)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        return {spec, ""};
    require(colon + 1 < spec.size(),
            "makePolicy: empty parameter list in '" + spec + "'");
    return {spec.substr(0, colon), spec.substr(colon + 1)};
}

unsigned
parseUnsigned(const std::string& text, const std::string& what)
{
    return parseCount<unsigned>(text, "makePolicy: " + what);
}

/** Splits "a,b" into two strings; second may be missing. */
std::pair<std::string, std::string>
splitComma(const std::string& text)
{
    const auto comma = text.find(',');
    if (comma == std::string::npos)
        return {text, ""};
    return {text.substr(0, comma), text.substr(comma + 1)};
}

/**
 * Parses a comma-separated parameter list of at most
 * defaults.size() unsigned values; omitted trailing parameters take
 * their defaults.
 */
std::vector<unsigned>
parseParams(const std::string& args, std::vector<unsigned> defaults,
            const std::string& what)
{
    if (args.empty())
        return defaults;
    std::string rest = args;
    for (size_t i = 0; i < defaults.size(); ++i) {
        const auto [head, tail] = splitComma(rest);
        defaults[i] = parseUnsigned(head, what + " parameter " +
                                              std::to_string(i + 1));
        if (tail.empty()) {
            require(rest.find(',') == std::string::npos,
                    "makePolicy: empty " + what + " parameter");
            return defaults;
        }
        rest = tail;
    }
    throw UsageError("makePolicy: too many " + what + " parameters '" +
                     args + "'");
}

} // namespace

PolicyPtr
makePolicy(const std::string& spec, unsigned ways, uint64_t seed)
{
    const auto [name, args] = splitSpec(spec);

    if (name == "lru") {
        return std::make_unique<LruPolicy>(ways);
    } else if (name == "fifo") {
        return std::make_unique<FifoPolicy>(ways);
    } else if (name == "plru") {
        return std::make_unique<TreePlruPolicy>(ways);
    } else if (name == "bitplru") {
        return std::make_unique<BitPlruPolicy>(ways);
    } else if (name == "nru") {
        return std::make_unique<NruPolicy>(ways);
    } else if (name == "random") {
        return std::make_unique<RandomPolicy>(ways, seed);
    } else if (name == "lip") {
        return std::make_unique<LipPolicy>(ways);
    } else if (name == "bip") {
        const unsigned throttle =
            args.empty() ? 32 : parseUnsigned(args, "BIP throttle");
        return std::make_unique<BipPolicy>(ways, throttle);
    } else if (name == "srrip") {
        const unsigned bits =
            args.empty() ? 2 : parseUnsigned(args, "SRRIP bits");
        return std::make_unique<SrripPolicy>(ways, bits);
    } else if (name == "brrip") {
        if (args.empty())
            return std::make_unique<BrripPolicy>(ways);
        const auto [bits_text, throttle_text] = splitComma(args);
        const unsigned bits = parseUnsigned(bits_text, "BRRIP bits");
        const unsigned throttle = throttle_text.empty()
            ? 32 : parseUnsigned(throttle_text, "BRRIP throttle");
        return std::make_unique<BrripPolicy>(ways, bits, throttle);
    } else if (name == "slru") {
        const unsigned protected_ways =
            args.empty() ? 0 : parseUnsigned(args, "SLRU protected");
        return std::make_unique<SlruPolicy>(ways, protected_ways);
    } else if (name == "qlru") {
        require(!args.empty(), "makePolicy: qlru needs parameters");
        return std::make_unique<QlruPolicy>(ways, QlruParams::parse(args));
    } else if (name == "dip") {
        const auto p = parseParams(args, {16, 4, 4}, "DIP");
        return std::make_unique<DipPolicy>(ways, p[0], p[1], p[2]);
    } else if (name == "drrip") {
        const auto p = parseParams(args, {2, 16, 4, 4}, "DRRIP");
        return std::make_unique<DrripPolicy>(ways, p[0], p[1], p[2],
                                             p[3]);
    } else if (name == "ship") {
        const auto p = parseParams(args, {2, 4, 2}, "SHiP");
        return std::make_unique<ShipPolicy>(ways, p[0], p[1], p[2]);
    } else if (name == "eaf") {
        const auto p = parseParams(args, {0, 16}, "EAF");
        return std::make_unique<EafPolicy>(ways, p[0], p[1]);
    } else if (name == "perm-lru") {
        return std::make_unique<PermutationPolicy>(
            PermutationPolicy::lru(ways));
    } else if (name == "perm-fifo") {
        return std::make_unique<PermutationPolicy>(
            PermutationPolicy::fifo(ways));
    } else if (name == "perm-plru") {
        return std::make_unique<PermutationPolicy>(
            PermutationPolicy::plru(ways));
    }

    std::string known;
    for (const auto& k : knownPolicyNames())
        known += known.empty() ? k : ", " + k;
    throw UsageError("makePolicy: unknown policy spec '" + spec +
                     "' (known policies: " + known + ")");
}

bool
isKnownPolicySpec(const std::string& spec)
{
    try {
        // Associativity 4 satisfies every policy's constraints.
        (void)makePolicy(spec, 4);
        return true;
    } catch (const UsageError&) {
        return false;
    }
}

std::vector<std::string>
knownPolicyNames()
{
    return {
        "lru", "fifo", "plru", "bitplru", "nru", "random",
        "lip", "bip", "srrip", "brrip", "slru", "qlru",
        "dip", "drrip", "ship", "eaf",
        "perm-lru", "perm-fifo", "perm-plru",
    };
}

std::vector<std::string>
baselineSpecs()
{
    return {
        "lru", "fifo", "plru", "bitplru", "nru", "random",
        "lip", "bip", "srrip", "brrip", "slru",
        "qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2",
    };
}

std::vector<std::string>
modernSpecs()
{
    return {
        // Default parameterizations.
        "dip", "drrip", "ship", "eaf",
        // Compile-tractable small parameterizations, so the dueling
        // automata also get compiled-path differential coverage
        // (the defaults exceed the CompileBudget beyond 2 ways).
        "dip:4,3,4", "drrip:1,4,3,4",
    };
}

std::vector<std::string>
catalogSpecs()
{
    auto specs = baselineSpecs();
    const auto modern = modernSpecs();
    specs.insert(specs.end(), modern.begin(), modern.end());
    return specs;
}

bool
specSupportsWays(const std::string& spec, unsigned ways)
{
    const auto [name, args] = splitSpec(spec);
    (void)args;
    if (name == "plru" || name == "perm-plru")
        return ways >= 2 && isPowerOfTwo(ways);
    if (name == "lru" || name == "fifo" || name == "lip" ||
        name == "bip" || name == "random" ||
        name == "perm-lru" || name == "perm-fifo") {
        return ways >= 1;
    }
    // Remaining families need at least two ways.
    return ways >= 2;
}

} // namespace recap::policy
