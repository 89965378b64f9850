/**
 * @file
 * Pinned compile outcomes under the default CompileBudget: which
 * (spec, ways) pairs compile and at exactly how many states. Shared by
 * test_policy_pack and bench_compile, which both fail on any drift.
 *
 * The counts were recorded with the string-keyed, clone-per-edge
 * enumeration that the packed-state compiler replaced, so they also
 * pin that the rewrite enumerates the same automata.
 */

#ifndef RECAP_TESTS_COMPILE_PINS_HH_
#define RECAP_TESTS_COMPILE_PINS_HH_

#include <array>
#include <cstdint>

namespace recap::pins
{

/** Associativities the pins cover. */
inline constexpr std::array<unsigned, 7> kPinWays = {2, 4, 6, 8,
                                                     12, 16, 24};

/** One spec's outcome per kPinWays entry. */
struct CompilePin
{
    const char* spec;
    /** States of the table; 0 = refused, -1 = spec unsupported. */
    std::array<int64_t, kPinWays.size()> states;
};

/** catalogSpecs() followed by the permutation-engine specs. */
inline constexpr CompilePin kCompilePins[] = {
    {"lru", {2, 24, 720, 40320, 0, 0, 0}},
    {"fifo", {2, 24, 720, 40320, 0, 0, 0}},
    {"plru", {2, 8, -1, 128, -1, 32768, -1}},
    {"bitplru", {3, 15, 63, 255, 4095, 65535, 0}},
    {"nru", {4, 16, 64, 256, 4096, 65536, 0}},
    {"random", {0, 0, 0, 0, 0, 0, 0}},
    {"lip", {2, 24, 720, 40320, 0, 0, 0}},
    {"bip", {64, 768, 23040, 0, 0, 0, 0}},
    {"srrip", {13, 241, 4033, 65281, 0, 0, 0}},
    {"brrip", {384, 7680, 129024, 0, 0, 0, 0}},
    {"slru", {4, 72, 2880, 0, 0, 0, 0}},
    {"qlru:H1,M1,R0,U2", {16, 256, 4096, 65536, 0, 0, 0}},
    {"qlru:H1,M3,R0,U2", {16, 256, 4096, 65536, 0, 0, 0}},
    {"dip", {8192, 98304, 0, 0, 0, 0, 0}},
    {"drrip", {48512, 0, 0, 0, 0, 0, 0}},
    {"ship", {0, 0, 0, 0, 0, 0, 0}},
    {"eaf", {0, 0, 0, 0, 0, 0, 0}},
    {"dip:4,3,4", {1024, 12288, 0, 0, 0, 0, 0}},
    {"drrip:1,4,3,4", {1716, 7860, 32436, 130740, 0, 0, 0}},
    {"perm-lru", {2, 24, 720, 40320, 0, 0, 0}},
    {"perm-fifo", {2, 24, 720, 40320, 0, 0, 0}},
    {"perm-plru", {2, 8, -1, 128, -1, 32768, -1}},
};

} // namespace recap::pins

#endif // RECAP_TESTS_COMPILE_PINS_HH_
