/**
 * @file
 * Checked parsing of counts and rates given as text: command-line
 * flags of recap-queryd, recap-sec and recap-dot, and policy-spec
 * parameters.
 */

#ifndef RECAP_COMMON_CLI_HH_
#define RECAP_COMMON_CLI_HH_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

#include "recap/common/error.hh"

namespace recap
{

/**
 * Parses @p text as a count of type T: decimal digits only, and a
 * value that fits T. A sign, a stray character, an empty string or
 * an overflow throws UsageError naming @p what, so "-1" cannot wrap
 * to the type's maximum and "8x" cannot read as 8.
 */
template <typename T>
T
parseCount(std::string_view text, std::string_view what)
{
    static_assert(std::is_unsigned_v<T>, "counts are unsigned");
    T value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        throw UsageError(std::string(what) + ": bad count '" +
                         std::string(text) + "'");
    return value;
}

/**
 * Parses @p text as a finite real number in [@p min, @p max]: the
 * whole token must be a decimal or scientific number. A stray
 * character, an empty string, "nan", "inf" or a value out of range
 * throws UsageError naming @p what, so "0.5x" cannot read as 0.5 and
 * "-1" cannot pass as a rate.
 */
inline double
parseRate(std::string_view text, std::string_view what, double min,
          double max)
{
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
        value < min || value > max)
        throw UsageError(std::string(what) + ": bad rate '" +
                         std::string(text) + "'");
    return value;
}

} // namespace recap

#endif // RECAP_COMMON_CLI_HH_
