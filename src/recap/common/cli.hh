/**
 * @file
 * Checked parsing of counts given as text: command-line flags of
 * recap-queryd, recap-sec and recap-dot, and policy-spec parameters.
 */

#ifndef RECAP_COMMON_CLI_HH_
#define RECAP_COMMON_CLI_HH_

#include <charconv>
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

} // namespace recap

#endif // RECAP_COMMON_CLI_HH_
