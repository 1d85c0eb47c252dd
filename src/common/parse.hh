/**
 * @file
 * Strict text-to-number parsing for user-facing input surfaces.
 *
 * std::stod and friends parse a prefix ("24x" reads as 24), skip
 * leading whitespace, and accept "nan" and "inf"; a number the user
 * mistyped then flows silently into the model. parseNumber() accepts
 * a value only when std::from_chars consumes the whole text and, for
 * floating-point types, the result is finite. Every rejection is a
 * FatalError naming the input and the reason.
 */

#ifndef ACS_COMMON_PARSE_HH
#define ACS_COMMON_PARSE_HH

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/logging.hh"

namespace acs {

/**
 * Parse all of @p text as a T (an integer or floating-point type).
 *
 * Rejected, with a FatalError of the form
 * "<what>: '<text>' <reason>": empty text, text that is not a number,
 * trailing characters, a value outside T's range, and (for floating
 * point) nan or ±inf. Leading whitespace and a leading '+' are
 * rejected too, as std::from_chars does.
 *
 * @param text The characters to parse.
 * @param what Names the input in the error (e.g. "--horizon").
 * @param base Digit base for integer types (e.g. 16 reads "ff", with
 *             no "0x" prefix); floating-point types need 10.
 */
template <typename T>
T
parseNumber(std::string_view text, std::string_view what, int base = 10)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                  "parseNumber needs an integer or floating-point type");
    const auto reject = [&](const char *reason) {
        fatal(std::string(what) + ": '" + std::string(text) + "' " +
              reason);
    };
    if (text.empty())
        reject("is empty");
    const char *const last = text.data() + text.size();
    T value{};
    std::from_chars_result res;
    if constexpr (std::is_integral_v<T>) {
        res = std::from_chars(text.data(), last, value, base);
    } else {
        if (base != 10)
            panic("parseNumber: floating point needs base 10");
        res = std::from_chars(text.data(), last, value);
    }
    const auto [ptr, ec] = res;
    if (ec == std::errc::result_out_of_range)
        reject("is out of range");
    else if (ec != std::errc())
        reject("is not a number");
    else if (ptr != last)
        reject("has trailing characters");
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            reject("is not finite");
    }
    return value;
}

} // namespace acs

#endif // ACS_COMMON_PARSE_HH
