/**
 * @file
 * Status and error reporting helpers following the gem5 idiom.
 *
 * fatal() is for user errors (bad configuration, invalid arguments): the
 * program cannot continue but the library itself is not broken. panic() is
 * for conditions that should never happen regardless of user input, i.e. a
 * library bug. warn() and inform() report conditions without stopping.
 */

#ifndef ACS_COMMON_LOGGING_HH
#define ACS_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace acs {

/** Exception thrown by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by panic(): an internal library invariant violation. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/**
 * Report an unrecoverable user error.
 *
 * Throws FatalError so that library users (and tests) can catch it;
 * standalone tools let it propagate and terminate with a message.
 *
 * @param msg Human-readable description of the configuration problem.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation (a bug in this library).
 *
 * @param msg Human-readable description of the broken invariant.
 */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr without stopping. */
void warn(const std::string &msg);

/** Print an informational message to stderr without stopping. */
void inform(const std::string &msg);

/** Enable/disable inform() output (warnings are always printed). */
void setVerbose(bool verbose);

/**
 * fatal() if @p cond holds.
 *
 * Takes a view so that a literal message costs nothing on the success
 * path: the std::string is built only inside the failing branch. Hot
 * loops must not pass a message formatted up front (e.g. one built with
 * std::to_string): that formats on every call; test the condition and
 * call fatal() in the branch instead.
 *
 * @param cond Condition that makes the configuration invalid.
 * @param msg  Message used when the condition holds.
 */
inline void
fatalIf(bool cond, std::string_view msg)
{
    if (cond) [[unlikely]]
        fatal(std::string(msg));
}

/** panic() if @p cond holds (message built only on failure). */
inline void
panicIf(bool cond, std::string_view msg)
{
    if (cond) [[unlikely]]
        panic(std::string(msg));
}

} // namespace acs

#endif // ACS_COMMON_LOGGING_HH
