/**
 * @file
 * Error-reporting helpers shared across recap.
 *
 * The library distinguishes, following gem5's fatal/panic convention:
 *  - usage errors (bad configuration, invalid arguments supplied by the
 *    caller) -> UsageError, raised by require();
 *  - internal invariant violations (bugs in recap itself) -> LogicBug,
 *    raised by ensure().
 *
 * Both are exceptions rather than aborts so that the extensive test
 * suite can assert on them.
 */

#ifndef RECAP_COMMON_ERROR_HH_
#define RECAP_COMMON_ERROR_HH_

#include <stdexcept>
#include <string>

namespace recap
{

/** Raised when a caller violates a documented precondition. */
class UsageError : public std::invalid_argument
{
  public:
    explicit UsageError(const std::string& what)
        : std::invalid_argument(what)
    {}
};

/** Raised when an internal invariant of recap itself is broken. */
class LogicBug : public std::logic_error
{
  public:
    explicit LogicBug(const std::string& what)
        : std::logic_error(what)
    {}
};

/**
 * Checks a caller-facing precondition.
 *
 * @param cond Condition that must hold.
 * @param what Message describing the violated contract.
 */
inline void
require(bool cond, const std::string& what)
{
    if (!cond)
        throw UsageError(what);
}

/** require() for literal messages: no string is built unless it fails. */
inline void
require(bool cond, const char* what)
{
    if (!cond)
        throw UsageError(what);
}

/**
 * Checks an internal invariant.
 *
 * @param cond Condition that must hold if recap is bug-free.
 * @param what Message identifying the broken invariant.
 */
inline void
ensure(bool cond, const std::string& what)
{
    if (!cond)
        throw LogicBug(what);
}

/** ensure() for literal messages: no string is built unless it fails. */
inline void
ensure(bool cond, const char* what)
{
    if (!cond)
        throw LogicBug(what);
}

} // namespace recap

#endif // RECAP_COMMON_ERROR_HH_
