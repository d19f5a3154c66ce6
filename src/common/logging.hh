/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic split:
 *
 *  - panic():  a simulator bug — a condition that should be impossible
 *              regardless of user input.  Throws SimPanic (so tests can
 *              assert on it) after printing.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments).  Throws SimFatal.
 *  - warn():   something may be modelled imprecisely; keep going.
 *  - inform(): normal operating status.
 *
 * warn() and inform() write one line each (stderr / stdout); a line
 * is a single fprintf, so concurrent campaign workers never interleave
 * mid-line.
 */

#ifndef USCOPE_COMMON_LOGGING_HH
#define USCOPE_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace uscope
{

/** Thrown by panic(): an internal simulator invariant was violated. */
class SimPanic : public std::logic_error
{
  public:
    explicit SimPanic(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the user asked for something unsupported. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &msg) : std::runtime_error(msg) {}
};

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and throw SimPanic. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error and throw SimFatal. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a non-fatal modelling caveat. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace uscope

#endif // USCOPE_COMMON_LOGGING_HH
