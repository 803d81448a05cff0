/**
 * @file
 * Minimal logging and error-exit helpers, following the gem5
 * fatal()/panic() convention:
 *
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, invalid arguments). Exits with code 1.
 *  - panic(): something happened that should never happen regardless
 *    of user input, i.e. a simulator bug. Calls abort().
 *  - inform()/warn(): status messages; never stop the simulation.
 */

#ifndef V10_COMMON_LOG_H
#define V10_COMMON_LOG_H

#include <optional>
#include <sstream>
#include <string>

namespace v10 {

/** Verbosity levels for inform()/warn() output. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Set the global verbosity (default: Warn). Thread-safe. */
void setLogLevel(LogLevel level);

/** Current global verbosity. Thread-safe. */
LogLevel logLevel();

/** Parse "silent" | "warn" | "info" | "debug"; nullopt if unknown. */
std::optional<LogLevel> logLevelFromName(const std::string &name);

/** Printable name of a verbosity level. */
const char *logLevelName(LogLevel level);

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void informImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** User-error exit (configuration problems and the like). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(nullptr, 0,
                      detail::concat(std::forward<Args>(args)...));
}

/** Simulator-bug exit; dumps core via abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(nullptr, 0,
                      detail::concat(std::forward<Args>(args)...));
}

/** Informational status message (LogLevel::Info and above). */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Info)
        detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Suspicious-but-survivable condition (LogLevel::Warn and above). */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() >= LogLevel::Warn)
        detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Developer tracing (LogLevel::Debug only). */
template <typename... Args>
void
debugLog(Args &&...args)
{
    if (logLevel() >= LogLevel::Debug)
        detail::debugImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace v10

/**
 * fatal()/panic() variants that capture the call site: prefer these
 * in new code — the plain variadic front-ends keep working but lose
 * __FILE__/__LINE__ (they pass nullptr/0).
 */
#define V10_FATAL(...)                                                \
    ::v10::detail::fatalImpl(                                         \
        __FILE__, __LINE__,                                           \
        ::v10::detail::concat(__VA_ARGS__))

#define V10_PANIC(...)                                                \
    ::v10::detail::panicImpl(                                         \
        __FILE__, __LINE__,                                           \
        ::v10::detail::concat(__VA_ARGS__))

#endif // V10_COMMON_LOG_H
