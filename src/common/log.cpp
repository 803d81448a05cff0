#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace v10 {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::Warn)};

/**
 * Serializes every log write: ParallelExecutor workers call
 * inform()/warn()/debugLog() concurrently, and two unsynchronized
 * fprintf()s to the same stream may interleave mid-line.
 */
std::mutex &
logMutex()
{
    // The log mutex IS the synchronization primitive, not data it
    // guards. v10lint: allow(concurrency-mutable-static)
    static std::mutex m;
    return m;
}

void
writeLine(const char *tag, const char *loc, const std::string &msg)
{
    const std::lock_guard<std::mutex> lock(logMutex());
    if (loc != nullptr)
        std::fprintf(stderr, "%s: %s: %s\n", tag, loc, msg.c_str());
    else
        std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    std::fflush(stderr);
}

/** "file.cpp:42" suffix for fatal/panic call sites (V10_FATAL). */
std::string
location(const char *file, int line)
{
    if (file == nullptr)
        return {};
    const std::string path(file);
    // Basename only: full build paths add noise, not information.
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    return base + ":" + std::to_string(line);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        g_level.load(std::memory_order_relaxed));
}

std::optional<LogLevel>
logLevelFromName(const std::string &name)
{
    if (name == "silent")
        return LogLevel::Silent;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
    case LogLevel::Silent: return "silent";
    case LogLevel::Warn: return "warn";
    case LogLevel::Info: return "info";
    case LogLevel::Debug: return "debug";
    }
    return "?";
}

namespace detail {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    const std::string loc = location(file, line);
    writeLine("fatal", loc.empty() ? nullptr : loc.c_str(), msg);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    const std::string loc = location(file, line);
    writeLine("panic", loc.empty() ? nullptr : loc.c_str(), msg);
    std::abort();
}

void
informImpl(const std::string &msg)
{
    writeLine("info", nullptr, msg);
}

void
warnImpl(const std::string &msg)
{
    writeLine("warn", nullptr, msg);
}

void
debugImpl(const std::string &msg)
{
    writeLine("debug", nullptr, msg);
}

} // namespace detail

} // namespace v10
