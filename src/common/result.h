/**
 * @file
 * Recoverable-error plumbing for ingestion and CLI paths.
 *
 * Historically every malformed input called fatal() and killed the
 * process; callers embedding the simulator (sweep drivers, services,
 * tests) could not observe *why*. Result<T> carries either a value or
 * a ParseError with source/line/token diagnostics, so ingestion
 * failures propagate to the caller, which reports them and exits with
 * a distinct code (see ExitCode).
 */

#ifndef V10_COMMON_RESULT_H
#define V10_COMMON_RESULT_H

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "common/log.h"

namespace v10 {

/**
 * Process exit codes shared by v10sim, the benches, and the CI
 * corpus replay:
 *  - kExitOk: success
 *  - kExitRuntime: runtime failure (fault abort, OOM, fatal())
 *  - kExitUsage: usage or input-parse error (bad flags, malformed
 *    trace/config/fault spec)
 */
enum ExitCode : int {
    kExitOk = 0,
    kExitRuntime = 1,
    kExitUsage = 2,
};

/**
 * A structured ingestion diagnostic: what went wrong, where (source
 * name + 1-based line, when known), and the offending token/field.
 */
struct [[nodiscard]] ParseError
{
    std::string message; ///< human-readable description
    std::string source;  ///< file path or stream label
    std::size_t line = 0; ///< 1-based; 0 = not line-addressable
    std::string token;   ///< offending token or field name

    /** "source:line: message (near 'token')" */
    std::string
    toString() const
    {
        std::string out;
        if (!source.empty()) {
            out += source;
            out += ':';
        }
        if (line > 0) {
            out += std::to_string(line);
            out += ':';
        }
        if (!out.empty())
            out += ' ';
        out += message;
        if (!token.empty()) {
            out += " (near '";
            out += token;
            out += "')";
        }
        return out;
    }
};

/** Build a ParseError in one expression. */
inline ParseError
parseError(std::string message, std::string source = "",
           std::size_t line = 0, std::string token = "")
{
    ParseError e;
    e.message = std::move(message);
    e.source = std::move(source);
    e.line = line;
    e.token = std::move(token);
    return e;
}

/**
 * Either a T or a ParseError. Accessing the wrong side is a
 * programming error and panics; check ok() (or use the bool
 * conversion) first.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    /* implicit */ Result(T value) : value_(std::move(value)) {}

    /* implicit */ Result(ParseError error) : error_(std::move(error))
    {
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const
    {
        if (!ok())
            panic("Result::value() on error: ", error_.toString());
        return *value_;
    }

    T &
    value()
    {
        if (!ok())
            panic("Result::value() on error: ", error_.toString());
        return *value_;
    }

    /** Move the value out (for expensive payloads like traces). */
    T
    take()
    {
        if (!ok())
            panic("Result::take() on error: ", error_.toString());
        return std::move(*value_);
    }

    const ParseError &
    error() const
    {
        if (ok())
            panic("Result::error() on a success value");
        return error_;
    }

  private:
    std::optional<T> value_;
    ParseError error_{};
};

/**
 * Result of an operation with no payload: default state is success,
 * constructing from a ParseError marks failure.
 */
class [[nodiscard]] Status
{
  public:
    Status() = default;

    /* implicit */ Status(ParseError error)
        : ok_(false), error_(std::move(error))
    {
    }

    static Status ok() { return Status{}; }

    bool isOk() const { return ok_; }
    explicit operator bool() const { return ok_; }

    const ParseError &
    error() const
    {
        if (ok_)
            panic("Status::error() on a success status");
        return error_;
    }

  private:
    bool ok_ = true;
    ParseError error_{};
};

} // namespace v10

#endif // V10_COMMON_RESULT_H
