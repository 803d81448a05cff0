/**
 * @file
 * Minimal JSON support for the observability layer: a streaming
 * writer (used by the stats registry, the run report, and the
 * Chrome-trace emitter) and a small recursive-descent parser (used
 * by tests and CLI validation to check emitted artifacts without an
 * external dependency).
 *
 * The writer produces strict JSON: keys are escaped, doubles print
 * with round-trip precision (the bytes of printf "%.17g" in the C
 * locale, whatever the process locale), and non-finite doubles
 * degrade to null (JSON has no NaN/Inf literal). It buffers its text
 * and writes it to the stream in blocks, and in full once the
 * top-level value closes: write raw bytes to the stream only after
 * that. tableRows() writes a rows x columns block of numbers (the
 * stats registry's tables), reading one row per call, with its key
 * fragments and its all-zero row body rendered once per block
 * instead of once per leaf. numberRows() writes arrays of numbers
 * (the interval sampler's rows) the same way, one row per call.
 */

#ifndef V10_COMMON_JSON_H
#define V10_COMMON_JSON_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace v10 {

/** Escape a string for embedding inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/** Render a double as a JSON number token (null if not finite). */
std::string jsonNumber(double v);

/** Append jsonNumber(@p v) to @p out without a temporary string. */
void appendJsonNumber(std::string &out, double v);

/**
 * Streaming JSON writer with automatic comma/indent management.
 * Misuse (e.g. a value with no pending key inside an object) is a
 * programming error and panics.
 */
class JsonWriter
{
  public:
    /** @param os output stream (not owned)
     *  @param indentWidth spaces per nesting level (0 = compact) */
    explicit JsonWriter(std::ostream &os, int indentWidth = 2);

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Writes out whatever is still buffered, even mid-document. */
    ~JsonWriter();

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Object member key; must be followed by a value or begin*(). */
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char *v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v);
    void value(bool v);
    void valueNull();

    /** Convenience: key() + value(). */
    template <typename T>
    void
    kv(std::string_view k, T &&v)
    {
        key(k);
        value(std::forward<T>(v));
    }

    /**
     * Write @p rows members into the open object, the same bytes as
     * key(rowName(r)), beginObject(), kv(columns[c], cells[c]) for
     * every column and endObject() for each row r in turn, where
     * readRow(r, cells) fills cells[0, columns.size()). One call
     * per row; the quoted, indented column keys and the body of a
     * row whose cells are all +0.0 are rendered once per call.
     */
    void tableRows(
        std::size_t rows, const std::vector<std::string> &columns,
        const std::function<std::string_view(std::size_t)> &rowName,
        const std::function<void(std::size_t, double *)> &readRow);

    /**
     * Write @p rows arrays into the open array, the same bytes as
     * beginArray(), value(lead), value(cells[c]) for every c in
     * [0, width) and endArray() for each row r in turn, where
     * lead = readRow(r, cells) fills cells[0, width). One call per
     * row; the separators and indents are rendered once per call.
     */
    void numberRows(
        std::size_t rows, std::size_t width,
        const std::function<std::uint64_t(std::size_t, double *)>
            &readRow);

    /** Nesting depth (0 once every container is closed). */
    std::size_t depth() const { return stack_.size(); }

  private:
    enum class Scope { Object, Array };

    /** Append separators/indentation before a value or key. */
    void preValue();
    void newlineIndent();
    /** Append to @p out the line break and indentation of nesting
     *  depth @p depth (nothing when compact). */
    void appendLineBreak(std::string &out, std::size_t depth) const;
    /** End of a public call: write out_ to the stream once it
     *  passes kFlushBytes or the top-level value has closed. */
    void emit();
    /** Write out_ to the stream and clear it. */
    void flush();

    /// Capacity reserved for out_ once, at construction.
    static constexpr std::size_t kBufferBytes = 32 * 1024;
    /// Buffer size that triggers a write to the stream. A call
    /// appends at most one value or table row past it, so out_
    /// outgrows its reserve only for a value longer than the slack.
    static constexpr std::size_t kFlushBytes = kBufferBytes - 4096;

    std::ostream &os_;
    int indent_;
    std::string out_; ///< text not yet written to os_
    std::vector<Scope> stack_;
    std::vector<bool> has_items_;
    bool key_pending_ = false;
};

/**
 * Parsed JSON document node. A deliberately small tree model: object
 * members keep their source order, numbers are doubles.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /**
     * Parse @p text as one JSON document. A failure's ParseError
     * message carries the byte offset of the problem.
     */
    static Result<JsonValue> parse(const std::string &text);

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** True when this is an object containing @p key. */
    bool has(const std::string &key) const
    {
        return find(key) != nullptr;
    }

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
};

} // namespace v10

#endif // V10_COMMON_JSON_H
