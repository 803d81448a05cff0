#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/log.h"

namespace v10 {

namespace {

/** True for characters JSON strings must escape. */
bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/** Format @p v as a JSON number token into @p buf. */
std::string_view
formatNumber(double v, char (&buf)[40])
{
    if (!std::isfinite(v))
        return "null";
    // Integers print without an exponent so artifacts stay diffable.
    // They are exact in an int64, which prints the same digits as
    // "%.0f" without parsing a format; only -0 needs its sign kept.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        if (v == 0.0 && std::signbit(v))
            return "-0";
        const auto r = std::to_chars(buf, std::end(buf),
                                     static_cast<std::int64_t>(v));
        return {buf, static_cast<std::size_t>(r.ptr - buf)};
    }
    // The same characters as "%.17g" in the C locale.
    const auto r = std::to_chars(buf, std::end(buf), v,
                                 std::chars_format::general, 17);
    return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

/** Append @p s to @p out quoted, escaping only when it needs it. */
void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    if (std::any_of(s.begin(), s.end(), needsEscape))
        out += jsonEscape(s);
    else
        out += s;
    out += '"';
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    return std::string(formatNumber(v, buf));
}

void
appendJsonNumber(std::string &out, double v)
{
    char buf[40];
    out += formatNumber(v, buf);
}

// ------------------------------------------------------------------
// JsonWriter
// ------------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream &os, int indentWidth)
    : os_(os), indent_(indentWidth)
{
    out_.reserve(kBufferBytes);
}

JsonWriter::~JsonWriter()
{
    flush();
}

void
JsonWriter::emit()
{
    if (out_.size() > kFlushBytes || stack_.empty())
        flush();
}

void
JsonWriter::flush()
{
    if (out_.empty())
        return;
    os_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
}

void
JsonWriter::appendLineBreak(std::string &out, std::size_t depth) const
{
    if (indent_ <= 0)
        return;
    out += '\n';
    out.append(depth * static_cast<std::size_t>(indent_), ' ');
}

void
JsonWriter::newlineIndent()
{
    appendLineBreak(out_, stack_.size());
}

void
JsonWriter::preValue()
{
    if (stack_.empty())
        return;
    if (stack_.back() == Scope::Object && !key_pending_)
        panic("JsonWriter: value inside an object without a key");
    if (stack_.back() == Scope::Array) {
        if (has_items_.back())
            out_ += ',';
        newlineIndent();
        has_items_.back() = true;
    }
    key_pending_ = false;
}

void
JsonWriter::key(std::string_view k)
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: key() outside an object");
    if (key_pending_)
        panic("JsonWriter: key '", k, "' follows a dangling key");
    if (has_items_.back())
        out_ += ',';
    newlineIndent();
    has_items_.back() = true;
    appendQuoted(out_, k);
    out_ += indent_ > 0 ? ": " : ":";
    key_pending_ = true;
    emit();
}

void
JsonWriter::beginObject()
{
    preValue();
    out_ += '{';
    stack_.push_back(Scope::Object);
    has_items_.push_back(false);
    emit();
}

void
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: endObject() without beginObject()");
    if (key_pending_)
        panic("JsonWriter: endObject() with a dangling key");
    const bool had = has_items_.back();
    stack_.pop_back();
    has_items_.pop_back();
    if (had)
        newlineIndent();
    out_ += '}';
    emit();
}

void
JsonWriter::beginArray()
{
    preValue();
    out_ += '[';
    stack_.push_back(Scope::Array);
    has_items_.push_back(false);
    emit();
}

void
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Scope::Array)
        panic("JsonWriter: endArray() without beginArray()");
    const bool had = has_items_.back();
    stack_.pop_back();
    has_items_.pop_back();
    if (had)
        newlineIndent();
    out_ += ']';
    emit();
}

void
JsonWriter::tableRows(
    std::size_t rows, const std::vector<std::string> &columns,
    const std::function<std::string_view(std::size_t)> &rowName,
    const std::function<void(std::size_t, double *)> &readRow)
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: tableRows() outside an object");
    if (key_pending_)
        panic("JsonWriter: tableRows() follows a dangling key");
    // What key(), kv() and endObject() would append around the names
    // and numbers: the row key's line break, and for each column the
    // separator, line break, quoted key and colon before its value.
    const char *colon = indent_ > 0 ? ": " : ":";
    std::string rowBreak;
    appendLineBreak(rowBreak, stack_.size());
    std::vector<std::string> keys(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (c > 0)
            keys[c] += ',';
        appendLineBreak(keys[c], stack_.size() + 1);
        appendQuoted(keys[c], columns[c]);
        keys[c] += colon;
    }
    const std::string close = (columns.empty() ? "" : rowBreak) + '}';
    // The body of a row whose cells are all +0.0, the common row of a
    // sparse table, rendered once.
    std::string zeroBody;
    for (const std::string &k : keys)
        zeroBody.append(k).append(1, '0');
    zeroBody += close;
    std::vector<double> cells(columns.size());
    char buf[40];
    for (std::size_t r = 0; r < rows; ++r) {
        if (has_items_.back())
            out_ += ',';
        has_items_.back() = true;
        out_ += rowBreak;
        appendQuoted(out_, rowName(r));
        out_ += colon;
        out_ += '{';
        readRow(r, cells.data());
        // -0.0 prints "-0", so the test is on the bits, not == 0.
        if (std::all_of(cells.begin(), cells.end(), [](double v) {
                return v == 0.0 && !std::signbit(v);
            })) {
            out_ += zeroBody;
        } else {
            for (std::size_t c = 0; c < columns.size(); ++c) {
                out_ += keys[c];
                out_ += formatNumber(cells[c], buf);
            }
            out_ += close;
        }
        emit();
    }
}

void
JsonWriter::numberRows(
    std::size_t rows, std::size_t width,
    const std::function<std::uint64_t(std::size_t, double *)> &readRow)
{
    if (stack_.empty() || stack_.back() != Scope::Array)
        panic("JsonWriter: numberRows() outside an array");
    // What preValue(), beginArray(), value() and endArray() would
    // append around the numbers.
    std::string open;
    appendLineBreak(open, stack_.size());
    open += '[';
    appendLineBreak(open, stack_.size() + 1);
    std::string sep = ",";
    appendLineBreak(sep, stack_.size() + 1);
    const std::string zero = sep + '0';
    std::string close;
    appendLineBreak(close, stack_.size());
    close += ']';
    std::vector<double> cells(width);
    char buf[40];
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t lead = readRow(r, cells.data());
        if (has_items_.back())
            out_ += ',';
        has_items_.back() = true;
        out_ += open;
        out_.append(buf, std::to_chars(buf, std::end(buf), lead).ptr);
        for (const double v : cells) {
            // -0.0 prints "-0", so the test is on the bits, not == 0.
            if (v == 0.0 && !std::signbit(v)) {
                out_ += zero;
            } else {
                out_ += sep;
                out_ += formatNumber(v, buf);
            }
        }
        out_ += close;
        emit();
    }
}

void
JsonWriter::value(std::string_view v)
{
    preValue();
    appendQuoted(out_, v);
    emit();
}

void
JsonWriter::value(const char *v)
{
    value(std::string_view(v));
}

void
JsonWriter::value(double v)
{
    preValue();
    char buf[40];
    out_ += formatNumber(v, buf);
    emit();
}

void
JsonWriter::value(std::uint64_t v)
{
    preValue();
    char buf[24];
    out_.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
    emit();
}

void
JsonWriter::value(std::int64_t v)
{
    preValue();
    char buf[24];
    out_.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
    emit();
}

void
JsonWriter::value(int v)
{
    value(static_cast<std::int64_t>(v));
}

void
JsonWriter::value(bool v)
{
    preValue();
    out_ += v ? "true" : "false";
    emit();
}

void
JsonWriter::valueNull()
{
    preValue();
    out_ += "null";
    emit();
}

// ------------------------------------------------------------------
// JsonValue parser
// ------------------------------------------------------------------

namespace {

/** Recursive-descent parser state over the input string. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!expect('"'))
            return false;
        out->clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("truncated escape");
                const char e = text[pos++];
                switch (e) {
                case '"': *out += '"'; break;
                case '\\': *out += '\\'; break;
                case '/': *out += '/'; break;
                case 'b': *out += '\b'; break;
                case 'f': *out += '\f'; break;
                case 'n': *out += '\n'; break;
                case 'r': *out += '\r'; break;
                case 't': *out += '\t'; break;
                case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A') + 10;
                        else
                            return fail("bad \\u digit");
                    }
                    // Validation-oriented parser: encode BMP code
                    // points as UTF-8 (surrogates unsupported).
                    if (code < 0x80) {
                        *out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        *out += static_cast<char>(0xC0 | (code >> 6));
                        *out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        *out += static_cast<char>(0xE0 | (code >> 12));
                        *out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        *out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default:
                    return fail("unknown escape");
                }
            } else {
                *out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue *out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out->type = JsonValue::Type::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                JsonValue member;
                if (!parseValue(&member))
                    return false;
                out->object.emplace_back(std::move(key),
                                         std::move(member));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect('}');
            }
        }
        if (c == '[') {
            ++pos;
            out->type = JsonValue::Type::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue item;
                if (!parseValue(&item))
                    return false;
                out->array.push_back(std::move(item));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect(']');
            }
        }
        if (c == '"') {
            out->type = JsonValue::Type::String;
            return parseString(&out->str);
        }
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            out->type = JsonValue::Type::Bool;
            out->boolean = true;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            out->type = JsonValue::Type::Bool;
            out->boolean = false;
            return true;
        }
        if (text.compare(pos, 4, "null") == 0) {
            pos += 4;
            out->type = JsonValue::Type::Null;
            return true;
        }
        // Number.
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool digits = false;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '-' ||
                text[pos] == '+')) {
            if (std::isdigit(static_cast<unsigned char>(text[pos])))
                digits = true;
            ++pos;
        }
        if (!digits) {
            pos = start;
            return fail("unexpected token");
        }
        out->type = JsonValue::Type::Number;
        out->number =
            std::strtod(text.substr(start, pos - start).c_str(),
                        nullptr);
        return true;
    }
};

} // namespace

Result<JsonValue>
JsonValue::parse(const std::string &text)
{
    Parser p{text, 0, {}};
    JsonValue out;
    if (!p.parseValue(&out))
        return parseError(p.error);
    p.skipWs();
    if (p.pos != text.size())
        return parseError("trailing garbage at offset " +
                          std::to_string(p.pos));
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

} // namespace v10
