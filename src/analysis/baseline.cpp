#include "analysis/baseline.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "common/json.h"

namespace v10::analysis {

namespace {

/** Collapse whitespace runs so formatting churn keeps the hash. */
std::string
normalizeLine(const std::string &line)
{
    std::string out;
    bool in_ws = true; // also trims leading whitespace
    for (char c : line) {
        if (c == ' ' || c == '\t') {
            if (!in_ws)
                out += ' ';
            in_ws = true;
        } else {
            out += c;
            in_ws = false;
        }
    }
    while (!out.empty() && out.back() == ' ')
        out.pop_back();
    return out;
}

std::uint64_t
fnv1a(const std::string &data, std::uint64_t h)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace

std::string
findingHash(const Finding &finding)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnv1a(finding.rule, h);
    h = fnv1a("|", h);
    h = fnv1a(finding.file, h);
    h = fnv1a("|", h);
    h = fnv1a(normalizeLine(finding.snippet), h);
    std::ostringstream os;
    os << std::hex << h;
    return os.str();
}

Result<Baseline>
Baseline::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return parseError("cannot open baseline file", path);
    std::ostringstream buf;
    buf << is.rdbuf();

    const Result<JsonValue> parsed = JsonValue::parse(buf.str());
    if (!parsed)
        return parseError("malformed baseline JSON: " +
                              parsed.error().message,
                          path);
    const JsonValue &doc = parsed.value();
    const JsonValue *entries = doc.find("entries");
    if (entries == nullptr || !entries->isArray())
        return parseError("baseline has no 'entries' array", path);

    Baseline baseline;
    for (std::size_t i = 0; i < entries->array.size(); ++i) {
        const JsonValue &e = entries->array[i];
        const JsonValue *rule = e.find("rule");
        const JsonValue *file = e.find("file");
        const JsonValue *hash = e.find("hash");
        if (rule == nullptr || !rule->isString() ||
            file == nullptr || !file->isString() ||
            hash == nullptr || !hash->isString()) {
            return parseError(
                "baseline entry needs string rule/file/hash fields",
                path, 0, "entries[" + std::to_string(i) + "]");
        }
        BaselineEntry entry;
        entry.rule = rule->str;
        entry.file = file->str;
        entry.hash = hash->str;
        if (const JsonValue *line = e.find("line_hint");
            line != nullptr && line->isNumber())
            entry.lineHint = static_cast<std::size_t>(line->number);
        if (const JsonValue *count = e.find("count");
            count != nullptr && count->isNumber() &&
            count->number >= 1.0)
            entry.count = static_cast<std::size_t>(count->number);
        if (const JsonValue *note = e.find("note");
            note != nullptr && note->isString())
            entry.note = note->str;
        baseline.entries.push_back(std::move(entry));
    }
    return baseline;
}

Baseline
Baseline::fromFindings(const std::vector<Finding> &findings,
                       const Baseline *prior)
{
    // Merge identical keys; preserve first-seen order via the map
    // key (file, rule, hash) — findings already arrive in scan
    // order, and sorting keeps regeneration diff-stable.
    std::map<std::tuple<std::string, std::string, std::string>,
             BaselineEntry>
        merged;
    for (const Finding &f : findings) {
        const std::string hash = findingHash(f);
        auto key = std::make_tuple(f.file, f.rule, hash);
        auto it = merged.find(key);
        if (it != merged.end()) {
            ++it->second.count;
            continue;
        }
        BaselineEntry entry;
        entry.rule = f.rule;
        entry.file = f.file;
        entry.lineHint = f.line;
        entry.hash = hash;
        merged.emplace(std::move(key), std::move(entry));
    }
    // Regeneration must not erase the human-written rationale of
    // entries that are still live.
    if (prior != nullptr) {
        for (const BaselineEntry &old : prior->entries) {
            if (old.note.empty())
                continue;
            auto it = merged.find(
                std::make_tuple(old.file, old.rule, old.hash));
            if (it != merged.end() && it->second.note.empty())
                it->second.note = old.note;
        }
    }

    Baseline baseline;
    baseline.entries.reserve(merged.size());
    for (auto &[key, entry] : merged)
        baseline.entries.push_back(std::move(entry));
    return baseline;
}

std::string
Baseline::toJson() const
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("tool", "v10lint-baseline");
    w.kv("version", 1);
    w.key("entries");
    w.beginArray();
    for (const BaselineEntry &e : entries) {
        w.beginObject();
        w.kv("rule", e.rule);
        w.kv("file", e.file);
        w.kv("line_hint",
             static_cast<std::uint64_t>(e.lineHint));
        w.kv("hash", e.hash);
        w.kv("count", static_cast<std::uint64_t>(e.count));
        w.kv("note", e.note);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

Status
Baseline::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return parseError("cannot write baseline file", path);
    os << toJson();
    os.flush();
    if (!os)
        return parseError("short write on baseline file", path);
    return Status::ok();
}

} // namespace v10::analysis
