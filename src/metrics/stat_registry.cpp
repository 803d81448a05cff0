#include "metrics/stat_registry.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace v10 {

namespace {

bool
validPathChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.';
}

void
validatePath(const std::string &path)
{
    if (path.empty())
        V10_PANIC("StatRegistry: empty stat path");
    if (path.front() == '.' || path.back() == '.')
        V10_PANIC("StatRegistry: path '", path,
                  "' starts or ends with '.'");
    char prev = '\0';
    for (const char c : path) {
        if (!validPathChar(c))
            V10_PANIC("StatRegistry: path '", path,
                      "' contains invalid character '", c, "'");
        if (c == '.' && prev == '.')
            V10_PANIC("StatRegistry: path '", path,
                      "' contains an empty component");
        prev = c;
    }
}

/** True when @p shorter is a dot-boundary prefix of @p longer. */
bool
dotPrefix(const std::string &shorter, const std::string &longer)
{
    return longer.size() > shorter.size() &&
           longer.compare(0, shorter.size(), shorter) == 0 &&
           longer[shorter.size()] == '.';
}

} // namespace

void
StatRegistry::Distribution::record(double sample)
{
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
}

double
StatRegistry::Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

StatRegistry::Stat &
StatRegistry::insert(std::string path, std::string_view description,
                     Data data)
{
    if (frozen_)
        V10_PANIC("StatRegistry: registering '", path,
                  "' on a frozen registry");
    validatePath(path);
    // One lookup finds the slot and both neighbours. Registration
    // often comes in path order, so the slot after the previous
    // insert is tried before the tree is searched. A leaf and a
    // subtree cannot share a name: "a.b" conflicts with "a.b.c"
    // because the JSON rendering needs "a.b" to be either a value or
    // an object, not both. '.' sorts below every other path
    // character, so any conflicting path is adjacent to the slot.
    auto next = afterLast_;
    if ((next != stats_.end() && !(path < next->first)) ||
        (next != stats_.begin() && !(std::prev(next)->first < path)))
        next = stats_.lower_bound(path);
    if (next != stats_.end()) {
        if (next->first == path)
            V10_PANIC("StatRegistry: duplicate stat path '", path, "'");
        if (dotPrefix(path, next->first))
            V10_PANIC("StatRegistry: path '", path,
                      "' conflicts with existing subtree '",
                      next->first, "'");
    }
    if (next != stats_.begin()) {
        const auto &prevPath = std::prev(next)->first;
        if (dotPrefix(prevPath, path))
            V10_PANIC("StatRegistry: path '", path,
                      "' extends existing leaf '", prevPath, "'");
    }
    auto desc = descriptions_.find(description);
    if (desc == descriptions_.end())
        desc = descriptions_.emplace(description).first;
    const auto it = stats_.emplace_hint(next, std::move(path),
                                        Stat{std::move(data), &*desc});
    afterLast_ = std::next(it);
    return it->second;
}

StatRegistry::Counter &
StatRegistry::addCounter(std::string path, std::string_view description)
{
    return std::get<Counter>(
        insert(std::move(path), description, Counter{}).data);
}

StatRegistry::Gauge &
StatRegistry::addGauge(std::string path, std::string_view description)
{
    return std::get<Gauge>(
        insert(std::move(path), description, Gauge{}).data);
}

StatRegistry::Distribution &
StatRegistry::addDistribution(std::string path,
                              std::string_view description)
{
    return std::get<Distribution>(
        insert(std::move(path), description, Distribution{}).data);
}

void
StatRegistry::addFormula(std::string path, Formula formula,
                         std::string_view description)
{
    if (!formula)
        V10_PANIC("StatRegistry: null formula for '", path, "'");
    insert(std::move(path), description, std::move(formula));
}

bool
StatRegistry::has(const std::string &path) const
{
    return stats_.count(path) != 0;
}

double
StatRegistry::scalarOf(const Stat &stat)
{
    if (const auto *c = std::get_if<Counter>(&stat.data))
        return static_cast<double>(c->value());
    if (const auto *g = std::get_if<Gauge>(&stat.data))
        return g->value();
    if (const auto *d = std::get_if<Distribution>(&stat.data))
        return d->mean();
    return std::get<Formula>(stat.data)();
}

double
StatRegistry::value(const std::string &path) const
{
    const auto it = stats_.find(path);
    if (it == stats_.end())
        V10_PANIC("StatRegistry: unknown stat path '", path, "'");
    return scalarOf(it->second);
}

const std::string &
StatRegistry::description(const std::string &path) const
{
    const auto it = stats_.find(path);
    if (it == stats_.end())
        V10_PANIC("StatRegistry: unknown stat path '", path, "'");
    return *it->second.description;
}

std::vector<std::string>
StatRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto &[path, stat] : stats_)
        out.push_back(path);
    return out;
}

void
StatRegistry::freeze()
{
    if (frozen_)
        return;
    for (auto &[path, stat] : stats_) {
        if (const auto *f = std::get_if<Formula>(&stat.data)) {
            const double value = (*f)();
            stat.data.emplace<Gauge>().set(value);
        }
    }
    frozen_ = true;
}

std::vector<std::pair<std::string, double>>
StatRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(stats_.size());
    for (const auto &[path, stat] : stats_) {
        if (const auto *d = std::get_if<Distribution>(&stat.data)) {
            out.emplace_back(path + ".count",
                             static_cast<double>(d->count()));
            out.emplace_back(path + ".sum", d->sum());
            out.emplace_back(path + ".min", d->min());
            out.emplace_back(path + ".max", d->max());
            out.emplace_back(path + ".mean", d->mean());
        } else {
            out.emplace_back(path, scalarOf(stat));
        }
    }
    return out;
}

std::string
StatRegistry::textReport() const
{
    std::ostringstream os;
    std::size_t width = 0;
    const auto snap = snapshot();
    for (const auto &[path, value] : snap)
        width = std::max(width, path.size());
    for (const auto &[path, value] : snap) {
        os << path;
        for (std::size_t i = path.size(); i < width + 2; ++i)
            os << ' ';
        os << jsonNumber(value) << '\n';
    }
    return os.str();
}

void
StatRegistry::writeJson(JsonWriter &writer) const
{
    // Walk the sorted map as a nested object. Each subtree is one
    // contiguous run of paths ('.' sorts first and prefix conflicts
    // are rejected at registration), so a stack of open scopes
    // suffices: keep the common ancestor, close the rest, open the
    // remaining components. The views point into the map's keys. A
    // distribution is a scope of its own holding its five fields.
    std::vector<std::string_view> open;
    const auto closeTo = [&](std::size_t level) {
        for (; open.size() > level; open.pop_back())
            writer.endObject();
    };
    writer.beginObject();
    for (const auto &[path, stat] : stats_) {
        const auto *dist = std::get_if<Distribution>(&stat.data);
        std::string_view rest = path;
        std::size_t level = 0;
        while (true) {
            const std::size_t dot = rest.find('.');
            const std::string_view part = rest.substr(0, dot);
            if (dot == std::string_view::npos && !dist)
                break;
            if (level < open.size() && open[level] == part) {
                ++level;
            } else {
                closeTo(level);
                writer.key(part);
                writer.beginObject();
                open.push_back(part);
                ++level;
            }
            if (dot == std::string_view::npos)
                break;
            rest.remove_prefix(dot + 1);
        }
        closeTo(level);
        if (dist) {
            writer.kv("count", static_cast<double>(dist->count()));
            writer.kv("sum", dist->sum());
            writer.kv("min", dist->min());
            writer.kv("max", dist->max());
            writer.kv("mean", dist->mean());
        } else {
            writer.kv(rest, scalarOf(stat));
        }
    }
    closeTo(0);
    writer.endObject();
}

} // namespace v10
