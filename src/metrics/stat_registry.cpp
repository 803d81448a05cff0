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

bool
validSegmentChar(char c)
{
    return c != '.' && validPathChar(c);
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
dotPrefix(std::string_view shorter, std::string_view longer)
{
    return longer.size() > shorter.size() &&
           longer.compare(0, shorter.size(), shorter) == 0 &&
           longer[shorter.size()] == '.';
}

/** Panic unless @p names are sorted, unique path segments. */
void
validateAxis(const std::string &path, const char *axis,
             const std::vector<std::string> &names)
{
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        if (name.empty() ||
            !std::all_of(name.begin(), name.end(), validSegmentChar))
            V10_PANIC("StatRegistry: table '", path, "' has ", axis,
                      " name '", name, "' that is not a path segment");
        if (i > 0 && !(names[i - 1] < name))
            V10_PANIC("StatRegistry: table '", path, "' has ", axis,
                      " names out of order at '", name, "'");
    }
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

std::size_t
StatRegistry::Table::rows() const
{
    return axes->rows.size() - (skipRow == kNoRow ? 0 : 1);
}

void
StatRegistry::Table::readRow(std::size_t r, double *out) const
{
    if (reader)
        reader(axisRow(r), out);
    else
        std::copy_n(&frozen[r * columns()], columns(), out);
}

bool
StatRegistry::Table::find(std::string_view rest, std::size_t &r,
                          std::size_t &c) const
{
    const std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos)
        return false;
    const auto locate = [](const std::vector<std::string> &names,
                           std::string_view name, std::size_t &at) {
        const auto it =
            std::lower_bound(names.begin(), names.end(), name);
        at = static_cast<std::size_t>(it - names.begin());
        return it != names.end() && *it == name;
    };
    std::size_t row = 0;
    if (!locate(axes->rows, rest.substr(0, dot), row) ||
        row == skipRow ||
        !locate(axes->columns, rest.substr(dot + 1), c))
        return false;
    r = row > skipRow ? row - 1 : row;
    return true;
}

StatRegistry::Stat &
StatRegistry::insert(std::string path, std::string_view description,
                     Data data)
{
    if (frozen_)
        V10_PANIC("StatRegistry: registering '", path,
                  "' on a frozen registry");
    validatePath(path);
    // One lookup finds the slot and both neighbours. A leaf and a
    // subtree cannot share a name: "a.b" conflicts with "a.b.c"
    // because the JSON rendering needs "a.b" to be either a value or
    // an object, not both; a table counts as a leaf here. '.' sorts
    // below every other path character, so any conflicting path is
    // adjacent to the slot.
    const auto next = stats_.lower_bound(path);
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
    ++leaves_;
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

void
StatRegistry::addTable(std::string path,
                       std::shared_ptr<const TableAxes> axes,
                       RowReader rows, std::size_t skipRow)
{
    if (!axes || !rows)
        V10_PANIC("StatRegistry: null axes or row reader for table '",
                  path, "'");
    // Tables usually share their axes: check each copy once.
    if (axes != checkedAxes_) {
        validateAxis(path, "row", axes->rows);
        validateAxis(path, "column", axes->columns);
        if (axes->columns.size() > kMaxTableColumns)
            V10_PANIC("StatRegistry: table '", path, "' has ",
                      axes->columns.size(), " columns, more than ",
                      kMaxTableColumns);
        if (axes->descriptions.size() != axes->columns.size())
            V10_PANIC("StatRegistry: table '", path, "' has ",
                      axes->descriptions.size(), " descriptions for ",
                      axes->columns.size(), " columns");
        checkedAxes_ = axes;
    }
    if (skipRow != kNoRow && skipRow >= axes->rows.size())
        V10_PANIC("StatRegistry: table '", path, "' skips row ",
                  skipRow, " of ", axes->rows.size());
    auto table = std::make_unique<Table>();
    table->axes = std::move(axes);
    table->skipRow = skipRow;
    table->reader = std::move(rows);
    const std::size_t leaves = table->rows() * table->columns();
    if (leaves == 0)
        V10_PANIC("StatRegistry: table '", path, "' has no leaves");
    insert(std::move(path), {}, std::move(table));
    leaves_ += leaves - 1;
}

StatRegistry::Leaf
StatRegistry::findLeaf(std::string_view path) const
{
    // The last entry at or before the path is the stat itself, or
    // the table the path lies under: nothing sorts between a table
    // and its leaves, since nothing may be registered below it.
    auto it = stats_.upper_bound(path);
    if (it == stats_.begin())
        return {};
    --it;
    Leaf leaf{&it->second, tableOf(it->second)};
    if (leaf.table == nullptr)
        return it->first == path ? leaf : Leaf{};
    if (!dotPrefix(it->first, path) ||
        !leaf.table->find(path.substr(it->first.size() + 1), leaf.row,
                          leaf.col))
        return {};
    return leaf;
}

bool
StatRegistry::has(const std::string &path) const
{
    return findLeaf(path).stat != nullptr;
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

StatRegistry::Table *
StatRegistry::tableOf(const Stat &stat)
{
    const auto *table = std::get_if<std::unique_ptr<Table>>(&stat.data);
    return table ? table->get() : nullptr;
}

double
StatRegistry::value(const std::string &path) const
{
    const Leaf leaf = findLeaf(path);
    if (leaf.stat == nullptr)
        V10_PANIC("StatRegistry: unknown stat path '", path, "'");
    if (leaf.table == nullptr)
        return scalarOf(*leaf.stat);
    double row[kMaxTableColumns];
    leaf.table->readRow(leaf.row, row);
    return row[leaf.col];
}

const std::string &
StatRegistry::description(const std::string &path) const
{
    const Leaf leaf = findLeaf(path);
    if (leaf.stat == nullptr)
        V10_PANIC("StatRegistry: unknown stat path '", path, "'");
    return leaf.table ? leaf.table->axes->descriptions[leaf.col]
                      : *leaf.stat->description;
}

std::vector<std::string>
StatRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(leaves_);
    for (const auto &[path, stat] : stats_) {
        if (const Table *table = tableOf(stat))
            table->forEachLeaf(path, [&](const std::string &leaf,
                                         std::size_t, std::size_t) {
                out.push_back(leaf);
            });
        else
            out.push_back(path);
    }
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
        } else if (Table *table = tableOf(stat)) {
            std::vector<double> cells(table->rows() * table->columns());
            for (std::size_t r = 0; r < table->rows(); ++r)
                table->readRow(r, &cells[r * table->columns()]);
            table->frozen = std::move(cells);
            table->reader = nullptr;
        }
    }
    frozen_ = true;
}

std::vector<std::pair<std::string, double>>
StatRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(leaves_);
    for (const auto &[path, stat] : stats_) {
        if (const Table *table = tableOf(stat)) {
            double row[kMaxTableColumns];
            table->forEachLeaf(path, [&](const std::string &leaf,
                                         std::size_t r, std::size_t c) {
                if (c == 0)
                    table->readRow(r, row);
                out.emplace_back(leaf, row[c]);
            });
        } else if (const auto *d =
                       std::get_if<Distribution>(&stat.data)) {
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
    // distribution is a scope of its own holding its five fields; a
    // table is one holding an object per row.
    std::vector<std::string_view> open;
    const auto closeTo = [&](std::size_t level) {
        for (; open.size() > level; open.pop_back())
            writer.endObject();
    };
    writer.beginObject();
    for (const auto &[path, stat] : stats_) {
        const auto *dist = std::get_if<Distribution>(&stat.data);
        const Table *table = tableOf(stat);
        std::string_view rest = path;
        std::size_t level = 0;
        while (true) {
            const std::size_t dot = rest.find('.');
            const std::string_view part = rest.substr(0, dot);
            if (dot == std::string_view::npos && !dist && !table)
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
        } else if (table) {
            writer.tableRows(
                table->rows(), table->axes->columns,
                [table](std::size_t r) -> std::string_view {
                    return table->rowName(r);
                },
                [table](std::size_t r, double *out) {
                    table->readRow(r, out);
                });
        } else {
            writer.kv(rest, scalarOf(stat));
        }
    }
    closeTo(0);
    writer.endObject();
}

} // namespace v10
