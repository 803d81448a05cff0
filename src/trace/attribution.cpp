#include "trace/attribution.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>

#include "common/log.h"
#include "metrics/stat_registry.h"

namespace v10 {

std::string
sanitizeStatSegment(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        const bool ok = (c >= 'A' && c <= 'Z') ||
                        (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty())
        out.push_back('_');
    return out;
}

std::vector<std::string>
uniqueStatSegments(const std::vector<std::string> &labels)
{
    std::vector<std::string> out(labels.size());
    std::set<std::string> taken;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        std::string slug = sanitizeStatSegment(labels[i]);
        while (taken.count(slug) != 0) {
            slug += '_';
            slug += std::to_string(i);
        }
        taken.insert(slug);
        out[i] = std::move(slug);
    }
    return out;
}

std::size_t
AttributionCollector::addTenant(WorkloadId id, std::string label)
{
    const std::size_t idx = labels_.size();
    if (id != kNoWorkload) {
        if (id >= denseOf_.size())
            denseOf_.resize(std::size_t{id} + 1, kUnknown);
        // The first tenant registered under an id keeps it.
        if (denseOf_[id] == kUnknown)
            denseOf_[id] = idx;
    }
    labels_.push_back(std::move(label));
    rows_.emplace_back();
    ctx_.push_back(0.0);
    waitVictims_.emplace_back();
    return idx;
}

std::size_t
AttributionCollector::indexOf(WorkloadId id) const
{
    // kNoWorkload is never registered, so it is never in range.
    return id < denseOf_.size() ? denseOf_[id] : kUnknown;
}

namespace {

/**
 * Where @p perp's cell is, or would be inserted, in @p row. Rows are
 * short and a table read mostly misses, so the search narrows with
 * conditional moves rather than branches.
 */
template <typename Cell>
std::size_t
slotOf(const std::vector<Cell> &row, std::size_t perp)
{
    if (row.empty())
        return 0;
    const Cell *base = row.data();
    for (std::size_t len = row.size(); len > 1;) {
        const std::size_t half = len / 2;
        base = base[half].perp <= perp ? base + half : base;
        len -= half;
    }
    // base is the last cell at or below perp, or the first cell.
    return static_cast<std::size_t>(base - row.data()) +
           (base->perp < perp ? 1 : 0);
}

} // namespace

AttributionCollector::Cell &
AttributionCollector::cellAt(std::size_t victim, std::size_t perp)
{
    std::vector<Cell> &row = rows_[victim];
    const std::size_t at = slotOf(row, perp);
    if (at < row.size() && row[at].perp == perp)
        return row[at];
    Cell fresh;
    fresh.perp = static_cast<std::uint32_t>(perp);
    return *row.insert(row.begin() + static_cast<std::ptrdiff_t>(at),
                       fresh);
}

const AttributionCollector::Cell *
AttributionCollector::findCell(std::size_t victim,
                               std::size_t perp) const
{
    const std::vector<Cell> &row = rows_[victim];
    const std::size_t at = slotOf(row, perp);
    return at < row.size() && row[at].perp == perp ? &row[at] : nullptr;
}

double
AttributionCollector::read(std::size_t victim, std::size_t perp,
                           double Cell::*value) const
{
    const Cell *c = findCell(victim, perp);
    return c != nullptr ? c->*value : 0.0;
}

double
AttributionCollector::rowSum(std::size_t victim,
                             double Cell::*value) const
{
    // The same double as the dense row sum: a sum that starts at
    // +0.0 never becomes -0.0, so the absent terms (+0.0) would
    // leave it unchanged.
    double sum = 0.0;
    for (const Cell &c : rows_[victim])
        sum += c.*value;
    return sum;
}

void
AttributionCollector::chargePreemptStall(WorkloadId victim,
                                         WorkloadId perp,
                                         double cycles)
{
    const std::size_t v = indexOf(victim);
    const std::size_t p = indexOf(perp);
    if (v == kUnknown || p == kUnknown)
        return;
    cellAt(v, p).preempt += cycles;
}

void
AttributionCollector::chargeQueueWait(WorkloadId victim,
                                      WorkloadId perp, double us)
{
    const std::size_t v = indexOf(victim);
    const std::size_t p = indexOf(perp);
    if (v == kUnknown || p == kUnknown)
        return;
    double &wait = cellAt(v, p).wait;
    const bool wasZero = wait == 0.0;
    wait += us;
    if (!wasZero || wait == 0.0 || v == p)
        return;
    // The cell leaves zero, perhaps not for the first time.
    std::vector<std::uint32_t> &victims = waitVictims_[p];
    const auto at = std::lower_bound(victims.begin(), victims.end(), v);
    if (at == victims.end() || *at != v)
        victims.insert(at, static_cast<std::uint32_t>(v));
}

void
AttributionCollector::chargeCtxOverhead(WorkloadId victim,
                                        double cycles)
{
    const std::size_t v = indexOf(victim);
    if (v == kUnknown)
        return;
    ctx_[v] += cycles;
}

void
AttributionCollector::onHbmContention(WorkloadId owner,
                                      WorkloadId other, double cycles)
{
    const std::size_t v = indexOf(owner);
    const std::size_t p = indexOf(other);
    if (v == kUnknown || p == kUnknown)
        return;
    cellAt(v, p).hbm += cycles;
}

double
AttributionCollector::preemptStall(std::size_t victim,
                                   std::size_t perp) const
{
    return read(victim, perp, &Cell::preempt);
}

double
AttributionCollector::hbmContention(std::size_t victim,
                                    std::size_t perp) const
{
    return read(victim, perp, &Cell::hbm);
}

double
AttributionCollector::ctxOverhead(std::size_t victim) const
{
    return ctx_[victim];
}

double
AttributionCollector::totalPreemptStall(std::size_t victim) const
{
    return rowSum(victim, &Cell::preempt);
}

double
AttributionCollector::totalHbmContention(std::size_t victim) const
{
    return rowSum(victim, &Cell::hbm);
}

double
AttributionCollector::queueWait(std::size_t victim,
                                std::size_t perp) const
{
    return read(victim, perp, &Cell::wait);
}

double
AttributionCollector::totalQueueWait(std::size_t victim) const
{
    return rowSum(victim, &Cell::wait);
}

double
AttributionCollector::chargedUs(std::size_t perp) const
{
    double sum = 0.0;
    for (const std::uint32_t v : waitVictims_[perp])
        sum += queueWait(v, perp);
    return sum;
}

void
AttributionCollector::chargedUsAll(std::vector<double> &out) const
{
    // One victim-major sweep: each column still adds its cells in
    // ascending victim order, so out[p] is chargedUs(p) bit for bit.
    out.assign(labels_.size(), 0.0);
    for (std::size_t v = 0; v < rows_.size(); ++v)
        for (const Cell &c : rows_[v])
            if (c.perp != v)
                out[c.perp] += c.wait;
}

void
AttributionCollector::registerStats(StatRegistry &registry) const
{
    const std::size_t n = labels_.size();
    const std::vector<std::string> slugs = uniqueStatSegments(labels_);
    // Every victim's `from` table shares one row list, the tenants
    // in slug order, and leaves out the victim's own row.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return slugs[a] < slugs[b];
              });
    std::vector<std::size_t> rowOf(n);
    auto axes = std::make_shared<StatRegistry::TableAxes>();
    for (std::size_t r = 0; r < n; ++r) {
        rowOf[order[r]] = r;
        axes->rows.push_back(slugs[order[r]]);
    }
    axes->columns = {"hbm_contention_cycles", "preempt_stall_cycles",
                     "queue_wait_us"};
    axes->descriptions = {
        "HBM contention charged to this co-runner",
        "preemption stall charged to this co-runner",
        "serve-layer waiting charged to this co-runner"};
    const auto tenantAt =
        std::make_shared<const std::vector<std::uint32_t>>(
            std::move(order));
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::string base = "serve.tenant." + slugs[v] + ".attrib";
        registry.addFormula(
            base + ".charged_us",
            [this, v] { return chargedUs(v); },
            "queue-wait us this tenant inflicted on co-runners");
        registry.addFormula(
            base + ".ctx_overhead_cycles",
            [this, v] { return ctxOverhead(v); },
            "context-switch overhead charged on dispatch");
        if (n > 1)
            registry.addTable(
                base + ".from", axes,
                [this, v, tenantAt](std::size_t row, double *out) {
                    const Cell *c = findCell(v, (*tenantAt)[row]);
                    out[0] = c != nullptr ? c->hbm : 0.0;
                    out[1] = c != nullptr ? c->preempt : 0.0;
                    out[2] = c != nullptr ? c->wait : 0.0;
                },
                rowOf[v]);
        registry.addFormula(
            base + ".hbm_contention_cycles",
            [this, v] { return totalHbmContention(v); },
            "solo-rate DMA cycles lost to bandwidth sharing");
        registry.addFormula(
            base + ".preempt_stall_cycles",
            [this, v] { return totalPreemptStall(v); },
            "cycles stalled waiting to resume after preemption");
        registry.addFormula(
            base + ".queue_wait_us",
            [this, v] { return totalQueueWait(v); },
            "serve-layer waiting charged to co-runners in service");
    }
}

} // namespace v10
