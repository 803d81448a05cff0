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
        out = "_";
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

namespace {

/** Copy a victim-major matrix from row stride @p from to @p to. */
void
relayout(std::vector<double> &m, std::size_t rows, std::size_t from,
         std::size_t to)
{
    std::vector<double> grown(to * to, 0.0);
    for (std::size_t v = 0; v < rows; ++v)
        std::copy_n(m.begin() + static_cast<std::ptrdiff_t>(v * from),
                    rows,
                    grown.begin() + static_cast<std::ptrdiff_t>(v * to));
    m = std::move(grown);
}

} // namespace

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
    ctx_.push_back(0.0);
    waitVictims_.emplace_back();
    if (idx == stride_) {
        const std::size_t grown = std::max<std::size_t>(4, 2 * stride_);
        relayout(preempt_, idx, stride_, grown);
        relayout(hbm_, idx, stride_, grown);
        relayout(wait_, idx, stride_, grown);
        stride_ = grown;
    }
    return idx;
}

std::size_t
AttributionCollector::indexOf(WorkloadId id) const
{
    // kNoWorkload is never registered, so it is never in range.
    return id < denseOf_.size() ? denseOf_[id] : kUnknown;
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
    preempt_[cell(v, p)] += cycles;
}

void
AttributionCollector::chargeQueueWait(WorkloadId victim,
                                      WorkloadId perp, double us)
{
    const std::size_t v = indexOf(victim);
    const std::size_t p = indexOf(perp);
    if (v == kUnknown || p == kUnknown)
        return;
    double &wait = wait_[cell(v, p)];
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
    hbm_[cell(v, p)] += cycles;
}

double
AttributionCollector::preemptStall(std::size_t victim,
                                   std::size_t perp) const
{
    return preempt_[cell(victim, perp)];
}

double
AttributionCollector::hbmContention(std::size_t victim,
                                    std::size_t perp) const
{
    return hbm_[cell(victim, perp)];
}

double
AttributionCollector::ctxOverhead(std::size_t victim) const
{
    return ctx_[victim];
}

double
AttributionCollector::totalPreemptStall(std::size_t victim) const
{
    double sum = 0.0;
    for (std::size_t p = 0; p < labels_.size(); ++p)
        sum += preemptStall(victim, p);
    return sum;
}

double
AttributionCollector::totalHbmContention(std::size_t victim) const
{
    double sum = 0.0;
    for (std::size_t p = 0; p < labels_.size(); ++p)
        sum += hbmContention(victim, p);
    return sum;
}

double
AttributionCollector::queueWait(std::size_t victim,
                                std::size_t perp) const
{
    return wait_[cell(victim, perp)];
}

double
AttributionCollector::totalQueueWait(std::size_t victim) const
{
    double sum = 0.0;
    for (std::size_t p = 0; p < labels_.size(); ++p)
        sum += queueWait(victim, p);
    return sum;
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
    out.resize(labels_.size());
    for (std::size_t p = 0; p < out.size(); ++p)
        out[p] = chargedUs(p);
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
                [this, v, tenantAt](std::size_t row, std::size_t col) {
                    const std::uint32_t p = (*tenantAt)[row];
                    return col == 0   ? hbmContention(v, p)
                           : col == 1 ? preemptStall(v, p)
                                      : queueWait(v, p);
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
