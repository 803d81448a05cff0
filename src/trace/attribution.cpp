#include "trace/attribution.h"

#include <algorithm>
#include <cstdint>
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
    // The first tenant registered under an id keeps it.
    dense_.emplace(id, idx);
    labels_.push_back(std::move(label));
    ctx_.push_back(0.0);
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
    if (id == kNoWorkload)
        return static_cast<std::size_t>(-1);
    const auto it = dense_.find(id);
    return it == dense_.end() ? static_cast<std::size_t>(-1)
                              : it->second;
}

void
AttributionCollector::chargePreemptStall(WorkloadId victim,
                                         WorkloadId perp,
                                         double cycles)
{
    const std::size_t v = indexOf(victim);
    const std::size_t p = indexOf(perp);
    if (v == static_cast<std::size_t>(-1) ||
        p == static_cast<std::size_t>(-1))
        return;
    preempt_[cell(v, p)] += cycles;
}

void
AttributionCollector::chargeQueueWait(WorkloadId victim,
                                      WorkloadId perp, double us)
{
    const std::size_t v = indexOf(victim);
    const std::size_t p = indexOf(perp);
    if (v == static_cast<std::size_t>(-1) ||
        p == static_cast<std::size_t>(-1))
        return;
    wait_[cell(v, p)] += us;
}

void
AttributionCollector::chargeCtxOverhead(WorkloadId victim,
                                        double cycles)
{
    const std::size_t v = indexOf(victim);
    if (v == static_cast<std::size_t>(-1))
        return;
    ctx_[v] += cycles;
}

void
AttributionCollector::onHbmContention(WorkloadId owner,
                                      WorkloadId other, double cycles)
{
    const std::size_t v = indexOf(owner);
    const std::size_t p = indexOf(other);
    if (v == static_cast<std::size_t>(-1) ||
        p == static_cast<std::size_t>(-1))
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
    for (std::size_t v = 0; v < labels_.size(); ++v) {
        if (v != perp)
            sum += queueWait(v, perp);
    }
    return sum;
}

void
AttributionCollector::chargedUsAll(std::vector<double> &out) const
{
    const std::size_t n = labels_.size();
    out.assign(n, 0.0);
    // Victims in ascending order, as chargedUs() adds them.
    for (std::size_t v = 0; v < n; ++v) {
        const double *row = &wait_[cell(v, 0)];
        for (std::size_t p = 0; p < n; ++p) {
            if (p != v)
                out[p] += row[p];
        }
    }
}

void
AttributionCollector::registerStats(StatRegistry &registry) const
{
    // Pre-compute slugs: two tenants of the same workload must not
    // collide in the registry (it panics on path conflicts). The
    // first tenant keeps its slug; a later one whose slug is taken
    // gets its index appended.
    const std::size_t n = labels_.size();
    std::vector<std::string> slugs(n);
    std::set<std::string> taken;
    for (std::size_t i = 0; i < n; ++i) {
        std::string slug = sanitizeStatSegment(labels_[i]);
        if (taken.count(slug)) {
            slug += '_';
            slug += std::to_string(i);
        }
        taken.insert(slug);
        slugs[i] = std::move(slug);
    }
    // Register in path order, tenants sorted by slug and each
    // subtree's leaves alphabetically: every insert then lands right
    // after the previous one, where the registry finds it without a
    // tree search. Closures capture 32-bit indices so that they fit
    // std::function's local buffer instead of each taking a heap
    // allocation.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return slugs[a] < slugs[b];
              });
    std::string from;
    for (const std::uint32_t v : order) {
        const std::string base =
            "serve.tenant." + slugs[v] + ".attrib";
        registry.addFormula(
            base + ".charged_us",
            [this, v] { return chargedUs(v); },
            "queue-wait us this tenant inflicted on co-runners");
        registry.addFormula(
            base + ".ctx_overhead_cycles",
            [this, v] { return ctxOverhead(v); },
            "context-switch overhead charged on dispatch");
        for (const std::uint32_t p : order) {
            if (p == v)
                continue;
            from.assign(base).append(".from.").append(slugs[p]);
            registry.addFormula(
                from + ".hbm_contention_cycles",
                [this, v, p] { return hbmContention(v, p); },
                "HBM contention charged to this co-runner");
            registry.addFormula(
                from + ".preempt_stall_cycles",
                [this, v, p] { return preemptStall(v, p); },
                "preemption stall charged to this co-runner");
            registry.addFormula(
                from + ".queue_wait_us",
                [this, v, p] { return queueWait(v, p); },
                "serve-layer waiting charged to this co-runner");
        }
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
