#include "sched/context_table.h"

#include <cmath>

#include "common/log.h"
#include "metrics/stat_registry.h"

namespace v10 {

void
ContextRow::priorityPanic()
{
    panic("ContextRow: non-positive priority");
}

ContextTable::ContextTable(std::uint32_t tenants) : rows_(tenants)
{
    if (tenants == 0)
        V10_PANIC("ContextTable: need at least one tenant");
}

void
ContextTable::rangePanic(WorkloadId tenant)
{
    panic("ContextTable: tenant ", tenant, " out of range");
}

void
ContextTable::tick(Cycles delta)
{
    for (auto &r : rows_)
        r.totalCycles += delta;
}

std::uint32_t
ContextTable::rowBits(std::uint32_t numFus)
{
    std::uint32_t fu_bits = 1;
    while ((1u << fu_bits) < numFus)
        ++fu_bits;
    // 32b op id + 1b op type + 1b active + 1b ready + FU id +
    // 64b active cycles + 64b total cycles + 7b priority (Fig. 11).
    return 32 + 1 + 1 + 1 + fu_bits + 64 + 64 + 7;
}

Bytes
ContextTable::storageBytes(std::uint32_t tenants,
                           std::uint32_t numFus)
{
    const std::uint64_t bits =
        static_cast<std::uint64_t>(tenants) * rowBits(numFus);
    return (bits + 7) / 8;
}

void
ContextTable::registerStats(StatRegistry &registry,
                            const std::string &prefix,
                            std::uint32_t numFus) const
{
    registry.addCounter(prefix + ".rows", "context table rows")
        .set(size());
    registry.addCounter(prefix + ".storage_bytes",
                        "hardware table storage (Table 3)")
        .set(storageBytes(size(), numFus));
    for (std::uint32_t i = 0; i < size(); ++i) {
        const std::string base =
            prefix + ".row" + std::to_string(i);
        const ContextRow *r = &rows_[i];
        registry.addFormula(
            base + ".active_rate", [r] { return r->activeRate(); },
            "active_time / total_time (Algorithm 1 input)");
        registry.addFormula(
            base + ".active_cycles",
            [r] { return static_cast<double>(r->activeCycles); },
            "cycles this workload occupied FUs");
        registry.addFormula(
            base + ".priority", [r] { return r->priority; },
            "relative priority (Algorithm 1 divisor)");
    }
}

} // namespace v10
