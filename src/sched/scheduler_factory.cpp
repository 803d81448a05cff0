#include "sched/scheduler_factory.h"

#include "common/log.h"

namespace v10 {

const std::vector<SchedulerKind> &
allSchedulerKinds()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::Pmt,
        SchedulerKind::V10Base,
        SchedulerKind::V10Fair,
        SchedulerKind::V10Full,
    };
    return kinds;
}

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Pmt:     return "PMT";
      case SchedulerKind::V10Base: return "V10-Base";
      case SchedulerKind::V10Fair: return "V10-Fair";
      case SchedulerKind::V10Full: return "V10-Full";
      case SchedulerKind::Prema:   return "PREMA";
    }
    panic("schedulerKindName: bad kind");
}

std::optional<SchedulerKind>
schedulerKindFromName(const std::string &name)
{
    for (SchedulerKind kind :
         {SchedulerKind::Pmt, SchedulerKind::V10Base,
          SchedulerKind::V10Fair, SchedulerKind::V10Full,
          SchedulerKind::Prema}) {
        if (name == schedulerKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::unique_ptr<SchedulerEngine>
makeScheduler(SchedulerKind kind, Simulator &sim, NpuCore &core,
              std::vector<TenantSpec> tenants,
              const SchedulerOptions &options)
{
    switch (kind) {
      case SchedulerKind::Pmt:
        return std::make_unique<PmtScheduler>(
            sim, core, std::move(tenants), PmtScheduler::Options{},
            options.seed);
      case SchedulerKind::V10Base:
        return std::make_unique<OperatorScheduler>(
            sim, core, std::move(tenants),
            OperatorScheduler::Variant::Base, options.sliceOverride,
            options.seed);
      case SchedulerKind::V10Fair:
        return std::make_unique<OperatorScheduler>(
            sim, core, std::move(tenants),
            OperatorScheduler::Variant::Fair, options.sliceOverride,
            options.seed);
      case SchedulerKind::V10Full:
        return std::make_unique<OperatorScheduler>(
            sim, core, std::move(tenants),
            OperatorScheduler::Variant::Full, options.sliceOverride,
            options.seed);
      case SchedulerKind::Prema:
        return std::make_unique<PremaScheduler>(
            sim, core, std::move(tenants),
            PremaScheduler::Options{}, options.seed);
    }
    panic("makeScheduler: bad kind");
}

bool
reservesSaContexts(SchedulerKind kind)
{
    return kind == SchedulerKind::V10Full;
}

} // namespace v10
