#include "workload/workload.h"

#include "common/log.h"
#include "workload/model_zoo.h"
#include "workload/trace_io.h"

namespace v10 {

Workload::Workload(const ModelProfile &profile, int batch,
                   const NpuConfig &config)
    : profile_(profile),
      batch_(batch > 0 ? batch : profile.refBatch),
      trace_(generateTrace(profile, batch_, config)),
      graph_(std::make_unique<OpGraph>(trace_.ops))
{
}

Workload
Workload::fromName(const std::string &nameOrAbbrev, int batch,
                   const NpuConfig &config)
{
    return Workload(findModel(nameOrAbbrev), batch, config);
}

Workload::Workload(const ModelProfile &profile, int batch,
                   RequestTrace trace)
    : profile_(profile),
      batch_(batch > 0 ? batch : profile.refBatch),
      trace_(std::move(trace)),
      graph_(std::make_unique<OpGraph>(trace_.ops))
{
    // parseTrace() rejects traces this short, so only a caller
    // building one by hand can get here.
    if (trace_.ops.empty())
        V10_PANIC("Workload: empty trace");
}

Result<Workload>
Workload::fromTraceFile(const std::string &path)
{
    TraceHeader header;
    Result<RequestTrace> trace = parseTraceFile(path, header);
    if (!trace)
        return trace.error();
    return Workload(findModel(header.model), header.batch,
                    trace.take());
}

std::string
Workload::label() const
{
    return profile_.abbrev + "@" + std::to_string(batch_);
}

double
Workload::saTimeFrac() const
{
    const auto total = static_cast<double>(trace_.computeCycles());
    if (total <= 0.0)
        return 0.0;
    return static_cast<double>(trace_.saCycles) / total;
}

Bytes
Workload::memFootprint() const
{
    return profile_.memFootprint(batch_);
}

} // namespace v10
