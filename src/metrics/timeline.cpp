#include "metrics/timeline.h"

#include <fstream>
#include <ostream>

#include "common/log.h"
#include "metrics/interval_sampler.h"

namespace v10 {

TimelineTracer::TimelineTracer(double cyclesPerUs)
    : cycles_per_us_(cyclesPerUs)
{
    if (cycles_per_us_ <= 0.0)
        V10_PANIC("TimelineTracer: cyclesPerUs must be positive");
}

void
TimelineTracer::opBegin(Cycles now, const std::string &fu,
                        const std::string &tenant,
                        const std::string &op, Cycles penalty)
{
    if (open_.count(fu))
        panic("TimelineTracer: ", fu, " already has an open slice");
    Slice slice;
    slice.fu = fu;
    slice.tenant = tenant;
    slice.op = op;
    slice.start = now;
    slice.penalty = penalty;
    open_[fu] = slices_.size();
    slices_.push_back(std::move(slice));
}

void
TimelineTracer::opEnd(Cycles now, const std::string &fu,
                      bool preempted)
{
    auto it = open_.find(fu);
    if (it == open_.end())
        panic("TimelineTracer: opEnd without opBegin on ", fu);
    Slice &slice = slices_[it->second];
    slice.end = now;
    slice.preempted = preempted;
    open_.erase(it);
}

void
TimelineTracer::finish(Cycles now)
{
    for (const auto &[fu, idx] : open_) {
        slices_[idx].end = now;
        slices_[idx].preempted = true;
    }
    open_.clear();
}

std::vector<std::string>
TimelineTracer::sliceLabels() const
{
    std::vector<std::string> out;
    out.reserve(slices_.size());
    for (const auto &s : slices_)
        out.push_back(s.fu + ":" + s.tenant + ":" + s.op + "@" +
                      std::to_string(s.start) +
                      (s.preempted ? "!" : ""));
    return out;
}

std::size_t
TimelineTracer::preemptionCount() const
{
    std::size_t n = 0;
    for (const auto &slice : slices_)
        n += slice.preempted;
    return n;
}

void
TimelineTracer::writeChromeTrace(std::ostream &os) const
{
    os << "[\n";
    bool first = true;
    for (const auto &slice : slices_) {
        if (slice.end < slice.start)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        const double ts =
            static_cast<double>(slice.start) / cycles_per_us_;
        const double dur =
            static_cast<double>(slice.end - slice.start) /
            cycles_per_us_;
        os << "  {\"name\": \"" << slice.op << "\", \"cat\": \""
           << slice.tenant << "\", \"ph\": \"X\", \"ts\": " << ts
           << ", \"dur\": " << dur
           << ", \"pid\": 0, \"tid\": \"" << slice.fu
           << "\", \"args\": {\"tenant\": \"" << slice.tenant
           << "\", \"ctx_penalty_cycles\": " << slice.penalty
           << ", \"preempted\": "
           << (slice.preempted ? "true" : "false") << "}}";
    }
    bool haveEvents = !first;
    if (sampler_)
        haveEvents |=
            sampler_->writeCounterEvents(os, cycles_per_us_, haveEvents);
    if (spans_)
        spans_->writeAsyncSpanEvents(os, cycles_per_us_, haveEvents);
    os << "\n]\n";
}

Status
TimelineTracer::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open timeline for writing", path);
    writeChromeTrace(os);
    os.flush();
    if (!os)
        return parseError("short write on timeline", path);
    return Status::ok();
}

} // namespace v10
