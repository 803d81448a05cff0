#include "trace/request_tracer.h"

#include <fstream>
#include <ostream>

#include "common/json.h"

namespace v10 {

namespace {

std::string
hexId(std::uint64_t id)
{
    static const char digits[] = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += digits[(id >> shift) & 0xF];
    return out;
}

} // namespace

void
RequestTracer::writeJsonl(std::ostream &os) const
{
    for (const auto &s : spans_) {
        os << "{\"trace_id\":\"" << hexId(s.ctx.traceId)
           << "\",\"tenant\":\"" << jsonEscape(s.tenant)
           << "\",\"tenant_index\":" << s.ctx.tenant
           << ",\"seq\":" << s.ctx.seq << ",\"core\":" << s.core
           << ",\"arrival_us\":" << jsonNumber(s.arrivalUs)
           << ",\"start_us\":" << jsonNumber(s.startUs)
           << ",\"end_us\":" << jsonNumber(s.endUs)
           << ",\"queue_us\":" << jsonNumber(s.queueUs())
           << ",\"service_us\":" << jsonNumber(s.serviceUs())
           << ",\"solo_us\":" << jsonNumber(s.soloUs)
           << ",\"inflation_us\":" << jsonNumber(s.inflationUs())
           << ",\"sojourn_us\":" << jsonNumber(s.sojournUs())
           << ",\"slo_target_us\":" << jsonNumber(s.sloTargetUs)
           << ",\"violated\":" << (s.violated ? "true" : "false")
           << ",\"shed\":" << (s.shed ? "true" : "false")
           << ",\"rejected\":" << (s.rejected ? "true" : "false")
           << "}\n";
    }
}

Status
RequestTracer::writeJsonlFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open trace output for writing", path);
    writeJsonl(os);
    os.flush();
    if (!os)
        return parseError("short write on trace output", path);
    return Status::ok();
}

bool
RequestTracer::writeAsyncSpanEvents(std::ostream &os,
                                    double /*cyclesPerUs*/,
                                    bool needComma) const
{
    bool wrote = false;
    auto emit = [&](const RequestSpan &s, const char *ph,
                    const std::string &name, double ts) {
        if (needComma || wrote)
            os << ",\n";
        wrote = true;
        os << " {\"name\": \"" << jsonEscape(name) << "\", \"cat\": \""
           << jsonEscape(s.tenant) << "\", \"ph\": \"" << ph
           << "\", \"id\": \"" << hexId(s.ctx.traceId)
           << "\", \"ts\": " << jsonNumber(ts)
           << ", \"pid\": 1, \"tid\": " << s.core << ", \"args\": {"
           << "\"seq\": " << s.ctx.seq << ", \"shed\": "
           << (s.shed ? "true" : "false") << "}}";
    };
    for (const auto &s : spans_) {
        const std::string request = s.tenant + "/request";
        emit(s, "b", request, s.arrivalUs);
        if (!s.shed) {
            const std::string service = s.tenant + "/service";
            emit(s, "b", service, s.startUs);
            emit(s, "e", service, s.endUs);
        }
        emit(s, "e", request, s.endUs);
    }
    return wrote;
}

} // namespace v10
