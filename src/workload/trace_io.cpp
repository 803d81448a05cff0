#include "workload/trace_io.h"

#include <fstream>
#include <sstream>

#include "workload/model_zoo.h"

namespace v10 {

void
saveTrace(std::ostream &os, const TraceHeader &header,
          const RequestTrace &trace)
{
    os << "# v10-trace v1\n";
    os << "model " << header.model << " batch " << header.batch
       << " ops " << trace.ops.size() << '\n';
    for (const TensorOperator &op : trace.ops) {
        os << "op " << op.id << ' ' << opKindName(op.kind) << ' '
           << op.name << ' ' << op.computeCycles << ' ' << op.flops
           << ' ' << op.dmaBytes << ' ' << op.workingSetBytes << ' '
           << (op.kind == OpKind::SA ? op.saRows : op.vuElements)
           << " deps";
        for (auto d : op.deps)
            os << ' ' << d;
        os << '\n';
    }
}

Result<RequestTrace>
parseTrace(std::istream &is, TraceHeader &header,
           const std::string &source)
{
    std::string line;
    std::size_t lineno = 0;

    ++lineno;
    if (!std::getline(is, line) || line != "# v10-trace v1")
        return parseError("bad magic line (want '# v10-trace v1')",
                          source, lineno, line);
    ++lineno;
    if (!std::getline(is, line))
        return parseError("missing header line", source, lineno);
    const std::size_t header_line = lineno;
    std::size_t declared_ops = 0;
    {
        std::istringstream hs(line);
        std::string kw_model, kw_batch, kw_ops;
        hs >> kw_model >> header.model >> kw_batch >> header.batch >>
            kw_ops >> declared_ops;
        if (!hs || kw_model != "model" || kw_batch != "batch" ||
            kw_ops != "ops")
            return parseError("malformed header line", source, lineno,
                              line);
        if (header.batch <= 0)
            return parseError("batch must be positive", source,
                              lineno, std::to_string(header.batch));
    }

    RequestTrace trace;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kw_op, kind_str, kw_deps;
        TensorOperator op;
        std::uint64_t geometry = 0;
        ls >> kw_op >> op.id >> kind_str >> op.name >>
            op.computeCycles >> op.flops >> op.dmaBytes >>
            op.workingSetBytes >> geometry >> kw_deps;
        if (!ls || kw_op != "op" || kw_deps != "deps")
            return parseError("malformed op line", source, lineno,
                              line);
        if (kind_str == "SA") {
            op.kind = OpKind::SA;
            op.saRows = geometry;
        } else if (kind_str == "VU") {
            op.kind = OpKind::VU;
            op.vuElements = geometry;
        } else {
            return parseError("bad op kind (want SA or VU)", source,
                              lineno, kind_str);
        }
        if (op.computeCycles == 0)
            return parseError("computeCycles must be positive",
                              source, lineno, op.name);
        if (op.flops < 0.0)
            return parseError("flops must be non-negative", source,
                              lineno, op.name);
        std::uint32_t dep = 0;
        while (ls >> dep) {
            if (dep >= trace.ops.size())
                return parseError(
                    "dependency must reference an earlier operator",
                    source, lineno, std::to_string(dep));
            op.deps.push_back(dep);
        }
        if (!ls.eof())
            return parseError("malformed dependency list", source,
                              lineno, line);

        if (op.kind == OpKind::SA)
            trace.saCycles += op.computeCycles;
        else
            trace.vuCycles += op.computeCycles;
        trace.totalFlops += op.flops;
        trace.totalDmaBytes += op.dmaBytes;
        trace.ops.push_back(std::move(op));
    }
    if (trace.ops.size() != declared_ops)
        return parseError("operator count mismatch (header declares " +
                              std::to_string(declared_ops) +
                              ", file has " +
                              std::to_string(trace.ops.size()) + ")",
                          source, lineno);
    // The engine runs only traces of two or more operators; reject
    // shorter ones here, where the error can name the header line.
    if (trace.ops.size() < 2)
        return parseError("trace needs at least 2 operators (header "
                          "declares " +
                              std::to_string(declared_ops) + ")",
                          source, header_line);
    // The one semantic check runs last, after the structure is valid.
    if (!hasModel(header.model))
        return parseError("unknown model", source, header_line,
                          header.model);
    return trace;
}

Result<RequestTrace>
parseTraceFile(const std::string &path, TraceHeader &header)
{
    std::ifstream is(path);
    if (!is)
        return parseError("cannot open trace file", path);
    return parseTrace(is, header, path);
}

Status
saveTraceFile(const std::string &path, const TraceHeader &header,
              const RequestTrace &trace)
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open trace file for writing", path);
    saveTrace(os, header, trace);
    os.flush();
    if (!os)
        return parseError("short write on trace file", path);
    return Status::ok();
}

} // namespace v10
