/**
 * @file
 * Text serialization of request traces, mirroring the paper's
 * trace-replay workflow: traces can be generated once, saved, and
 * replayed by the simulator (or inspected/edited by hand).
 *
 * Format (one operator per line):
 *
 *   # v10-trace v1
 *   model <name> batch <batch> ops <count>
 *   op <id> <SA|VU> <name> <cycles> <flops> <dmaBytes> <wsBytes>
 *      <rowsOrElements> deps <d0> <d1> ...
 */

#ifndef V10_WORKLOAD_TRACE_IO_H
#define V10_WORKLOAD_TRACE_IO_H

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "workload/trace_gen.h"

namespace v10 {

/** Metadata carried alongside a serialized trace. */
struct TraceHeader
{
    std::string model;
    int batch = 0;
};

/** Write @p trace with @p header to @p os. */
void saveTrace(std::ostream &os, const TraceHeader &header,
               const RequestTrace &trace);

/**
 * Parse a trace written by saveTrace(), recoverably.
 *
 * Strict validation: version magic, header keywords, operator kind,
 * positive compute cycles, dependencies referencing strictly earlier
 * operators, an operator count matching the header, and a model the
 * zoo knows. Errors carry @p source, the 1-based line number, and
 * the offending token.
 *
 * @param is input stream
 * @param header receives the metadata
 * @param source label used in diagnostics (file path, "<stream>")
 * @return the reconstructed trace (aggregates recomputed), or a
 *         ParseError
 */
Result<RequestTrace> parseTrace(std::istream &is, TraceHeader &header,
                                const std::string &source =
                                    "<trace>");

/** parseTrace() over a file; a missing file is a ParseError too. */
Result<RequestTrace> parseTraceFile(const std::string &path,
                                    TraceHeader &header);

/** saveTrace() to a file path; an error Status if the file cannot be
 * opened or a write fails. */
Status saveTraceFile(const std::string &path, const TraceHeader &header,
                     const RequestTrace &trace);

} // namespace v10

#endif // V10_WORKLOAD_TRACE_IO_H
