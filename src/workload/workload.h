/**
 * @file
 * A deployed inference workload: one model at one batch size, with
 * its compiled request trace, dependency graph, and derived
 * statistics. Workloads are what V10's scheduler collocates on an
 * NPU core and what the clustering mechanism featurizes.
 */

#ifndef V10_WORKLOAD_WORKLOAD_H
#define V10_WORKLOAD_WORKLOAD_H

#include <memory>
#include <string>

#include "common/result.h"
#include "npu/npu_config.h"
#include "workload/model_profile.h"
#include "workload/op_graph.h"
#include "workload/trace_gen.h"

namespace v10 {

/**
 * One tenant workload (model @ batch) ready for deployment.
 */
class Workload
{
  public:
    /**
     * Compile (synthesize) the workload's trace for the given
     * hardware.
     * @param batch inference batch size; 0 selects the model's
     *        reference batch (Table 4)
     */
    Workload(const ModelProfile &profile, int batch,
             const NpuConfig &config);

    /** Convenience: look up the model by name/abbreviation. */
    static Workload fromName(const std::string &nameOrAbbrev,
                             int batch, const NpuConfig &config);

    /**
     * Wrap a pre-built operator trace (loaded from a trace file or
     * constructed by hand) instead of synthesizing one. The profile
     * is only used for labeling and memory accounting.
     */
    Workload(const ModelProfile &profile, int batch,
             RequestTrace trace);

    /** Load a trace saved by saveTraceFile() and wrap it; a missing
     * or malformed file is a ParseError (see parseTraceFile()). */
    static Result<Workload> fromTraceFile(const std::string &path);

    /** The calibration profile. */
    const ModelProfile &profile() const { return profile_; }

    /** Inference batch size. */
    int batch() const { return batch_; }

    /** "BERT@32"-style label. */
    std::string label() const;

    /** The compiled request trace (replayed every request). */
    const RequestTrace &trace() const { return trace_; }

    /** Dependency-graph analysis (Fig. 6). */
    const OpGraph &graph() const { return *graph_; }

    /** Sum of all operator durations: the stall-free request time. */
    Cycles computeCycles() const { return trace_.computeCycles(); }

    /** Fraction of busy time spent on the systolic array. */
    double saTimeFrac() const;

    /** Achieved FLOPs per request. */
    double flopsPerRequest() const { return trace_.totalFlops; }

    /** Off-chip bytes per request. */
    Bytes bytesPerRequest() const { return trace_.totalDmaBytes; }

    /** HBM footprint at this batch. */
    Bytes memFootprint() const;

  private:
    ModelProfile profile_;
    int batch_;
    RequestTrace trace_;
    std::unique_ptr<OpGraph> graph_;
};

} // namespace v10

#endif // V10_WORKLOAD_WORKLOAD_H
