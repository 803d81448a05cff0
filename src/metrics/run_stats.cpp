#include "metrics/run_stats.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "metrics/stat_registry.h"

namespace v10 {

double
WorkloadRunStats::preemptsPerRequest() const
{
    if (requests == 0)
        return 0.0;
    return static_cast<double>(preemptions) /
           static_cast<double>(requests);
}

double
RunStats::stp() const
{
    double sum = 0.0;
    for (const auto &w : workloads)
        sum += w.normalizedProgress;
    return sum;
}

double
RunStats::worstProgress() const
{
    double worst = workloads.empty() ? 0.0 : workloads[0].normalizedProgress;
    for (const auto &w : workloads)
        worst = std::min(worst, w.normalizedProgress);
    return worst;
}

double
RunStats::antt() const
{
    if (workloads.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &w : workloads) {
        if (w.normalizedProgress <= 0.0)
            return 0.0; // undefined without progress data
        sum += 1.0 / w.normalizedProgress;
    }
    return sum / static_cast<double>(workloads.size());
}

double
RunStats::fairness() const
{
    if (workloads.empty())
        return 0.0;
    double lo = workloads[0].normalizedProgress;
    double hi = workloads[0].normalizedProgress;
    for (const auto &w : workloads) {
        lo = std::min(lo, w.normalizedProgress);
        hi = std::max(hi, w.normalizedProgress);
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

std::string
RunStats::detailedReport(const StatRegistry *registry) const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(6);
    os << "window.cycles            " << windowCycles << '\n';
    os << "window.seconds           " << windowSeconds << '\n';
    os << "util.sa                  " << saUtil << '\n';
    os << "util.vu                  " << vuUtil << '\n';
    os << "util.combined            " << combinedUtil << '\n';
    os << "util.hbm_bw              " << hbmUtil << '\n';
    os << "util.flops               " << flopsUtil << '\n';
    os << "overlap.both             " << overlapBothFrac << '\n';
    os << "overlap.sa_only          " << saOnlyFrac << '\n';
    os << "overlap.vu_only          " << vuOnlyFrac << '\n';
    os << "overlap.idle             " << idleFrac << '\n';
    os << "system.stp               " << stp() << '\n';
    os << "system.antt              " << antt() << '\n';
    os << "system.fairness          " << fairness() << '\n';
    if (aborted || faultsInjected > 0 || quarantinedTenants > 0) {
        os << "robust.aborted           " << aborted << '\n';
        if (!abortReason.empty())
            os << "robust.abort_reason      " << abortReason << '\n';
        os << "robust.faults_injected   " << faultsInjected << '\n';
        os << "robust.dma_retries       " << dmaRetries << '\n';
        os << "robust.sa_replays        " << saReplays << '\n';
        os << "robust.quarantined       " << quarantinedTenants
           << '\n';
    }
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto &w = workloads[i];
        const std::string p =
            "tenant." + std::to_string(i) + ".";
        os << p << "label            " << w.label << '\n';
        os << p << "requests         " << w.requests << '\n';
        os << p << "latency_avg_us   " << w.avgLatencyUs << '\n';
        os << p << "latency_p95_us   " << w.p95LatencyUs << '\n';
        os << p << "requests_per_s   " << w.requestsPerSec << '\n';
        os << p << "progress         " << w.normalizedProgress
           << '\n';
        os << p << "sa_util          " << w.saUtil << '\n';
        os << p << "vu_util          " << w.vuUtil << '\n';
        os << p << "preemptions      " << w.preemptions << '\n';
        os << p << "ctx_overhead     " << w.ctxOverheadFrac << '\n';
        if (w.quarantined || w.faultStrikes > 0) {
            os << p << "quarantined      " << w.quarantined << '\n';
            os << p << "fault_strikes    " << w.faultStrikes << '\n';
        }
    }
    if (registry != nullptr) {
        for (const auto &[path, value] : registry->snapshot())
            os << "registry." << path << "  " << value << '\n';
    }
    return os.str();
}

std::string
RunStats::summary() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << "window=" << windowCycles << "cyc sa=" << saUtil
       << " vu=" << vuUtil << " hbm=" << hbmUtil
       << " both=" << overlapBothFrac << " stp=" << stp();
    if (aborted)
        os << " ABORTED(" << abortReason << ")";
    if (faultsInjected > 0)
        os << " faults=" << faultsInjected;
    for (const auto &w : workloads) {
        os << " [" << w.label << " req=" << w.requests
           << " lat=" << w.avgLatencyUs << "us np="
           << w.normalizedProgress << "]";
    }
    return os.str();
}

} // namespace v10
