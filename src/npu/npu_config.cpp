#include "npu/npu_config.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace v10 {

Status
NpuConfig::check() const
{
    const auto bad = [](const std::string &message,
                        const std::string &field) {
        return parseError(message, "NpuConfig", 0, field);
    };
    if (saDim == 0 || saDim % 8 != 0)
        return bad("saDim must be a positive multiple of 8",
                   "saDim");
    if (!std::isfinite(freqGHz))
        return bad("frequency must be finite", "freqGHz");
    if (numSa == 0 || numVu == 0)
        return bad("need at least one SA and one VU",
                   numSa == 0 ? "numSa" : "numVu");
    if (vuLanes == 0 || vuOpsPerLane == 0)
        return bad("VU lanes/ops must be positive",
                   vuLanes == 0 ? "vuLanes" : "vuOpsPerLane");
    if (freqGHz <= 0.0)
        return bad("frequency must be positive", "freqGHz");
    if (vmemBytes == 0 || hbmBytes == 0)
        return bad("memory capacities must be positive",
                   vmemBytes == 0 ? "vmemBytes" : "hbmBytes");
    if (!std::isfinite(hbmGBps) || hbmGBps <= 0.0)
        return bad("HBM bandwidth must be positive and finite",
                   "hbmGBps");
    if (timeSlice == 0)
        return bad("time slice must be positive", "timeSlice");
    if (dmaPrefetchDepth == 0)
        return bad("prefetch depth must be positive",
                   "dmaPrefetchDepth");
    return Status::ok();
}

double
NpuConfig::peakSaFlopsPerCycle() const
{
    // One multiply-accumulate (2 FLOPs) per PE per cycle.
    return 2.0 * saDim * saDim * numSa;
}

double
NpuConfig::peakVuFlopsPerCycle() const
{
    return static_cast<double>(vuLanes) * vuOpsPerLane * numVu;
}

double
NpuConfig::peakFlopsPerCycle() const
{
    return peakSaFlopsPerCycle() + peakVuFlopsPerCycle();
}

double
NpuConfig::peakTflops() const
{
    return peakFlopsPerCycle() * freqGHz * 1e9 / 1e12;
}

Cycles
NpuConfig::usToCycles(double us) const
{
    return static_cast<Cycles>(std::llround(us * freqGHz * 1e3));
}

double
NpuConfig::cyclesToUs(Cycles cycles) const
{
    return static_cast<double>(cycles) / (freqGHz * 1e3);
}

double
NpuConfig::cyclesToSeconds(Cycles cycles) const
{
    return static_cast<double>(cycles) / (freqGHz * 1e9);
}

double
NpuConfig::hbmBytesPerCycle() const
{
    return hbmGBps * 1e9 / (freqGHz * 1e9);
}

Cycles
NpuConfig::saContextSwitchCycles() const
{
    return saPreemptCost(saDim, saPreemptStrategy).switchCycles();
}

Bytes
NpuConfig::saContextBytes() const
{
    return saPreemptCost(saDim, saPreemptStrategy).contextBytes;
}

Cycles
NpuConfig::vuContextSwitchCycles() const
{
    // 32 vector registers spilled and refilled through the vmem
    // port (one 8x128 register per 2 cycles each way).
    return 128;
}

NpuConfig
NpuConfig::scaledForFus(std::uint32_t sas, std::uint32_t vus) const
{
    // Scale the shared memories with the compute, as NPU designers
    // do (§5.9): HBM bandwidth and vector-memory capacity grow with
    // the SA count.
    NpuConfig scaled = *this;
    scaled.numSa = sas;
    scaled.numVu = vus;
    scaled.hbmGBps = hbmGBps * sas;
    scaled.hbmBytes = hbmBytes * sas;
    scaled.vmemBytes = vmemBytes * sas;
    return scaled;
}

double
NpuConfig::vmemPeakDemandBytesPerCycle() const
{
    // Each SA simultaneously streams one 2-byte input row element
    // per column and drains one 4-byte output element per column;
    // each VU moves one 4-byte word per lane per cycle (ld or st).
    const double sa_stream =
        static_cast<double>(saDim) * (2.0 + 4.0) * numSa;
    const double vu_ports =
        static_cast<double>(vuLanes) * 4.0 * numVu;
    return sa_stream + vu_ports;
}

double
NpuConfig::vmemBandwidthProvisioned() const
{
    // Designed to satisfy the combined peak (§5.8), with the usual
    // 2x banking margin against conflicts.
    return 2.0 * vmemPeakDemandBytesPerCycle();
}

std::string
NpuConfig::summary() const
{
    std::ostringstream os;
    os << numSa << "x SA(" << saDim << "x" << saDim << ") + " << numVu
       << "x VU(" << vuLanes << "x" << vuOpsPerLane << ") @ "
       << freqGHz << " GHz, vmem " << formatBytes(vmemBytes)
       << ", HBM " << formatBytes(hbmBytes) << " @ " << hbmGBps
       << " GB/s, slice " << timeSlice << " cyc";
    return os.str();
}

} // namespace v10
