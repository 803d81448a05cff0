/**
 * @file
 * NPU core configuration, defaulting to Table 5 of the paper:
 * 128x128 systolic array, 8x128x2 FP32 vector unit, 700 MHz, 32 MB
 * vector memory, 32 GB HBM at 330 GB/s, 32768-cycle scheduler time
 * slice.
 */

#ifndef V10_NPU_NPU_CONFIG_H
#define V10_NPU_NPU_CONFIG_H

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/types.h"
#include "npu/sa_preemption.h"

namespace v10 {

/**
 * Static hardware parameters of one simulated NPU core. Plain
 * aggregate; check() must pass before the core is built.
 */
struct NpuConfig
{
    /** Systolic array dimension (dim x dim PEs). */
    std::uint32_t saDim = 128;

    /** Number of systolic arrays on the core. */
    std::uint32_t numSa = 1;

    /** Number of vector units on the core. */
    std::uint32_t numVu = 1;

    /** Vector unit SIMD lanes (8 sublanes x 128 lanes). */
    std::uint32_t vuLanes = 8 * 128;

    /** FP32 operations per lane per cycle (dual-issue ALUs). */
    std::uint32_t vuOpsPerLane = 2;

    /** Core clock frequency in GHz. */
    double freqGHz = 0.7;

    /** On-chip vector memory capacity. */
    Bytes vmemBytes = 32_MiB;

    /** Off-chip HBM capacity. */
    Bytes hbmBytes = 32_GiB;

    /**
     * Per-core HBM bandwidth in GB/s. Scaled with numSa by
     * scaledForFus() per the common practice noted in §5.9.
     */
    double hbmGBps = 330.0;

    /** Operator-scheduler preemption-timer period, in cycles. */
    Cycles timeSlice = 32768;

    /** SA context-saving strategy (§3.3; NaiveDrain for the
     * ablation of Fig. 13's design choice). */
    SaPreemptStrategy saPreemptStrategy = SaPreemptStrategy::V10Replay;

    /**
     * Operator-prefetch window of the DMA engine: how many
     * operators ahead of execution are staged into vector memory
     * (double/triple buffering behind §3.2's Ready bit).
     */
    std::uint32_t dmaPrefetchDepth = 8;

    /**
     * Enforce the §3.6 deployment-time check that every tenant's
     * HBM region fits the device (fatal on overflow). The Fig. 25
     * scaling study disables it, as the paper's does implicitly.
     */
    bool enforceHbmFit = true;

    /**
     * Structured range validation: the first out-of-range parameter
     * is reported as a ParseError naming the field, so callers
     * ingesting configs (CLI flags, sweep specs) can report and exit
     * cleanly instead of crashing.
     */
    Status check() const;

    /** Peak SA throughput in FLOPs per cycle (all SAs). */
    double peakSaFlopsPerCycle() const;

    /** Peak VU throughput in FLOPs per cycle (all VUs). */
    double peakVuFlopsPerCycle() const;

    /** Peak core FLOPs per cycle (SAs + VUs). */
    double peakFlopsPerCycle() const;

    /** Peak core TFLOP/s at the configured frequency. */
    double peakTflops() const;

    /** Convert microseconds to cycles (rounded to nearest). */
    Cycles usToCycles(double us) const;

    /** Convert cycles to microseconds. */
    double cyclesToUs(Cycles cycles) const;

    /** Convert cycles to seconds. */
    double cyclesToSeconds(Cycles cycles) const;

    /** HBM bandwidth in bytes per core cycle. */
    double hbmBytesPerCycle() const;

    /**
     * Cycles for one SA context switch (§3.3): the 128-cycle input
     * save overlaps the restore; the total is 3*saDim (384 for a
     * 128x128 array).
     */
    Cycles saContextSwitchCycles() const;

    /**
     * On-chip context storage for one preempted SA operator (§3.3):
     * dim x 2dim 2-byte inputs plus dim x dim 2-byte weights
     * (96 KB for a 128x128 array).
     */
    Bytes saContextBytes() const;

    /**
     * Cycles for one VU context switch: save + restore of the PC and
     * the 32-entry 8x128 vector register file through the vector
     * memory ports.
     */
    Cycles vuContextSwitchCycles() const;

    /**
     * Copy of this config with FU counts set and the HBM bandwidth
     * scaled proportionally (hardware designers scale HBM with the
     * compute, §5.9).
     */
    NpuConfig scaledForFus(std::uint32_t sas, std::uint32_t vus) const;

    /**
     * Peak vector-memory bandwidth demand in bytes per cycle: the
     * SAs streaming inputs and draining outputs plus the VUs'
     * load/store ports all active at once. §5.8 notes that "vector
     * memory bandwidth contention never occurs as vector memory is
     * designed to satisfy the peak bandwidth from both SA and VU";
     * vmemBandwidthProvisioned() expresses that design rule.
     */
    double vmemPeakDemandBytesPerCycle() const;

    /** SRAM bandwidth the vector memory is provisioned with (the
     * §5.8 design rule: covers the combined SA + VU peak). */
    double vmemBandwidthProvisioned() const;

    /** One-line human-readable summary. */
    std::string summary() const;
};

} // namespace v10

#endif // V10_NPU_NPU_CONFIG_H
