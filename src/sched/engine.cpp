#include "sched/engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/json.h"
#include "common/log.h"
#include "common/result.h"
#include "trace/attribution.h"
#include "trace/flight_recorder.h"
#include "trace/request_tracer.h"
#include "trace/trace_context.h"

namespace v10 {

namespace {

/** Initial DMA retry timeout when the caller left it at 0. */
constexpr Cycles kDefaultDmaTimeout = 50'000;

/** Watchdog period when only a cycle budget was configured. */
constexpr Cycles kDefaultWatchdogInterval = 1'000'000;

} // namespace

Status
QuarantineLadder::check() const
{
    if (throttleStrikes == 0)
        return parseError("quarantine: throttle strikes must be >= 1",
                          "", 0, "throttleStrikes");
    if (isolateStrikes <= throttleStrikes)
        return parseError("quarantine: isolate strikes must exceed "
                          "throttle strikes",
                          "", 0, "isolateStrikes");
    if (evictStrikes <= isolateStrikes)
        return parseError("quarantine: evict strikes must exceed "
                          "isolate strikes",
                          "", 0, "evictStrikes");
    if (!(throttleFactor > 0.0) || throttleFactor > 1.0)
        return parseError("quarantine: throttle factor must be in "
                          "(0, 1]",
                          "", 0, "throttleFactor");
    if (recoveryEpochs == 0)
        return parseError("quarantine: recovery epochs must be >= 1",
                          "", 0, "recoveryEpochs");
    return Status::ok();
}

SchedulerEngine::SchedulerEngine(Simulator &sim, NpuCore &core,
                                 std::vector<TenantSpec> tenants,
                                 std::uint64_t seed)
    : sim_(sim), core_(core), rng_(seed), overlap_(sim),
      latency_(static_cast<std::uint32_t>(tenants.size())),
      seed_(seed)
{
    // Tenant specs come from program code (the experiment layer
    // validates user input with validateSweepCell() first), so a bad
    // spec here is a caller bug.
    if (tenants.empty())
        V10_PANIC("SchedulerEngine: need at least one tenant");
    tenants_.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &spec = tenants[i];
        if (spec.workload == nullptr)
            V10_PANIC("SchedulerEngine: tenant ", i, " has no workload");
        if (spec.workload->trace().ops.size() < 2)
            V10_PANIC("SchedulerEngine: trace of ",
                      spec.workload->label(), " too short");
        if (spec.priority <= 0.0)
            V10_PANIC("SchedulerEngine: non-positive priority for "
                      "tenant ", i);
        if (spec.arrivalRps < 0.0)
            V10_PANIC("SchedulerEngine: negative arrival rate for "
                      "tenant ", i);
        Tenant t;
        t.wl = spec.workload;
        t.id = static_cast<WorkloadId>(i);
        t.priority = spec.priority;
        t.arrivalRps = spec.arrivalRps;
        tenants_.push_back(std::move(t));
    }

    // §3.6: host each tenant in its own HBM segment; deployment
    // fails when the device cannot hold the pool.
    for (auto &t : tenants_) {
        const Bytes footprint = t.wl->memFootprint();
        if (core_.config().enforceHbmFit ||
            core_.hbmRegions().fits(footprint))
            core_.hbmRegions().allocate(t.wl->label(), footprint);
        else
            warn("HBM oversubscribed by ", t.wl->label(),
                 " (capacity check disabled)");
    }

    for (auto &sa : core_.sas())
        fu_index_.push_back(sa.get());
    for (auto &vu : core_.vus())
        fu_index_.push_back(vu.get());
    fu_last_preempted_.assign(fu_index_.size(), false);
    fu_last_victim_.assign(fu_index_.size(), kNoWorkload);

    core_.observeAll(&overlap_);
}

SchedulerEngine::~SchedulerEngine()
{
    // Formulas registered by this engine capture pointers into the
    // engine and its core; settle them while both are still alive
    // (run() already froze on the normal path).
    if (stats_ != nullptr && !stats_->frozen())
        stats_->freeze();
    core_.observeAll(nullptr);
}

std::size_t
SchedulerEngine::fuIndex(const FunctionalUnit &fu) const
{
    for (std::size_t i = 0; i < fu_index_.size(); ++i) {
        if (fu_index_[i] == &fu)
            return i;
    }
    panic("SchedulerEngine: unknown functional unit ", fu.name());
}

double
SchedulerEngine::dmaInflation(const TensorOperator &op) const
{
    return core_.vmem().dmaInflation(op.workingSetBytes);
}

Cycles
SchedulerEngine::contextSwitchCycles(FunctionalUnit::Kind kind) const
{
    if (kind == FunctionalUnit::Kind::SA)
        return core_.config().saContextSwitchCycles();
    return core_.config().vuContextSwitchCycles();
}

Cycles
SchedulerEngine::ctxPenaltyFor(const Tenant &tenant,
                               const FunctionalUnit &fu) const
{
    if (tenant.opPreempted || fu_last_preempted_[fuIndex(fu)])
        return contextSwitchCycles(fu.kind());
    return 0;
}

SchedulerEngine::Tenant *
SchedulerEngine::tenantOn(const FunctionalUnit &fu)
{
    for (auto &t : tenants_) {
        if (t.running && t.fu == &fu)
            return &t;
    }
    return nullptr;
}

void
SchedulerEngine::setResilience(const ResilienceOptions &options)
{
    resilience_ = options;
    injector_.reset();
    if (options.faults != nullptr && !options.faults->empty()) {
        const std::uint64_t seed = options.faultSeed != 0
                                       ? options.faultSeed
                                       : options.faults->seed();
        injector_ =
            std::make_unique<FaultInjector>(*options.faults, seed);
    }
}

void
SchedulerEngine::setAttribution(AttributionCollector *attribution)
{
    attribution_ = attribution;
    core_.hbm().setContentionObserver(attribution);
    if (attribution == nullptr)
        return;
    for (const auto &t : tenants_) {
        if (attribution->tenantCount() <= t.id)
            (void)attribution->addTenant(t.id, t.wl->label());
    }
}

void
SchedulerEngine::pumpDma(Tenant &tenant)
{
    if (tenant.quarantined)
        return;
    if (tenant.dmaInFlight ||
        tenant.dmaStaged >=
            tenant.execCursor + core_.config().dmaPrefetchDepth)
        return;
    const TensorOperator &op = tenant.wl->trace().ops[tenant.dmaPos];
    const auto bytes = static_cast<Bytes>(
        static_cast<double>(op.dmaBytes) * dmaInflation(op));
    tenant.dmaInFlight = true;
    FaultInjector::DmaDecision decision;
    if (injector_)
        decision = injector_->onDmaStart(tenant.id, sim_.now());
    issueDma(tenant, bytes, decision);
}

void
SchedulerEngine::issueDma(Tenant &tenant, Bytes bytes,
                          const FaultInjector::DmaDecision &decision)
{
    const auto inflated = static_cast<Bytes>(
        static_cast<double>(bytes) * decision.inflate);
    if (decision.stallCycles > 0) {
        const bool hang = decision.hang;
        sim_.after(decision.stallCycles,
                   [this, &tenant, inflated, hang] {
                       if (!tenant.quarantined)
                           startDmaTransfer(tenant, inflated, hang);
                   });
        return;
    }
    startDmaTransfer(tenant, inflated, decision.hang);
}

void
SchedulerEngine::startDmaTransfer(Tenant &tenant, Bytes bytes,
                                  bool hang)
{
    if (hang) {
        // The transfer wedges in the HBM subsystem; no completion
        // will arrive. Arm the retry timeout with exponential
        // backoff so the run keeps making forward progress.
        Cycles period = resilience_.dmaTimeoutCycles > 0
                            ? resilience_.dmaTimeoutCycles
                            : kDefaultDmaTimeout;
        period <<= std::min<std::uint32_t>(tenant.dmaRetries, 16);
        tenant.dmaTimeout = sim_.after(period, [this, &tenant, bytes] {
            onDmaTimeout(tenant, bytes);
        });
        return;
    }
    tenant.dma = core_.hbm().startTransfer(
        bytes, tenant.id, [this, &tenant] {
            tenant.dma = 0;
            tenant.dmaRetries = 0;
            onDmaDone(tenant);
        });
}

void
SchedulerEngine::onDmaTimeout(Tenant &tenant, Bytes bytes)
{
    tenant.dmaTimeout = kNoEvent;
    if (tenant.quarantined || stopping_)
        return;
    ++tenant.dmaRetries;
    ++dma_retries_total_;
    if (flight_ != nullptr)
        flight_->record(sim_.now(), "dma-retry", tenant.wl->label(),
                        0,
                        "attempt " +
                            std::to_string(tenant.dmaRetries));
    injector_->record("dma-retry", tenant.id, sim_.now(),
                      "timed-out transfer reissued (attempt " +
                          std::to_string(tenant.dmaRetries) + ")");
    if (tenant.dmaRetries > resilience_.maxDmaRetries) {
        strike(tenant, "DMA retries exhausted");
        // Force-complete so the operator pipeline keeps moving even
        // if the quarantine threshold has not tripped yet.
        tenant.dmaRetries = 0;
        onDmaDone(tenant);
        return;
    }
    // Reissue; the retry draws fresh fault decisions and may stall,
    // droop, or hang again.
    const FaultInjector::DmaDecision decision =
        injector_->onDmaStart(tenant.id, sim_.now());
    issueDma(tenant, bytes, decision);
}

void
SchedulerEngine::onDmaDone(Tenant &tenant)
{
    ++progress_marks_;
    tenant.dmaInFlight = false;
    ++tenant.dmaStaged;
    if (++tenant.dmaPos == tenant.wl->trace().ops.size())
        tenant.dmaPos = 0;
    pumpDma(tenant);
    maybeBecomeReady(tenant);
}

void
SchedulerEngine::strike(Tenant &tenant, const char *reason)
{
    ++tenant.strikes;
    if (injector_)
        injector_->record("strike", tenant.id, sim_.now(), reason);
    if (flight_ != nullptr)
        flight_->record(sim_.now(), "fault", tenant.wl->label(), 0,
                        reason);
    if (resilience_.quarantineThreshold == 0 || tenant.quarantined)
        return;
    if (tenant.strikes >= resilience_.quarantineThreshold)
        quarantineTenant(tenant, reason);
}

void
SchedulerEngine::quarantineTenant(Tenant &tenant,
                                  const std::string &why)
{
    tenant.quarantined = true;
    tenant.ready = false;
    if (tenant.dmaTimeout != kNoEvent) {
        sim_.cancel(tenant.dmaTimeout);
        tenant.dmaTimeout = kNoEvent;
    }
    if (tenant.dma != 0) {
        core_.hbm().cancel(tenant.dma);
        tenant.dma = 0;
    }
    tenant.dmaInFlight = false;
    tenant.arrivalQueue.clear();
    warn(name(), ": tenant ", tenant.wl->label(),
         " quarantined after ", tenant.strikes, " faults (", why,
         ")");
    if (injector_)
        injector_->record("quarantine", tenant.id, sim_.now(), why);
    if (flight_ != nullptr)
        flight_->record(sim_.now(), "quarantine", tenant.wl->label(),
                        0, why);

    bool all = true;
    for (const auto &t : tenants_)
        all = all && t.quarantined;
    if (all) {
        abortRun("every tenant quarantined");
        return;
    }
    // The survivors may already have met the warmup/stop gates that
    // this tenant was holding open.
    checkProgressGates();
}

void
SchedulerEngine::scheduleArrival(Tenant &tenant)
{
    if (tenant.arrivalRps <= 0.0 || stopping_ || tenant.quarantined)
        return;
    const double mean_cycles =
        core_.config().freqGHz * 1e9 / tenant.arrivalRps;
    const Cycles delta = std::max<Cycles>(
        1, static_cast<Cycles>(rng_.exponential(mean_cycles)));
    sim_.after(delta, [this, &tenant] {
        if (tenant.quarantined)
            return;
        tenant.arrivalQueue.push_back(sim_.now());
        if (injector_) {
            const std::uint64_t burst =
                injector_->floodBurst(tenant.id, sim_.now());
            if (burst > 0) {
                for (std::uint64_t i = 0; i < burst; ++i)
                    tenant.arrivalQueue.push_back(sim_.now());
                strike(tenant, "trace flood");
                if (tenant.quarantined)
                    return;
            }
        }
        scheduleArrival(tenant);
        maybeBecomeReady(tenant);
    });
}

void
SchedulerEngine::maybeBecomeReady(Tenant &tenant)
{
    if (tenant.running || tenant.ready || tenant.quarantined)
        return;
    if (tenant.dmaStaged <= tenant.execCursor)
        return; // still waiting on the prefetch DMA
    // Open loop: a fresh request may only start once it has arrived.
    if (tenant.arrivalRps > 0.0 && tenant.opIndex == 0 &&
        !tenant.opPreempted && tenant.arrivalQueue.empty())
        return;
    const Cycles now = sim_.now();
    if (now < tenant.gapUntil) {
        // Dispatch gap still draining; wake up when it ends.
        if (!tenant.gapEventPending) {
            tenant.gapEventPending = true;
            sim_.at(tenant.gapUntil, [this, &tenant] {
                tenant.gapEventPending = false;
                maybeBecomeReady(tenant);
            });
        }
        return;
    }
    tenant.ready = true;
    onTenantReady(tenant);
}

void
SchedulerEngine::dispatch(Tenant &tenant, FunctionalUnit &fu,
                          Cycles ctxPenalty)
{
    if (tenant.running)
        panic("dispatch: tenant ", tenant.wl->label(),
              " already running");
    if (fu.busy())
        panic("dispatch: ", fu.name(), " is busy");
    const TensorOperator &op = currentOp(tenant);
    const bool kind_matches =
        (op.kind == OpKind::SA) ==
        (fu.kind() == FunctionalUnit::Kind::SA);
    if (!kind_matches)
        panic("dispatch: op kind mismatch on ", fu.name());

    Cycles compute =
        tenant.opPreempted ? tenant.opRemaining : op.computeCycles;
    if (injector_ && !tenant.opPreempted) {
        // Runaway operator: the tenant burns a multiple of its
        // declared compute. Tenant-attributable -> strike.
        const double factor =
            injector_->runawayFactor(tenant.id, sim_.now());
        if (factor > 1.0) {
            compute = std::max<Cycles>(
                1, static_cast<Cycles>(
                       static_cast<double>(compute) * factor));
            strike(tenant, "runaway operator");
        }
    }

    tenant.running = true;
    tenant.ready = false;
    tenant.fu = &fu;
    tenant.lastDispatch = sim_.now();
    if (measuring_)
        tenant.ctxOverheadCycles += ctxPenalty;

    const std::size_t fi = fuIndex(fu);
    fu_last_preempted_[fi] = false;

    if (attribution_ != nullptr) {
        // The tenant taking an evicted-from FU is the perpetrator of
        // the victim's stall; a victim's stall closes at its own next
        // dispatch (on any unit). Purely passive bookkeeping.
        const WorkloadId victim = fu_last_victim_[fi];
        if (victim != kNoWorkload && victim != tenant.id &&
            tenants_[victim].stallPending)
            tenants_[victim].stallPerp = tenant.id;
        fu_last_victim_[fi] = kNoWorkload;
        if (tenant.stallPending) {
            attribution_->chargePreemptStall(
                tenant.id, tenant.stallPerp,
                static_cast<double>(sim_.now() - tenant.stallStart));
            tenant.stallPending = false;
            tenant.stallPerp = kNoWorkload;
        }
        if (ctxPenalty > 0)
            attribution_->chargeCtxOverhead(
                tenant.id, static_cast<double>(ctxPenalty));
    }

    if (timeline_)
        timeline_->opBegin(sim_.now(), fu.name(),
                           tenant.wl->label(), op.name, ctxPenalty);

    fu.begin(tenant.id, op.id, compute, ctxPenalty,
             [this, &tenant](FunctionalUnit &unit) {
                 onFuComplete(unit, tenant);
             });
}

SchedulerEngine::Tenant &
SchedulerEngine::preemptFu(FunctionalUnit &fu)
{
    Tenant *tenant = tenantOn(fu);
    if (tenant == nullptr)
        panic("preemptFu: nothing running on ", fu.name());

    if (timeline_)
        timeline_->opEnd(sim_.now(), fu.name(), true);

    const Cycles remaining = fu.preempt();
    ++progress_marks_;
    tenant->activeCycles += sim_.now() - tenant->lastDispatch;
    tenant->opRemaining = std::max<Cycles>(remaining, 1);
    if (injector_ && fu.kind() == FunctionalUnit::Kind::SA &&
        injector_->corruptSaContext(tenant->id, sim_.now())) {
        // The context save is unusable: replay the operator from
        // scratch. The tenant is a victim here — no strike.
        tenant->opRemaining = currentOp(*tenant).computeCycles;
        ++sa_replays_;
    }
    tenant->opPreempted = true;
    tenant->running = false;
    tenant->fu = nullptr;
    tenant->ready = true; // operator is staged; re-dispatchable
    ++lifetime_preemptions_;
    if (measuring_)
        ++tenant->preemptions;
    const std::size_t fi = fuIndex(fu);
    fu_last_preempted_[fi] = true;
    if (attribution_ != nullptr) {
        tenant->stallPending = true;
        tenant->stallStart = sim_.now();
        tenant->stallPerp = kNoWorkload;
        fu_last_victim_[fi] = tenant->id;
    }
    if (flight_ != nullptr)
        flight_->record(sim_.now(), "preempt", tenant->wl->label(),
                        0, fu.name());
    return *tenant;
}

void
SchedulerEngine::onFuComplete(FunctionalUnit &fu, Tenant &tenant)
{
    if (timeline_)
        timeline_->opEnd(sim_.now(), fu.name(), false);
    ++progress_marks_;
    tenant.activeCycles += sim_.now() - tenant.lastDispatch;
    tenant.running = false;
    tenant.fu = nullptr;
    tenant.opPreempted = false;
    tenant.opRemaining = 0;
    if (measuring_)
        tenant.doneFlops += currentOp(tenant).flops;

    if (tenant.quarantined) {
        // Drain semantics: the in-flight operator finishes, the
        // tenant does not advance, and the freed unit goes back to
        // the healthy tenants via the subclass hook.
        onOpComplete(tenant, fu);
        return;
    }
    advancePastCurrentOp(tenant);
    onOpComplete(tenant, fu);
}

void
SchedulerEngine::advancePastCurrentOp(Tenant &tenant)
{
    // The completed operator's dispatch gap gates the next one.
    tenant.gapUntil =
        sim_.now() + currentOp(tenant).gapCycles;
    ++tenant.execCursor;
    std::size_t next = tenant.opIndex + 1;
    if (next == tenant.wl->trace().ops.size()) {
        next = 0;
        // Request boundary: closed-loop replay, or (open loop) the
        // completion of a queued arrival.
        ++tenant.requestsDone;
        Cycles request_start = tenant.requestStart;
        if (tenant.arrivalRps > 0.0) {
            if (tenant.arrivalQueue.empty())
                panic("advancePastCurrentOp: open-loop request "
                      "completed without an arrival");
            request_start = tenant.arrivalQueue.front();
            tenant.arrivalQueue.pop_front();
            // Warmup reset clamps latency to the window start.
            request_start = std::max(request_start, window_start_);
        }
        if (measuring_) {
            ++tenant.windowRequests;
            if (tenant.skipNextLatency)
                tenant.skipNextLatency = false;
            else
                latency_.record(tenant.id,
                                sim_.now() - request_start);
        }
        if (tracer_ != nullptr || flight_ != nullptr) {
            // Passive request span: the ID is a pure function of
            // (engine seed, tenant, request sequence), so traces are
            // reproducible per seed. Service starts when the previous
            // request finished (or at arrival, whichever is later).
            const std::uint64_t seq = tenant.requestsDone - 1;
            const std::uint64_t traceId =
                traceIdFor(seed_, tenant.id, seq);
            if (tracer_ != nullptr &&
                tracer_->sampler().sampled(traceId)) {
                const double cyclesPerUs =
                    core_.config().freqGHz * 1e3;
                RequestSpan span;
                span.ctx = TraceContext{traceId, tenant.id, seq};
                span.tenant = tenant.wl->label();
                span.arrivalUs =
                    static_cast<double>(request_start) / cyclesPerUs;
                span.startUs = std::max(
                    span.arrivalUs,
                    static_cast<double>(tenant.requestStart) /
                        cyclesPerUs);
                span.endUs =
                    static_cast<double>(sim_.now()) / cyclesPerUs;
                span.soloUs = span.serviceUs();
                tracer_->add(std::move(span));
            }
            if (flight_ != nullptr)
                flight_->record(sim_.now(), "request",
                                tenant.wl->label(), traceId,
                                "request " + std::to_string(seq) +
                                    " completed");
        }
        checkProgressGates();
        tenant.requestStart = sim_.now();
    }
    tenant.opIndex = next;
    tenant.ready = false;
    pumpDma(tenant);
    maybeBecomeReady(tenant);
}

void
SchedulerEngine::resetMeasurement()
{
    measuring_ = true;
    window_start_ = sim_.now();
    core_.resetStats();
    core_.hbm().markWindow();
    overlap_.startWindow();
    latency_.reset();

    // In-flight operators will credit their full compute at
    // completion; remember the pre-window part so the window's
    // busy-cycle accounting stays exact.
    window_debts_.clear();
    for (auto *fu : fu_index_) {
        if (!fu->busy())
            continue;
        const Cycles done = fu->inflightComputeDone();
        if (done == 0)
            continue;
        WindowDebt debt;
        debt.workload = fu->workload();
        debt.cycles = done;
        debt.isSa = fu->kind() == FunctionalUnit::Kind::SA;
        const Tenant *t = tenantOn(*fu);
        if (t != nullptr && fu->inflightComputeTotal() > 0)
            debt.flops =
                currentOp(*t).flops * static_cast<double>(done) /
                static_cast<double>(fu->inflightComputeTotal());
        window_debts_.push_back(debt);
    }

    for (auto &t : tenants_) {
        t.preemptions = 0;
        t.ctxOverheadCycles = 0;
        t.doneFlops = 0.0;
        t.windowRequests = 0;
        // A request in progress spans the boundary; its truncated
        // latency would bias the samples, so it is not recorded.
        if (t.requestStart < window_start_) {
            t.skipNextLatency = true;
            t.requestStart = window_start_;
        }
    }
}

void
SchedulerEngine::checkProgressGates()
{
    // Quarantined tenants no longer complete requests; counting them
    // would hold the gates open forever (the survivors' run must end
    // normally). quarantineTenant() re-evaluates the gates, so a
    // tenant leaving the pool cannot strand a finished run.
    if (!measuring_) {
        bool all = true;
        for (const auto &t : tenants_)
            all = all &&
                  (t.quarantined ||
                   t.requestsDone >= warmup_requests_);
        if (all)
            resetMeasurement();
        return;
    }
    if (stopping_)
        return;
    bool all = true;
    for (const auto &t : tenants_)
        all = all && (t.quarantined ||
                      t.windowRequests >= stop_requests_);
    if (all)
        stopping_ = true;
}

void
SchedulerEngine::armWatchdog()
{
    const Cycles interval = resilience_.watchdogInterval > 0
                                ? resilience_.watchdogInterval
                                : kDefaultWatchdogInterval;
    watchdog_last_marks_ = progress_marks_;
    sim_.after(interval, [this] { onWatchdogTick(); });
}

void
SchedulerEngine::onWatchdogTick()
{
    if (stopping_ || aborted_)
        return;
    if (resilience_.cycleBudget > 0 &&
        sim_.now() - run_start_ >= resilience_.cycleBudget) {
        abortRun("cycle budget exceeded (" +
                 std::to_string(sim_.now() - run_start_) + " of " +
                 std::to_string(resilience_.cycleBudget) +
                 " cycles)");
        return;
    }
    bool inflight = false;
    for (auto *fu : fu_index_)
        inflight = inflight || fu->busy();
    for (const auto &t : tenants_)
        inflight =
            inflight || t.dmaInFlight || t.gapEventPending;
    if (progress_marks_ == watchdog_last_marks_ && !inflight) {
        abortRun("no forward progress in the last watchdog period "
                 "(no DMA or operator retired, nothing in flight)");
        return;
    }
    armWatchdog();
}

void
SchedulerEngine::abortRun(const std::string &reason)
{
    if (aborted_)
        return;
    aborted_ = true;
    abort_reason_ = reason;
    stopping_ = true;
    warn(name(), ": run aborted — ", reason);
    if (injector_)
        injector_->record("abort", kNoWorkload, sim_.now(), reason);
    if (flight_ != nullptr)
        flight_->record(sim_.now(), "abort", "", 0, reason);
}

void
SchedulerEngine::chargeCtxOverhead(Tenant &tenant, Cycles cycles)
{
    if (measuring_)
        tenant.ctxOverheadCycles += cycles;
}

void
SchedulerEngine::countPreemption(Tenant &tenant)
{
    ++lifetime_preemptions_;
    if (measuring_)
        ++tenant.preemptions;
}

SchedulerEngine::WindowTotals
SchedulerEngine::windowTotals() const
{
    WindowTotals totals;
    for (auto &sa : core_.sas())
        totals.saBusyCycles += sa->busyComputeCycles();
    for (auto &vu : core_.vus())
        totals.vuBusyCycles += vu->busyComputeCycles();
    for (const auto &t : tenants_) {
        totals.preemptions += t.preemptions;
        totals.ctxOverheadCycles += t.ctxOverheadCycles;
        totals.requests += t.windowRequests;
        totals.quarantinedTenants += t.quarantined ? 1 : 0;
        totals.flops += t.doneFlops;
    }
    // Settle the pre-window compute of operators that straddled the
    // measurement boundary (credited in full at completion).
    double flops_debt = 0.0;
    for (const WindowDebt &debt : window_debts_) {
        Cycles &bucket =
            debt.isSa ? totals.saBusyCycles : totals.vuBusyCycles;
        bucket -= std::min(bucket, debt.cycles);
        flops_debt += debt.flops;
    }
    totals.flops = std::max(0.0, totals.flops - flops_debt);
    totals.windowCycles = sim_.now() - window_start_;
    totals.faultsInjected = injector_ ? injector_->injectedCount() : 0;
    totals.dmaRetries = dma_retries_total_;
    totals.saReplays = sa_replays_;
    return totals;
}

void
SchedulerEngine::registerStats()
{
    if (stats_ == nullptr || stats_registered_)
        return;
    stats_registered_ = true;
    StatRegistry &reg = *stats_;

    for (auto &sa : core_.sas())
        sa->registerStats(reg, "core");
    for (auto &vu : core_.vus())
        vu->registerStats(reg, "core");
    core_.hbm().registerStats(reg, "core.hbm");
    core_.vmem().registerStats(reg, "core.vmem");

    // The whole-run totals are the ones collectStats() reads.
    static const struct
    {
        const char *path;
        std::uint64_t WindowTotals::*field;
        const char *desc;
    } kTotals[] = {
        {"sched.sa_busy_cycles", &WindowTotals::saBusyCycles,
         "SA useful compute cycles in the measured window"},
        {"sched.vu_busy_cycles", &WindowTotals::vuBusyCycles,
         "VU useful compute cycles in the measured window"},
        {"sched.window_cycles", &WindowTotals::windowCycles,
         "measured window length"},
        {"sched.preemptions", &WindowTotals::preemptions,
         "preemptions in the measured window"},
        {"sched.ctx_overhead_cycles", &WindowTotals::ctxOverheadCycles,
         "context-switch cycles charged in the measured window"},
        {"sched.requests", &WindowTotals::requests,
         "requests completed in the measured window"},
        {"sched.faults_injected", &WindowTotals::faultsInjected,
         "faults injected by the fault plan"},
        {"sched.dma_retries", &WindowTotals::dmaRetries,
         "timed-out DMA transfers reissued"},
        {"sched.sa_replays", &WindowTotals::saReplays,
         "operators replayed after context-save corruption"},
        {"sched.quarantined_tenants", &WindowTotals::quarantinedTenants,
         "tenants quarantined by the degradation policy"},
    };
    for (const auto &total : kTotals) {
        reg.addFormula(
            total.path,
            [this, field = total.field] {
                return static_cast<double>(windowTotals().*field);
            },
            total.desc);
    }

    for (const Tenant &tenant : tenants_) {
        const Tenant *t = &tenant;
        const std::string base =
            "sched.tenant" + std::to_string(t->id);
        reg.addFormula(
            base + ".requests",
            [t] { return static_cast<double>(t->windowRequests); },
            "measured requests of " + t->wl->label());
        reg.addFormula(
            base + ".preemptions",
            [t] { return static_cast<double>(t->preemptions); },
            "measured preemptions of " + t->wl->label());
        reg.addFormula(
            base + ".ctx_overhead_cycles",
            [t] { return static_cast<double>(t->ctxOverheadCycles); },
            "context-switch cycles of " + t->wl->label());
        reg.addFormula(
            base + ".active_cycles",
            [t] { return static_cast<double>(t->activeCycles); },
            "FU occupancy cycles of " + t->wl->label());
        reg.addFormula(
            base + ".fault_strikes",
            [t] { return static_cast<double>(t->strikes); },
            "tenant-attributable faults of " + t->wl->label());
    }

    if (attribution_ != nullptr)
        attribution_->registerStats(reg);

    onRegisterStats(reg);
}

void
SchedulerEngine::registerDefaultProbes()
{
    if (sampler_ == nullptr || sampler_->probeCount() > 0)
        return;
    const double num_sa = core_.config().numSa;
    const double num_vu = core_.config().numVu;
    // Rate probes read monotonic live accumulators; the sampler
    // differences them per interval, yielding utilizations in [0,1].
    sampler_->addProbe("sa_util", IntervalSampler::Mode::Rate,
                       [this, num_sa] {
                           Cycles busy = 0;
                           for (auto &sa : core_.sas())
                               busy += sa->liveBusyComputeCycles();
                           return static_cast<double>(busy) / num_sa;
                       });
    sampler_->addProbe("vu_util", IntervalSampler::Mode::Rate,
                       [this, num_vu] {
                           Cycles busy = 0;
                           for (auto &vu : core_.vus())
                               busy += vu->liveBusyComputeCycles();
                           return static_cast<double>(busy) / num_vu;
                       });
    // Read-only by contract: bytesMoved() without advance(); bytes
    // of still-flowing streams land at the next membership change.
    sampler_->addProbe("hbm_util", IntervalSampler::Mode::Rate,
                       [this] {
                           return core_.hbm().bytesMoved() /
                                  core_.hbm().peakBytesPerCycle();
                       });
    sampler_->addProbe("ready_tenants", IntervalSampler::Mode::Level,
                       [this] {
                           std::size_t n = 0;
                           for (const auto &t : tenants_)
                               n += t.ready;
                           return static_cast<double>(n);
                       });
    sampler_->addProbe("running_tenants",
                       IntervalSampler::Mode::Level, [this] {
                           std::size_t n = 0;
                           for (const auto &t : tenants_)
                               n += t.running;
                           return static_cast<double>(n);
                       });
    sampler_->addProbe("preemptions", IntervalSampler::Mode::Delta,
                       [this] {
                           return static_cast<double>(
                               lifetime_preemptions_);
                       });
}

RunStats
SchedulerEngine::run(std::uint64_t targetRequests,
                     std::uint64_t warmupRequests)
{
    if (targetRequests == 0)
        V10_PANIC("SchedulerEngine::run: need targetRequests > 0");
    warmup_requests_ = warmupRequests;
    stop_requests_ = targetRequests;
    stopping_ = false;
    measuring_ = false;
    aborted_ = false;
    abort_reason_.clear();
    run_start_ = sim_.now();
    window_start_ = sim_.now();

    for (auto &t : tenants_) {
        t.arrivalCycle = sim_.now();
        t.requestStart = sim_.now();
        pumpDma(t);
        scheduleArrival(t);
    }
    if (warmup_requests_ == 0)
        resetMeasurement();

    registerStats();
    if (sampler_ != nullptr) {
        registerDefaultProbes();
        sampler_->start(sim_);
    }

    onStart();
    if (resilience_.watchdogInterval > 0 ||
        resilience_.cycleBudget > 0)
        armWatchdog();

    // Simulator::run returns Cycles, not a Status; the name merely
    // collides with Result-returning run() APIs collected repo-wide.
    // v10lint: allow(error-discarded-result)
    sim_.run([this] { return stopping_; });

    if (!stopping_) {
        if (resilience_.enabled())
            // Degradation on: a wedged run aborts gracefully with a
            // diagnosable RunStats instead of killing the process.
            abortRun("event queue drained before every tenant "
                     "finished — simulation wedged");
        else
            panic("SchedulerEngine::run: event queue drained before "
                  "all tenants finished — scheduler deadlock");
    }

    // Flush in-flight operators so their partial compute lands in
    // the per-FU accumulators (not counted as preemptions).
    for (auto *fu : fu_index_) {
        if (fu->busy()) {
            Tenant *t = tenantOn(*fu);
            fu->preempt();
            if (t != nullptr) {
                t->activeCycles += sim_.now() - t->lastDispatch;
                t->running = false;
                t->fu = nullptr;
            }
        }
    }
    overlap_.finish();
    if (timeline_)
        timeline_->finish(sim_.now());
    if (sampler_ != nullptr)
        sampler_->stop();
    if (attribution_ != nullptr) {
        // Close stalls still open at run end so the attribution
        // matrices account for every observed stall cycle.
        for (auto &t : tenants_) {
            if (!t.stallPending)
                continue;
            attribution_->chargePreemptStall(
                t.id, t.stallPerp,
                static_cast<double>(sim_.now() - t.stallStart));
            t.stallPending = false;
            t.stallPerp = kNoWorkload;
        }
    }

    RunStats stats = collectStats();
    // Settle every live formula now, while the engine and core are
    // guaranteed alive; the registry then outlives the run.
    if (stats_ != nullptr)
        stats_->freeze();
    if (aborted_ && !resilience_.diagnosticDir.empty())
        writeDiagnostics();
    return stats;
}

void
SchedulerEngine::writeDiagnostics() const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(resilience_.diagnosticDir, ec);
    if (ec) {
        warn("cannot create diagnostic dir '",
             resilience_.diagnosticDir, "': ", ec.message());
        return;
    }
    const fs::path path =
        fs::path(resilience_.diagnosticDir) / "diagnostics.json";
    std::ofstream os(path);
    if (!os) {
        warn("cannot open diagnostic bundle '", path.string(), "'");
        return;
    }
    JsonWriter w(os);
    w.beginObject();
    w.kv("scheduler", name());
    w.kv("reason", abort_reason_);
    w.kv("cycle", sim_.now());
    w.kv("events_run", sim_.eventsRun());
    w.kv("faults_injected",
         injector_ ? injector_->injectedCount()
                   : std::uint64_t{0});
    w.kv("dma_retries", dma_retries_total_);
    w.kv("sa_replays", sa_replays_);
    w.key("tenants");
    w.beginArray();
    for (const auto &t : tenants_) {
        w.beginObject();
        w.kv("label", t.wl->label());
        w.kv("requests_done", t.requestsDone);
        w.kv("window_requests", t.windowRequests);
        w.kv("exec_cursor", t.execCursor);
        w.kv("op_index", static_cast<std::uint64_t>(t.opIndex));
        w.kv("ready", t.ready);
        w.kv("running", t.running);
        w.kv("dma_in_flight", t.dmaInFlight);
        w.kv("quarantined", t.quarantined);
        w.kv("strikes", static_cast<std::uint64_t>(t.strikes));
        w.endObject();
    }
    w.endArray();
    w.key("fault_log");
    if (injector_) {
        injector_->writeLogJson(w);
    } else {
        w.beginArray();
        w.endArray();
    }
    // The flight recorder's last-K event ring: what happened right
    // before the abort, without re-running the scenario.
    w.key("flight_recorder");
    if (flight_ != nullptr)
        flight_->writeJson(w);
    else
        w.valueNull();
    // The frozen registry: every hardware and scheduler statistic at
    // abort time (the observability layer's view).
    w.key("registry");
    w.beginObject();
    if (stats_ != nullptr) {
        for (const auto &[stat_path, value] : stats_->snapshot())
            w.kv(stat_path, value);
    }
    w.endObject();
    w.endObject();
    os << '\n';
    warn("diagnostic bundle written to ", path.string());
}

RunStats
SchedulerEngine::collectStats()
{
    const NpuConfig &cfg = core_.config();
    const WindowTotals totals = windowTotals();
    RunStats stats;
    stats.windowCycles = totals.windowCycles;
    stats.windowSeconds = cfg.cyclesToSeconds(stats.windowCycles);
    stats.aborted = aborted_;
    stats.abortReason = abort_reason_;
    stats.faultsInjected = totals.faultsInjected;
    stats.dmaRetries = totals.dmaRetries;
    stats.saReplays = totals.saReplays;
    stats.quarantinedTenants =
        static_cast<std::uint32_t>(totals.quarantinedTenants);
    const auto window = static_cast<double>(stats.windowCycles);
    if (stats.windowCycles == 0)
        return stats;

    const auto sa_busy = static_cast<double>(totals.saBusyCycles);
    const auto vu_busy = static_cast<double>(totals.vuBusyCycles);
    stats.saUtil = sa_busy / (window * cfg.numSa);
    stats.vuUtil = vu_busy / (window * cfg.numVu);
    stats.combinedUtil =
        (sa_busy + vu_busy) / (window * (cfg.numSa + cfg.numVu));
    stats.hbmUtil = core_.hbm().utilization(window_start_);

    stats.overlapBothFrac =
        overlap_.bucketFrac(OverlapTracker::Bucket::Both);
    stats.saOnlyFrac =
        overlap_.bucketFrac(OverlapTracker::Bucket::SaOnly);
    stats.vuOnlyFrac =
        overlap_.bucketFrac(OverlapTracker::Bucket::VuOnly);
    stats.idleFrac =
        overlap_.bucketFrac(OverlapTracker::Bucket::Idle);

    for (auto &t : tenants_) {
        WorkloadRunStats ws;
        ws.label = t.wl->label();
        ws.requests = t.windowRequests;
        ws.avgLatencyUs = cfg.cyclesToUs(
            static_cast<Cycles>(latency_.meanCycles(t.id)));
        ws.p95LatencyUs = cfg.cyclesToUs(
            static_cast<Cycles>(latency_.p95Cycles(t.id)));
        ws.requestsPerSec =
            static_cast<double>(ws.requests) / stats.windowSeconds;
        for (auto &sa : core_.sas())
            ws.saComputeCycles += sa->busyComputeFor(t.id);
        for (auto &vu : core_.vus())
            ws.vuComputeCycles += vu->busyComputeFor(t.id);
        for (const WindowDebt &debt : window_debts_) {
            if (debt.workload != t.id)
                continue;
            Cycles &bucket = debt.isSa ? ws.saComputeCycles
                                       : ws.vuComputeCycles;
            bucket -= std::min(bucket, debt.cycles);
        }
        ws.saUtil = static_cast<double>(ws.saComputeCycles) /
                    (window * cfg.numSa);
        ws.vuUtil = static_cast<double>(ws.vuComputeCycles) /
                    (window * cfg.numVu);
        ws.overheadCycles = t.ctxOverheadCycles;
        ws.preemptions = t.preemptions;
        ws.quarantined = t.quarantined;
        ws.faultStrikes = t.strikes;
        ws.ctxOverheadFrac =
            ws.requests == 0
                ? 0.0
                : static_cast<double>(t.ctxOverheadCycles) /
                      (static_cast<double>(ws.requests) *
                       static_cast<double>(t.wl->computeCycles()));
        stats.workloads.push_back(std::move(ws));
    }
    stats.flopsUtil =
        totals.flops / (window * cfg.peakFlopsPerCycle());
    return stats;
}

} // namespace v10
