#include "serve/core_sim.h"

#include <algorithm>
#include <limits>

#include "common/log.h"
#include "serve/cluster_manager.h"

namespace v10 {

void
CoreSim::addResident(std::uint32_t tenant)
{
    residents.insert(
        std::lower_bound(residents.begin(), residents.end(), tenant),
        tenant);
}

void
CoreSim::removeResident(std::uint32_t tenant)
{
    const auto it =
        std::lower_bound(residents.begin(), residents.end(), tenant);
    if (it == residents.end() || *it != tenant)
        V10_PANIC("CoreSim: tenant ", tenant, " not resident on core ",
                  index);
    residents.erase(it);
}

void
CoreSim::rebuildHeaps()
{
    arrivals_.clear();
    backlog_.clear();
    anyThrash_ = false;
    for (std::uint32_t t : residents) {
        const TenantFlow &f = flow(t);
        if (f.active &&
            f.nextArrival < std::numeric_limits<double>::infinity())
            arrivals_.push(f.nextArrival, t);
        if (f.queued() > 0)
            backlog_.push(f.vtime, t);
        if (f.stat != nullptr && !f.stat->thrash.empty())
            anyThrash_ = true;
    }
}

void
CoreSim::kickIdle(double now)
{
    if (busy)
        return;
    rebuildHeaps();
    startNext(now);
}

void
CoreSim::sampleTicksUpTo(double now)
{
    while (nextTick <= sampleTicks &&
           static_cast<double>(nextTick) * tickSec <= now) {
        depthSamples.push_back(static_cast<double>(waiting));
        inflightSamples.push_back(busy ? 1.0 : 0.0);
        ++nextTick;
    }
}

double
CoreSim::drawService(const TenantFlow &f, double now)
{
    // One draw at the tenant's mean, inflated by any live HBM-hog
    // windows. Exactly one RNG draw regardless of the inflation
    // factor, so draw sequences stay aligned.
    double mean = f.serviceMeanSec;
    if (f.stat != nullptr) {
        for (const AntagonistProfile &p : f.stat->hogs) {
            if (p.activeAt(now))
                mean *= p.effectiveMagnitude();
        }
    }
    switch (dist) {
      case ServiceDist::Deterministic: return mean;
      case ServiceDist::Exponential:
        return rng.exponential(mean);
      case ServiceDist::Lognormal:
        return rng.lognormal(mean, cv);
    }
    panic("CoreSim: bad service distribution");
}

void
CoreSim::startNext(double now)
{
    // The backlogged flow with the least virtual time (ties to the
    // lowest tenant index) goes into service.
    if (backlog_.empty())
        return;
    // The picked flow stays at the top of backlog_ until it is
    // re-keyed (or dropped, once drained) below.
    const std::uint32_t picked = backlog_.top().tenant;
    TenantFlow &f = flow(picked);
    servedTenant = f.tenant;
    const Waiting w = f.pop();
    servedArrival = w.timeSec;
    servedSeq = w.seq;
    --waiting;
    double service = drawService(f, now);
    // Preemption thrashing: a queued co-resident with a live
    // thrash window inflicts per-start overhead, charged to the
    // thrasher in the attribution matrix.
    for (std::size_t r = 0; anyThrash_ && r < residents.size(); ++r) {
        const TenantFlow &g = flow(residents[r]);
        if (g.tenant == picked || g.stat == nullptr ||
            g.stat->thrash.empty() || g.queued() == 0)
            continue;
        double frac = 0.0;
        for (const AntagonistProfile &p : g.stat->thrash) {
            if (p.activeAt(now))
                frac += p.effectiveMagnitude();
        }
        if (frac <= 0.0)
            continue;
        const double overhead = frac * f.serviceMeanSec;
        service += overhead;
        if (needCharges)
            charges.push_back(
                WaitCharge{f.tenant, g.tenant, overhead * 1e6});
    }
    vclock = std::max(vclock, f.vtime);
    f.vtime = vclock + service / f.weight;
    if (f.queued() > 0)
        backlog_.replaceTop(f.vtime);
    else
        backlog_.pop();
    busy = true;
    servedStart = now;
    busyUntil = now + service;
    busySec += service;
    servedSloTargetUs = f.sloTargetUs;
    servedSpeed = f.soloSpeed;
}

void
CoreSim::finish()
{
    const double latencyUs = (busyUntil - servedArrival) * 1e6;
    const double queueUs = (servedStart - servedArrival) * 1e6;
    const double serviceUs = (busyUntil - servedStart) * 1e6;
    // Solo-equivalent of this draw: the same work at the tenant's
    // calibrated solo rate.
    const double soloUs = serviceUs * servedSpeed;
    ++served;
    const double target = servedSloTargetUs;
    const bool violated = target > 0.0 && latencyUs > target;
    const CompletionRec rec{servedTenant, violated, latencyUs, queueUs,
                            serviceUs, soloUs, busyUntil};
    TenantFlow &owner = flow(servedTenant);
    // Unless another core completes this tenant this epoch, the host
    // core is the only writer of its results, and folding here keeps
    // the tenant's completions in time order.
    if (owner.foldSerially)
        completions.push_back(rec);
    else
        foldCompletion(rec, owner.acc, *monitor);
    if (needCharges) {
        // Head-of-line blocking: each co-resident flow whose head
        // request waited out this service accrues the service time,
        // charged to the tenant that held the server. Charging per
        // flow (not per queued request) keeps the perpetrator score
        // proportional to the blocker's server occupancy — a
        // flooder's deep self-inflicted queue must not inflate its
        // victims' columns. backlog_ holds exactly the queued flows;
        // its order does not matter (core_sim.h).
        for (const TenantHeap::Entry &e : backlog_.entries()) {
            if (e.tenant != servedTenant)
                charges.push_back(
                    WaitCharge{e.tenant, servedTenant, serviceUs});
        }
    }
    if (RequestSpan *span = sampledSpan(servedTenant, servedSeq,
                                        servedArrival, target)) {
        span->startUs = servedStart * 1e6;
        span->endUs = busyUntil * 1e6;
        span->soloUs = soloUs;
        span->violated = violated;
    }
    endSec = std::max(endSec, busyUntil);
    busy = false;
}

RequestSpan *
CoreSim::sampledSpan(std::uint32_t tenant, std::uint64_t seq,
                     double arrivalSec, double sloTargetUs)
{
    if (spanSampler.n == 0)
        return nullptr;
    const TraceContext ctx = TraceContext::make(traceSeed, tenant, seq);
    if (!spanSampler.sampled(ctx.traceId))
        return nullptr;
    RequestSpan &span = spans.emplace_back();
    span.ctx = ctx;
    span.core = index;
    span.arrivalUs = arrivalSec * 1e6;
    span.startUs = span.arrivalUs;
    span.endUs = span.arrivalUs;
    span.sloTargetUs = sloTargetUs;
    return &span;
}

void
CoreSim::runEpoch(double epochEnd, bool isFinal)
{
    const double bound =
        isFinal ? std::numeric_limits<double>::infinity() : epochEnd;
    rebuildHeaps();
    while (true) {
        const bool haveArrival =
            !arrivals_.empty() && arrivals_.top().key < bound;
        const double atTime = haveArrival ? arrivals_.top().key : 0.0;
        // Completions fire before arrivals carrying the same
        // timestamp: the server frees the slot first.
        if (busy && (!haveArrival || busyUntil <= atTime)) {
            if (!isFinal && busyUntil >= epochEnd)
                break; // lands on/after the boundary: defer
            const double now = busyUntil;
            advanceTime(now);
            finish();
            startNext(now);
            continue;
        }
        if (!haveArrival)
            break;
        const std::uint32_t t = arrivals_.top().tenant;
        TenantFlow &f = flow(t);
        const std::uint64_t seq = f.seq++;
        f.nextArrival = f.arrivals.next();
        if (f.nextArrival < std::numeric_limits<double>::infinity())
            arrivals_.replaceTop(f.nextArrival);
        else
            arrivals_.pop();
        ++f.offered;
        advanceTime(atTime);
        if (f.bucket != nullptr && !f.bucket->tryAdmit(atTime)) {
            ++f.rejected;
            if (RequestSpan *s = sampledSpan(t, seq, atTime, f.sloTargetUs))
                s->rejected = true;
        } else if (f.queued() >= queueCapacity) {
            ++f.shed; // bounded queue: load-shed
            if (RequestSpan *s = sampledSpan(t, seq, atTime, f.sloTargetUs))
                s->shed = true;
        } else {
            if (f.queued() == 0)
                backlog_.push(f.vtime, t); // empty -> backlogged
            f.push(Waiting{atTime, seq});
            ++waiting;
            depthPeak = std::max(depthPeak, static_cast<double>(waiting));
            if (!busy)
                startNext(atTime);
        }
    }
    if (!isFinal) {
        // Close the occupancy integrals at the boundary: the control
        // step may hand queues between cores.
        advanceTime(epochEnd);
        return;
    }
    // Close the integrals at the drain point and emit any remaining
    // (idle) ticks.
    advanceTime(endSec);
    while (sampleTicks > 0 && nextTick <= sampleTicks) {
        depthSamples.push_back(0.0);
        inflightSamples.push_back(0.0);
        ++nextTick;
    }
    // Every completion of a resident that folds in place has landed.
    // A split tenant still has completions in other cores' buffers:
    // the manager takes its figures after the serial fold.
    for (std::uint32_t t : residents) {
        TenantFlow &f = flow(t);
        if (!f.foldSerially)
            f.acc.takeLatencyFigures();
    }
}

} // namespace v10
