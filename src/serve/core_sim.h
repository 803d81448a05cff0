/**
 * @file
 * One serving core of the open-loop fleet (ClusterManager::run): a
 * single server draining bounded per-tenant FIFO queues under
 * self-clocked weighted fair queueing (SCFQ), advanced one control
 * epoch at a time.
 *
 * Each event costs O(log resident flows): a min-heap of the
 * residents' next arrivals keyed (time, tenant) replaces a scan for
 * the earliest arrival, and a min-heap of backlogged flows keyed
 * (virtual finish time, tenant) replaces a scan for the least
 * virtual time. Both keys break ties toward the lowest tenant index,
 * the order the earlier scans used. A tenant is at most once in each
 * heap, so (key, tenant) is a strict total order and any correct heap
 * pops the same sequence. The common step re-keys the top entry in
 * place (a drawn arrival, the served flow's new virtual time): one
 * hole-based sift down from the root, not a pop and a push.
 *
 * The backlog heap holds exactly the residents with a queue: it is
 * rebuilt from them at every epoch start and kickIdle, an arrival
 * pushes its flow when the queue goes from empty to one, and
 * startNext pops the flow once its queue drains. A completion's
 * head-of-line charges walk that heap, not every resident: one
 * charge per queued co-resident, in heap order. Each lands on a
 * different (victim, server) cell, and the blame matrix's cells and
 * victim lists are sorted inserts, so the order leaves every sum and
 * every output byte as the ascending walk left them.
 *
 * Memory is O(live requests): arrivals are drawn lazily, each queue
 * holds at most its capacity, and completions fold into their
 * tenant's accumulators inside the core's worker. A tenant's latency
 * histogram (about 18 octaves of 64 32-bit buckets for exponential
 * service, about 4.6 KB) lives only while the tenant can still
 * complete requests: the final epoch's drain takes the five figures
 * the report reads (mean, p50, p99, p999, max) and frees it, for
 * each resident whose completions fold in place; the manager does
 * the same for a split tenant after its serial fold. With a single
 * epoch, only the residents of the cores being simulated hold one.
 */

#ifndef V10_SERVE_CORE_SIM_H
#define V10_SERVE_CORE_SIM_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/stats.h"
#include "serve/admission.h"
#include "serve/antagonist.h"
#include "serve/arrival.h"
#include "trace/request_tracer.h"
#include "trace/slo_monitor.h"

namespace v10 {

/** Per-core service-time distribution (cluster_manager.h). */
enum class ServiceDist;

/** The latency figures of a tenant's report row. */
struct LatencyFigures
{
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double maxUs = 0.0;
};

/** Per-tenant results, filled by the completion fold. */
struct TenantAccum
{
    /** Every completion's latency. It lives until the tenant's last
     * completion has folded, at the drain of the final epoch; then
     * takeLatencyFigures() reads the report's figures out of it and
     * frees it. */
    LogHistogram latencyUs;
    LatencyFigures latency; ///< set by takeLatencyFigures()
    std::uint64_t completed = 0;
    std::uint64_t violations = 0;
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double soloUs = 0.0;

    /** Take the report's figures from latencyUs and free it: once,
     * after the tenant's last completion. */
    void
    takeLatencyFigures()
    {
        static constexpr double kPs[] = {50.0, 99.0, 99.9};
        double q[3];
        latencyUs.percentiles(kPs, q);
        latency = LatencyFigures{latencyUs.mean(), q[0], q[1], q[2],
                                 latencyUs.max()};
        latencyUs.reset();
    }
};

/** One completion, buffered only when its tenant's completions come
 * from two cores in one epoch (see TenantFlow::foldSerially). */
struct CompletionRec
{
    std::uint32_t tenant = 0; ///< global tenant index
    bool violated = false;
    double latencyUs = 0.0;
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double soloUs = 0.0;
    double endSec = 0.0; ///< completion time (SLO bucket key)
};

/** Add one completion to its tenant's results and SLO monitor row. */
inline void
foldCompletion(const CompletionRec &r, TenantAccum &a,
               SloMonitor &monitor)
{
    a.latencyUs.add(r.latencyUs);
    ++a.completed;
    if (r.violated)
        ++a.violations;
    a.queueUs += r.queueUs;
    a.serviceUs += r.serviceUs;
    a.soloUs += r.soloUs;
    monitor.addBucket(r.tenant, monitor.bucketIndex(r.endSec), 1,
                      r.violated ? 1 : 0);
}

/** One queue-wait / thrash-overhead attribution charge. */
struct WaitCharge
{
    std::uint32_t victim = 0;
    std::uint32_t perp = 0;
    double us = 0.0;
};

/** Static per-tenant antagonist context, shared by every core. */
struct TenantStatic
{
    std::vector<AntagonistProfile> hogs;   ///< HbmHog windows
    std::vector<AntagonistProfile> thrash; ///< Thrash windows
};

/** One waiting request: (arrival time, seq) FIFO entry. */
struct Waiting
{
    double timeSec = 0.0;
    std::uint64_t seq = 0;
};

/**
 * Min-heap of (key, tenant) entries with ties on the key broken
 * toward the lowest tenant index: the order of a scan over ascending
 * tenant indices that keeps the first strict minimum. A core keeps
 * two: next arrivals keyed by time (one entry per tenant, so a
 * tenant's own arrivals leave in sequence order) and backlogged
 * flows keyed by virtual finish time.
 */
class TenantHeap
{
  public:
    struct Entry
    {
        double key;
        std::uint32_t tenant;
    };

    bool empty() const { return heap_.empty(); }
    const Entry &top() const { return heap_.front(); }
    /** Every entry, in heap order (not sorted). */
    const std::vector<Entry> &entries() const { return heap_; }
    void clear() { heap_.clear(); }

    void
    push(double key, std::uint32_t tenant)
    {
        heap_.emplace_back();
        siftUp(heap_.size() - 1, Entry{key, tenant});
    }

    void
    pop()
    {
        const Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(last);
    }

    /** Re-key the top entry (same tenant) and restore the order: one
     * sift down from the root. */
    void
    replaceTop(double key)
    {
        siftDown(Entry{key, heap_.front().tenant});
    }

  private:
    /** The heap order (a function object, so it inlines). */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.key != b.key)
                return a.key > b.key;
            return a.tenant > b.tenant;
        }
    };

    /** Place @p e in the hole at @p i, moving parents down past it. */
    void
    siftUp(std::size_t i, const Entry &e)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!Later{}(heap_[parent], e))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Place @p e in the hole at the root, moving the earlier child
     * up past it. */
    void
    siftDown(const Entry &e)
    {
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        for (std::size_t child = 1; child < n; child = 2 * i + 1) {
            if (child + 1 < n && Later{}(heap_[child], heap_[child + 1]))
                ++child;
            if (!Later{}(e, heap_[child]))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = e;
    }

    std::vector<Entry> heap_;
};

/**
 * One tenant's live state. The flow is hosted by one core at a time
 * and moves between cores on migrate/isolate (queue handed over,
 * SCFQ virtual time reset); only its host core's worker touches it
 * during an epoch. An in-flight request finishes on the old core
 * from parameters captured at service start.
 */
struct V10_DOMAIN_LOCAL TenantFlow
{
    std::uint32_t tenant = 0; ///< global index (trace IDs)
    ArrivalFeed arrivals;
    double nextArrival = 0.0; ///< head of the feed (+inf: none left)
    std::uint64_t seq = 0;    ///< sequence number of nextArrival
    bool active = true;       ///< consuming arrivals (churn/evict)
    double serviceMeanSec = 0.0; ///< after the collocation speedup
    /** Solo-run seconds per second of service: the solo calibration
     * over serviceMeanSec (1 when serviceMeanSec is 0), set with it. */
    double soloSpeed = 1.0;
    double weight = 1.0;
    double sloTargetUs = 0.0;
    /** Admission gate bucket; nullptr = admit everything. */
    TokenBucket *bucket = nullptr;
    const TenantStatic *stat = nullptr;
    double vtime = 0.0; ///< SCFQ virtual finish time

    // --- whole-run counters and the completion fold ---------------
    std::uint64_t offered = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    TenantAccum acc;
    /** Set by the manager for an epoch in which a core other than
     * the host is still serving this tenant: every completion is
     * then buffered and folded serially in core-index order. */
    bool foldSerially = false;

    explicit TenantFlow(ArrivalFeed feed) : arrivals(std::move(feed))
    {
        nextArrival = arrivals.next();
    }

    std::size_t queued() const { return queue_.size() - head_; }

    void
    push(Waiting w)
    {
        queue_.push_back(w);
    }

    /** Take the head request. Compacts once the consumed prefix is
     * at least 32 entries and half the buffer, so the buffer stays
     * under twice the queue bound plus 32. */
    Waiting
    pop()
    {
        const Waiting w = queue_[head_++];
        if (head_ == queue_.size()) {
            queue_.clear();
            head_ = 0;
        } else if (head_ >= 32 && 2 * head_ >= queue_.size()) {
            queue_.erase(queue_.begin(),
                         queue_.begin() +
                             static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        return w;
    }

    /** Drop every waiting request (eviction). */
    void
    clearQueue()
    {
        queue_.clear();
        head_ = 0;
    }

  private:
    std::vector<Waiting> queue_;
    std::size_t head_ = 0;
};

/**
 * One core's persistent serving state. With a single epoch (no
 * resilience feature active) runEpoch() is the classic single-pass
 * simulation. Trace/observability inputs only *record*; service
 * draws and scheduling never depend on them.
 */
class V10_DOMAIN_LOCAL CoreSim
{
  public:
    // --- immutable run context -------------------------------------
    std::size_t index = 0;
    Rng rng{0};
    std::uint64_t traceSeed = 0;
    TraceSampler spanSampler{0}; ///< n = 0: no spans
    ServiceDist dist{};
    double cv = 1.0;
    std::size_t queueCapacity = 64;
    std::size_t sampleTicks = 0;
    double tickSec = 0.0;
    bool needCharges = false;
    /** Every tenant's flow, indexed by tenant. During an epoch a
     * core writes only its residents' entries; foldSerially is
     * written only between epochs. */
    std::vector<TenantFlow> *flowTable V10_SHARED_STATE = nullptr;
    /** SLO monitor shared by all cores: a worker adds only to the
     * rows of its residents, the tenants whose completions it folds
     * in place. */
    SloMonitor *monitor V10_SHARED_STATE = nullptr;

    /** Resident tenants, ascending: the deterministic tie-break
     * wherever flows are walked. */
    std::vector<std::uint32_t> residents;

    // --- server state ---------------------------------------------
    double vclock = 0.0;
    bool busy = false;
    double busyUntil = 0.0;
    double servedStart = 0.0;
    double servedArrival = 0.0;
    std::uint64_t servedSeq = 0;
    std::uint32_t servedTenant = 0;
    /** Captured at service start so finish() never dereferences a
     * flow that migrated away mid-service. */
    double servedSloTargetUs = 0.0;
    double servedSpeed = 1.0;
    std::size_t waiting = 0; ///< total queued across tenants

    // --- whole-run accounting -------------------------------------
    double lastT = 0.0;
    std::size_t nextTick = 1;
    double depthArea = 0.0;
    double busyArea = 0.0;
    double depthPeak = 0.0;
    double busySec = 0.0;
    /** The duration, or the last completion when one lands past it:
     * the horizon of the occupancy integrals. */
    double endSec = 0.0;
    std::uint64_t served = 0;
    std::vector<double> depthSamples;
    std::vector<double> inflightSamples;
    std::vector<RequestSpan> spans;

    // --- per-epoch buffers (folded serially by the manager) -------
    std::vector<CompletionRec> completions; ///< foldSerially tenants
    std::vector<WaitCharge> charges;

    /** Add / remove a resident (keeps residents ascending). */
    void addResident(std::uint32_t tenant);
    void removeResident(std::uint32_t tenant);

    /** Restart an idle server after a queue handoff (migration). */
    void kickIdle(double now);

    /**
     * Advance to @p epochEnd. Non-final epochs process arrivals
     * strictly before the boundary and defer completions landing on
     * or past it; the final epoch consumes every remaining arrival
     * and drains all queues (completions past the horizon allowed),
     * then takes the latency figures of every resident whose
     * completions fold in place (not foldSerially).
     */
    void runEpoch(double epochEnd, bool isFinal);

  private:
    TenantFlow &flow(std::uint32_t t) { return (*flowTable)[t]; }

    /** Rebuild both heaps from the residents: at each epoch start
     * and before kickIdle, the points after which the control step
     * may have changed residents, queues or virtual times. */
    void rebuildHeaps();

    /** Close the occupancy integrals over (lastT, now], with the
     * state still describing that interval. */
    void
    advanceTime(double now)
    {
        if (now < lastT)
            return;
        if (nextTick <= sampleTicks)
            sampleTicksUpTo(now);
        depthArea += static_cast<double>(waiting) * (now - lastT);
        busyArea += (busy ? 1.0 : 0.0) * (now - lastT);
        lastT = now;
    }

    /** Emit the fixed sim-time ticks due by @p now. */
    void sampleTicksUpTo(double now);

    double drawService(const TenantFlow &f, double now);
    void startNext(double now);
    void finish();
    /** Append the span of request (tenant, seq) when it is sampled,
     * with its end at its arrival; nullptr when it is not. */
    RequestSpan *sampledSpan(std::uint32_t tenant, std::uint64_t seq,
                             double arrivalSec, double sloTargetUs);

    TenantHeap arrivals_; ///< (next arrival, tenant), active flows
    /// (vtime, tenant), exactly the residents with a queue
    TenantHeap backlog_;
    bool anyThrash_ = false; ///< a resident has thrash windows
};

} // namespace v10

#endif // V10_SERVE_CORE_SIM_H
