#include "sched/op_scheduler.h"

#include "common/log.h"
#include "sched/priority_policy.h"
#include "sched/rr_policy.h"

namespace v10 {

namespace {

/** Map a §5.1 design point onto the ablation knobs. */
OperatorScheduler::Options
variantOptions(OperatorScheduler::Variant variant,
               Cycles sliceOverride, std::uint64_t seed)
{
    OperatorScheduler::Options opts;
    opts.policy = variant == OperatorScheduler::Variant::Base
                      ? OperatorScheduler::PolicyKind::RoundRobin
                      : OperatorScheduler::PolicyKind::Priority;
    opts.preemption = variant == OperatorScheduler::Variant::Full;
    opts.sliceOverride = sliceOverride;
    opts.seed = seed;
    return opts;
}

} // namespace

OperatorScheduler::OperatorScheduler(Simulator &sim, NpuCore &core,
                                     std::vector<TenantSpec> tenants,
                                     Variant variant,
                                     Cycles sliceOverride,
                                     std::uint64_t seed)
    : OperatorScheduler(sim, core, std::move(tenants),
                        variantOptions(variant, sliceOverride, seed))
{
    variant_ = variant;
}

OperatorScheduler::OperatorScheduler(Simulator &sim, NpuCore &core,
                                     std::vector<TenantSpec> tenants,
                                     const Options &options)
    : SchedulerEngine(sim, core, std::move(tenants), options.seed),
      variant_(options.preemption ? Variant::Full
               : options.policy == PolicyKind::RoundRobin
                   ? Variant::Base
                   : Variant::Fair),
      policy_kind_(options.policy),
      preemption_enabled_(options.preemption),
      slice_(options.sliceOverride != 0 ? options.sliceOverride
                                        : core.config().timeSlice),
      table_(static_cast<std::uint32_t>(this->tenants().size()))
{
    if (options.policy == PolicyKind::RoundRobin)
        policy_ = std::make_unique<RoundRobinPolicy>();
    else
        policy_ = std::make_unique<PriorityPolicy>();

    for (auto &t : this->tenants())
        table_.row(t.id).priority = t.priority;
}

const char *
OperatorScheduler::name() const
{
    if (policy_kind_ == PolicyKind::RoundRobin)
        return preemption_enabled_ ? "V10-RR+Preempt" : "V10-Base";
    return preemption_enabled_ ? "V10-Full" : "V10-Fair";
}

void
OperatorScheduler::syncRow(const Tenant &t)
{
    const Cycles now = sim().now();
    ContextRow &row = table_.row(t.id);
    const TensorOperator &op = currentOp(t);
    row.opId = op.id;
    row.opType = op.kind;
    row.active = t.running;
    row.ready = t.ready && !t.running;
    row.fuId = t.fu != nullptr ? t.fu->id() : kNoFu;
    row.activeCycles =
        t.activeCycles + (t.running ? now - t.lastDispatch : 0);
    row.totalCycles = now - t.arrivalCycle;
    row.priority = t.priority;
}

void
OperatorScheduler::syncTable()
{
    for (auto &t : tenants())
        syncRow(t);
}

void
OperatorScheduler::fillIdleFus()
{
    // Keep the units busy: issue as soon as an operator is ready and
    // a matching FU is idle (§3.2); the policy arbitrates only when
    // several tenants contend. The table is synced once per pass and
    // then refreshed row-wise: within the pass the clock is frozen,
    // so only the tenant a dispatch touched can have a stale row.
    bool synced = false;
    for (OpKind kind : {OpKind::SA, OpKind::VU}) {
        while (true) {
            FunctionalUnit *fu = idleFu(kind);
            if (fu == nullptr)
                break;
            if (!synced) {
                syncTable();
                synced = true;
            }
            const WorkloadId next = policy_->pickNext(table_, kind);
            if (next == kNoWorkload)
                break;
            Tenant &t = tenants()[next];
            dispatch(t, *fu, ctxPenaltyFor(t, *fu));
            syncRow(t);
        }
    }
}

void
OperatorScheduler::onStart()
{
    if (preemption_enabled_) {
        sim().after(slice_, [this] { onSliceTimer(); });
    }
}

void
OperatorScheduler::onSliceTimer()
{
    if (allDone())
        return;

    // For every busy unit, let the policy decide whether a waiting
    // operator deserves the unit more than the running one (§3.3).
    // One full table sync per tick (lazily, so a tick with no busy
    // unit leaves the table residue untouched, exactly as before the
    // hoist); each preempt/dispatch then refreshes exactly the two
    // rows it changed — the clock is frozen for the whole tick, so
    // every other row is already current.
    bool synced = false;
    for (OpKind op_kind : {OpKind::SA, OpKind::VU}) {
        for (auto *fu : unitsFor(op_kind)) {
            if (!fu->busy())
                continue;
            if (!synced) {
                syncTable();
                synced = true;
            }
            const WorkloadId cand =
                policy_->pickNext(table_, op_kind);
            if (cand == kNoWorkload)
                continue;
            const WorkloadId running = fu->workload();
            if (!policy_->shouldPreempt(table_, running, cand))
                continue;
            Tenant &victim = preemptFu(*fu);
            ++timer_preemptions_;
            Tenant &t = tenants()[cand];
            dispatch(t, *fu, ctxPenaltyFor(t, *fu));
            syncRow(victim);
            syncRow(t);
        }
    }
    // Displaced tenants may immediately claim another idle unit.
    fillIdleFus();

    sim().after(slice_, [this] { onSliceTimer(); });
}

void
OperatorScheduler::onTenantReady(Tenant &)
{
    fillIdleFus();
}

void
OperatorScheduler::onOpComplete(Tenant &, FunctionalUnit &)
{
    fillIdleFus();
}

void
OperatorScheduler::onRegisterStats(StatRegistry &registry)
{
    registry.addFormula(
        "sched.timer_preemptions",
        [this] { return static_cast<double>(timer_preemptions_); },
        "preemption decisions taken by the slice timer");
    const auto num_fus = static_cast<std::uint32_t>(
        core().sas().size() + core().vus().size());
    table_.registerStats(registry, "sched.ctx_table", num_fus);
}

} // namespace v10
