#include "sched/prema_scheduler.h"

#include <limits>

#include "common/log.h"

namespace v10 {

PremaScheduler::PremaScheduler(Simulator &sim, NpuCore &core,
                               std::vector<TenantSpec> tenants,
                               Options options, std::uint64_t seed)
    : SchedulerEngine(sim, core, std::move(tenants), seed),
      options_(options), tokens_(this->tenants().size(), 0.0)
{
    if (options_.checkpointPeriod == 0)
        V10_PANIC("PremaScheduler: zero checkpoint period");
    if (options_.tokenThreshold <= 0.0)
        V10_PANIC("PremaScheduler: token threshold must be positive");
    if (options_.ctxSwitchMinUs < 0.0 ||
        options_.ctxSwitchMaxUs < options_.ctxSwitchMinUs)
        V10_PANIC("PremaScheduler: bad context-switch bounds");
}

PremaScheduler::PremaScheduler(Simulator &sim, NpuCore &core,
                               std::vector<TenantSpec> tenants)
    : PremaScheduler(sim, core, std::move(tenants), Options{}, 1)
{
}

void
PremaScheduler::accrueTokens()
{
    const Cycles now = sim().now();
    if (now <= last_accrual_)
        return;
    const double elapsed = static_cast<double>(now - last_accrual_);
    last_accrual_ = now;
    for (std::size_t i = 0; i < tenants().size(); ++i) {
        if (i == active_)
            continue; // only waiting tasks accrue tokens
        // PREMA accrues tokens proportionally to priority and
        // absolute waiting time, so long- and short-request tasks
        // age at the same rate (no starvation of long tasks).
        tokens_[i] += tenants()[i].priority * elapsed;
    }
}

Cycles
PremaScheduler::estimatedRemaining(const Tenant &tenant) const
{
    // PREMA predicts execution time from prior runs; with replayed
    // traces the per-request compute is known exactly. Estimate the
    // remainder of the in-flight request from the trace position.
    const auto &ops = tenant.wl->trace().ops;
    Cycles remaining = tenant.opPreempted
                           ? tenant.opRemaining
                           : ops[tenant.opIndex].computeCycles;
    for (std::size_t i = tenant.opIndex + 1; i < ops.size(); ++i)
        remaining += ops[i].computeCycles;
    return remaining;
}

void
PremaScheduler::onStart()
{
    active_ = 0;
    switching_ = false;
    last_accrual_ = sim().now();
    sim().after(options_.checkpointPeriod,
                [this] { onCheckpoint(); });
    runActive();
}

void
PremaScheduler::runActive()
{
    if (switching_ || allDone())
        return;
    Tenant &t = tenants()[active_];
    if (t.running || !t.ready)
        return;
    if (FunctionalUnit *fu = idleFu(currentOp(t).kind))
        dispatch(t, *fu, 0);
}

void
PremaScheduler::switchTo(std::size_t next)
{
    Tenant &outgoing = tenants()[active_];
    if (outgoing.running)
        preemptFu(*outgoing.fu);
    else
        countPreemption(outgoing);

    const double ctx_us = rng().uniform(options_.ctxSwitchMinUs,
                                        options_.ctxSwitchMaxUs);
    const Cycles ctx_cycles =
        std::max<Cycles>(1, core().config().usToCycles(ctx_us));
    switching_ = true;
    ++task_switches_;
    chargeCtxOverhead(tenants()[next], ctx_cycles);
    sim().after(ctx_cycles, [this, next] {
        switching_ = false;
        active_ = next;
        tokens_[next] = 0.0; // scheduled: spend the tokens
        runActive();
    });
}

void
PremaScheduler::onCheckpoint()
{
    if (allDone())
        return;
    sim().after(options_.checkpointPeriod,
                [this] { onCheckpoint(); });
    if (switching_ || tenants().size() == 1)
        return;
    accrueTokens();

    // Candidates over the threshold compete by token value (tokens
    // keep growing while waiting, so no task starves); near-ties
    // are broken predictively by shortest estimated remaining time.
    std::size_t best = active_;
    double best_tokens = 0.0;
    for (std::size_t i = 0; i < tenants().size(); ++i) {
        if (i == active_ || tokens_[i] < options_.tokenThreshold)
            continue;
        const bool near_tie =
            best != active_ &&
            tokens_[i] > 0.9 * best_tokens &&
            tokens_[i] < 1.1 * best_tokens;
        const bool wins =
            near_tie ? estimatedRemaining(tenants()[i]) <
                           estimatedRemaining(tenants()[best])
                     : tokens_[i] > best_tokens;
        if (wins) {
            best_tokens = std::max(best_tokens, tokens_[i]);
            best = i;
        }
    }
    if (best != active_)
        switchTo(best);
    else
        runActive();
}

void
PremaScheduler::onTenantReady(Tenant &tenant)
{
    if (tenant.id == tenants()[active_].id)
        runActive();
}

void
PremaScheduler::onOpComplete(Tenant &tenant, FunctionalUnit &)
{
    if (tenant.id != tenants()[active_].id)
        return;
    // Request boundary is PREMA's natural scheduling point: yield
    // to the highest-token task if one passed the threshold.
    if (tenant.opIndex == 0 && !allDone() && !switching_) {
        accrueTokens();
        std::size_t best = active_;
        double best_tokens = 0.0;
        for (std::size_t i = 0; i < tenants().size(); ++i) {
            if (i == active_)
                continue;
            if (tokens_[i] >= options_.tokenThreshold &&
                tokens_[i] > best_tokens) {
                best_tokens = tokens_[i];
                best = i;
            }
        }
        if (best != active_) {
            switchTo(best);
            return;
        }
    }
    runActive();
}

void
PremaScheduler::onRegisterStats(StatRegistry &registry)
{
    registry.addFormula(
        "sched.task_switches",
        [this] { return static_cast<double>(task_switches_); },
        "whole-core task switches (checkpoint to HBM)");
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
        registry.addFormula(
            "sched.tokens." + std::to_string(i),
            [this, i] { return tokens_[i]; },
            "accrued PREMA tokens of tenant " + std::to_string(i));
    }
}

} // namespace v10
