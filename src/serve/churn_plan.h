/**
 * @file
 * Deterministic tenant churn for the open-loop serving layer
 * (docs/RESILIENCE.md): join/leave/migrate events parsed from a
 * compact spec string (`--churn`) or a JSON plan file, mirroring the
 * fault-plan surface. Events carry sim-time stamps and are snapped
 * to the serve control-epoch grid by the ClusterManager, so every
 * transition lands on the same deterministic boundary regardless of
 * `--jobs`.
 *
 * Spec grammar:
 *
 *   spec   := event ("," event)*
 *   event  := action ":tenant=" name ":at=" seconds [":core=" index]
 *   action := "join" | "leave" | "migrate"
 *
 * e.g. "join:tenant=BERT#7:at=0.25,migrate:tenant=GPT2#0:at=0.5:core=3"
 *
 * Semantics: a tenant with a join event is dormant until it; leave
 * stops the tenant's arrivals and lets its queue drain gracefully;
 * migrate hands the waiting queue to the destination core (the
 * in-flight request finishes where it started).
 */

#ifndef V10_SERVE_CHURN_PLAN_H
#define V10_SERVE_CHURN_PLAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace v10 {

/** Churn event kinds. */
enum class ChurnAction {
    Join,    ///< tenant starts emitting arrivals
    Leave,   ///< arrivals stop; queue drains gracefully
    Migrate, ///< waiting queue handed to another core
};

/** Spec-grammar name of a churn action ("join", ...). */
const char *churnActionName(ChurnAction action);

/** One scheduled churn event. */
struct ChurnEvent
{
    ChurnAction action = ChurnAction::Join;
    std::string tenant;    ///< serve tenant name ("BERT#17")
    double atSec = 0.0;    ///< sim time (snapped to the epoch grid)
    /** Migrate destination core; -1 = least-loaded at event time. */
    std::int64_t core = -1;

    /** Round-trippable spec fragment. */
    std::string spec() const;
};

/** A churn plan bound to a tenant pool (ChurnPlan::resolve). */
struct ResolvedChurn
{
    /** Per plan event, in plan order: its tenant's pool index. */
    std::vector<std::size_t> tenant;
    /** Per tenant: dormant until its first event, a join. */
    std::vector<bool> startsDormant;
};

/**
 * A parsed, validated churn schedule. Immutable once handed to the
 * ClusterManager; events are kept sorted by (atSec, insertion
 * order) so application order is deterministic.
 */
class ChurnPlan
{
  public:
    /** Parse the CLI spec grammar; errors name the bad token. */
    static Result<ChurnPlan> parse(const std::string &spec,
                                   const std::string &source =
                                       "--churn");

    /**
     * Parse the JSON form: {"churn": [{"action": "join", "tenant":
     * "BERT#7", "at": 0.25, "core": 3}]} ("core" optional).
     */
    static Result<ChurnPlan> fromJson(const std::string &text,
                                      const std::string &source);

    /** fromJson() over a file's contents. */
    static Result<ChurnPlan> fromJsonFile(const std::string &path);

    /** Append an event (programmatic construction in tests). */
    void add(ChurnEvent event);

    bool empty() const { return events_.empty(); }
    const std::vector<ChurnEvent> &events() const { return events_; }

    /** Events must land inside (0, durationSec). */
    Status check(double durationSec) const;

    /**
     * Bind each event to its tenant's index in @p tenants and walk the
     * state machine: a tenant whose first event is a join starts
     * dormant; a join needs a dormant tenant, leave and migrate an
     * active one, and a migrate core must lie below @p numCores.
     */
    Result<ResolvedChurn>
    resolve(const std::vector<std::string> &tenants,
            std::size_t numCores) const;

    /** Round-trippable spec string of the whole plan. */
    std::string summary() const;

  private:
    std::vector<ChurnEvent> events_;
};

} // namespace v10

#endif // V10_SERVE_CHURN_PLAN_H
