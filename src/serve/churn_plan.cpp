#include "serve/churn_plan.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"
#include "sim/fault_plan.h"

namespace v10 {

namespace {

bool
actionFromName(const std::string &name, ChurnAction *out)
{
    if (name == "join") {
        *out = ChurnAction::Join;
        return true;
    }
    if (name == "leave") {
        *out = ChurnAction::Leave;
        return true;
    }
    if (name == "migrate") {
        *out = ChurnAction::Migrate;
        return true;
    }
    return false;
}

Status
checkEvent(const ChurnEvent &event, const std::string &source,
           std::size_t index)
{
    const std::string where =
        std::string(churnActionName(event.action)) + " (event " +
        std::to_string(index + 1) + ")";
    if (event.tenant.empty())
        return parseError("churn event needs a tenant name", source,
                          0, where);
    if (!std::isfinite(event.atSec) || event.atSec < 0.0)
        return parseError("churn time must be finite and >= 0",
                          source, 0, where);
    if (event.core < -1)
        return parseError("churn core must be >= 0 (or -1 = pick)",
                          source, 0, where);
    if (event.core >= 0 && event.action != ChurnAction::Migrate)
        return parseError("churn core= only applies to migrate",
                          source, 0, where);
    return Status::ok();
}

} // namespace

const char *
churnActionName(ChurnAction action)
{
    switch (action) {
      case ChurnAction::Join:    return "join";
      case ChurnAction::Leave:   return "leave";
      case ChurnAction::Migrate: return "migrate";
    }
    return "unknown";
}

std::string
ChurnEvent::spec() const
{
    std::ostringstream os;
    os << churnActionName(action) << ":tenant=" << tenant
       << ":at=" << atSec;
    if (core >= 0)
        os << ":core=" << core;
    return os.str();
}

Result<ChurnPlan>
ChurnPlan::parse(const std::string &spec, const std::string &source)
{
    auto sites_or = parseSpecSites(spec, source);
    if (!sites_or.ok())
        return sites_or.error();
    const std::vector<SpecSite> sites = sites_or.take();

    ChurnPlan plan;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const SpecSite &site = sites[i];
        ChurnEvent event;
        if (!actionFromName(site.kind, &event.action))
            return parseError("unknown churn action", source, 0,
                              site.kind);
        bool haveAt = false;
        for (const auto &[key, val] : site.fields) {
            if (key == "tenant") {
                event.tenant = val;
            } else if (key == "at") {
                const auto v = parseDouble(val);
                if (!v || !std::isfinite(*v) || *v < 0.0)
                    return parseError("bad churn time", source, 0,
                                      val);
                event.atSec = *v;
                haveAt = true;
            } else if (key == "core") {
                const auto v = parseInt64(val);
                if (!v || *v < 0)
                    return parseError("bad churn core index", source,
                                      0, val);
                event.core = *v;
            } else {
                return parseError("unknown churn-event key", source,
                                  0, key);
            }
        }
        if (!haveAt)
            return parseError("churn event needs at=<seconds>",
                              source, 0, site.kind);
        const Status ok = checkEvent(event, source, i);
        if (!ok)
            return ok.error();
        plan.add(std::move(event));
    }
    return plan;
}

Result<ChurnPlan>
ChurnPlan::fromJson(const std::string &text, const std::string &source)
{
    const Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed)
        return parseError("malformed churn-plan JSON: " +
                              parsed.error().message,
                          source);
    const JsonValue &doc = parsed.value();
    if (!doc.isObject())
        return parseError("churn plan must be a JSON object", source);
    const JsonValue *events = doc.find("churn");
    if (events == nullptr || !events->isArray())
        return parseError("missing \"churn\" array", source, 0,
                          "churn");

    ChurnPlan plan;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &entry = events->array[i];
        const std::string where = "churn[" + std::to_string(i) + "]";
        if (!entry.isObject())
            return parseError("churn entry must be an object",
                              source, 0, where);
        const JsonValue *action = entry.find("action");
        if (action == nullptr || !action->isString())
            return parseError("churn entry needs a string \"action\"",
                              source, 0, where);
        ChurnEvent event;
        if (!actionFromName(action->str, &event.action))
            return parseError("unknown churn action", source, 0,
                              action->str);
        const JsonValue *tenant = entry.find("tenant");
        if (tenant == nullptr || !tenant->isString())
            return parseError("churn entry needs a string \"tenant\"",
                              source, 0, where);
        event.tenant = tenant->str;
        const JsonValue *at = entry.find("at");
        if (at == nullptr || !at->isNumber())
            return parseError("churn entry needs a numeric \"at\"",
                              source, 0, where);
        event.atSec = at->number;
        if (const JsonValue *core = entry.find("core")) {
            if (!core->isNumber() || core->number < 0)
                return parseError("\"core\" must be a non-negative "
                                  "number",
                                  source, 0, where);
            event.core = static_cast<std::int64_t>(core->number);
        }
        const Status ok = checkEvent(event, source, i);
        if (!ok)
            return ok.error();
        plan.add(std::move(event));
    }
    return plan;
}

Result<ChurnPlan>
ChurnPlan::fromJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return parseError("cannot open churn-plan file", path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return fromJson(ss.str(), path);
}

void
ChurnPlan::add(ChurnEvent event)
{
    // Keep (atSec, insertion) order: later inserts at the same time
    // land after earlier ones.
    auto it = std::upper_bound(
        events_.begin(), events_.end(), event,
        [](const ChurnEvent &a, const ChurnEvent &b) {
            return a.atSec < b.atSec;
        });
    events_.insert(it, std::move(event));
}

Status
ChurnPlan::check(double durationSec) const
{
    for (const ChurnEvent &event : events_) {
        if (event.atSec <= 0.0 || event.atSec >= durationSec)
            return parseError("churn time must lie strictly inside "
                              "the run (0, duration)",
                              "", 0, event.spec());
    }
    return Status::ok();
}

Result<ResolvedChurn>
ChurnPlan::resolve(const std::vector<std::string> &tenants,
                   std::size_t numCores) const
{
    const std::size_t n = tenants.size();
    ResolvedChurn out;
    out.startsDormant.assign(n, false);
    std::vector<bool> active(n, true);
    std::vector<bool> seen(n, false);
    for (const ChurnEvent &ev : events_) {
        const auto idx = static_cast<std::size_t>(
            std::find(tenants.begin(), tenants.end(), ev.tenant) -
            tenants.begin());
        if (idx == n)
            return parseError("churn: unknown tenant", "", 0,
                              ev.tenant);
        const bool join = ev.action == ChurnAction::Join;
        if (!seen[idx]) {
            seen[idx] = true;
            out.startsDormant[idx] = join;
            active[idx] = !join;
        }
        if (join == active[idx])
            return parseError(join ? "churn: tenant already joined"
                                   : "churn: tenant is not active",
                              "", 0, ev.spec());
        if (ev.action != ChurnAction::Migrate)
            active[idx] = join;
        else if (ev.core >= 0 &&
                 static_cast<std::size_t>(ev.core) >= numCores)
            return parseError("churn: migrate core out of range", "",
                              0, ev.spec());
        out.tenant.push_back(idx);
    }
    return out;
}

std::string
ChurnPlan::summary() const
{
    std::string out;
    for (const ChurnEvent &event : events_) {
        if (!out.empty())
            out += ',';
        out += event.spec();
    }
    return out;
}

} // namespace v10
