#include "sim/fault_plan.h"

#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"

namespace v10 {

namespace {

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::HbmStall, "hbm-stall"},
    {FaultKind::HbmDroop, "hbm-droop"},
    {FaultKind::DmaTimeout, "dma-timeout"},
    {FaultKind::SaContextCorrupt, "sa-corrupt"},
    {FaultKind::RunawayOp, "runaway"},
    {FaultKind::TraceFlood, "flood"},
};

bool
kindFromName(const std::string &name, FaultKind *out)
{
    for (const KindName &k : kKindNames) {
        if (name == k.name) {
            *out = k.kind;
            return true;
        }
    }
    return false;
}

double
defaultMagnitude(FaultKind kind)
{
    switch (kind) {
    case FaultKind::HbmStall:
        return 2000.0; // stall cycles
    case FaultKind::HbmDroop:
        return 2.0; // byte inflation
    case FaultKind::DmaTimeout:
        return 0.0; // timeout period is an engine knob
    case FaultKind::SaContextCorrupt:
        return 0.0; // replay-from-zero has no magnitude
    case FaultKind::RunawayOp:
        return 4.0; // compute inflation
    case FaultKind::TraceFlood:
        return 4.0; // burst arrivals
    }
    return 0.0;
}

/** Validate one parsed site; index and source feed the diagnostic. */
Status
checkSite(const FaultSite &site, const std::string &source,
          std::size_t index)
{
    const std::string where =
        std::string(faultKindName(site.kind)) + " (site " +
        std::to_string(index + 1) + ")";
    if (site.rate < 0.0 || site.rate > 1.0)
        return parseError("fault rate must be in [0, 1]", source, 0,
                          where);
    if (site.magnitude < 0.0)
        return parseError("fault magnitude must be >= 0", source, 0,
                          where);
    if ((site.kind == FaultKind::HbmDroop ||
         site.kind == FaultKind::RunawayOp) &&
        site.magnitude != 0.0 && site.magnitude < 1.0)
        return parseError(
            "inflation magnitude must be >= 1 (or 0 for the default)",
            source, 0, where);
    if (site.tenant < -1)
        return parseError("tenant index must be >= 0 (or -1 = all)",
                          source, 0, where);
    return Status::ok();
}

} // namespace

Result<std::vector<SpecSite>>
parseSpecSites(const std::string &spec, const std::string &source)
{
    const std::string trimmed = trim(spec);
    if (trimmed.empty())
        return parseError("empty spec", source);
    std::vector<SpecSite> sites;
    for (const std::string &raw : split(trimmed, ',')) {
        const std::vector<std::string> fields =
            split(trim(raw), ':');
        if (fields.empty() || trim(fields[0]).empty())
            return parseError("empty spec site", source, 0, raw);
        SpecSite site;
        site.kind = trim(fields[0]);
        for (std::size_t f = 1; f < fields.size(); ++f) {
            const std::vector<std::string> kv =
                split(trim(fields[f]), '=');
            if (kv.size() != 2 || trim(kv[0]).empty())
                return parseError("expected key=value", source, 0,
                                  fields[f]);
            site.fields.emplace_back(trim(kv[0]), trim(kv[1]));
        }
        sites.push_back(std::move(site));
    }
    return sites;
}

const char *
faultKindName(FaultKind kind)
{
    for (const KindName &k : kKindNames) {
        if (k.kind == kind)
            return k.name;
    }
    return "unknown";
}

double
FaultSite::effectiveMagnitude() const
{
    return magnitude > 0.0 ? magnitude : defaultMagnitude(kind);
}

std::string
FaultSite::spec() const
{
    std::ostringstream os;
    os << faultKindName(kind) << ":rate=" << rate;
    if (magnitude > 0.0)
        os << ":mag=" << magnitude;
    if (tenant >= 0)
        os << ":tenant=" << tenant;
    if (after > 0)
        os << ":after=" << after;
    if (maxCount > 0)
        os << ":count=" << maxCount;
    return os.str();
}

Result<FaultPlan>
FaultPlan::parse(const std::string &spec, const std::string &source)
{
    FaultPlan plan;
    auto sites_or = parseSpecSites(spec, source);
    if (!sites_or.ok())
        return sites_or.error();
    const std::vector<SpecSite> site_specs = sites_or.take();
    for (std::size_t i = 0; i < site_specs.size(); ++i) {
        const SpecSite &parsed = site_specs[i];
        FaultSite site;
        if (!kindFromName(parsed.kind, &site.kind))
            return parseError("unknown fault kind", source, 0,
                              parsed.kind);
        for (const auto &[key, val] : parsed.fields) {
            if (key == "rate") {
                const auto v = parseDouble(val);
                if (!v)
                    return parseError("bad rate number", source, 0,
                                      val);
                site.rate = *v;
            } else if (key == "mag") {
                const auto v = parseDouble(val);
                if (!v)
                    return parseError("bad magnitude number", source,
                                      0, val);
                site.magnitude = *v;
            } else if (key == "tenant") {
                const auto v = parseInt64(val);
                if (!v || *v < -1)
                    return parseError("bad tenant index", source, 0,
                                      val);
                site.tenant = static_cast<int>(*v);
            } else if (key == "after") {
                const auto v = parseUint64(val);
                if (!v)
                    return parseError("bad activation cycle", source,
                                      0, val);
                site.after = *v;
            } else if (key == "count") {
                const auto v = parseUint64(val);
                if (!v)
                    return parseError("bad injection count", source,
                                      0, val);
                site.maxCount = *v;
            } else {
                return parseError("unknown fault-site key", source, 0,
                                  key);
            }
        }
        const Status ok = checkSite(site, source, i);
        if (!ok)
            return ok.error();
        plan.add(site);
    }
    return plan;
}

Result<FaultPlan>
FaultPlan::fromJson(const std::string &text, const std::string &source)
{
    const Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed)
        return parseError("malformed fault-plan JSON: " +
                              parsed.error().message,
                          source);
    const JsonValue &doc = parsed.value();
    if (!doc.isObject())
        return parseError("fault plan must be a JSON object", source);

    FaultPlan plan;
    if (const JsonValue *seed = doc.find("seed")) {
        if (!seed->isNumber() || seed->number < 0)
            return parseError("\"seed\" must be a non-negative number",
                              source, 0, "seed");
        plan.setSeed(static_cast<std::uint64_t>(seed->number));
    }
    const JsonValue *faults = doc.find("faults");
    if (faults == nullptr || !faults->isArray())
        return parseError("missing \"faults\" array", source, 0,
                          "faults");
    for (std::size_t i = 0; i < faults->array.size(); ++i) {
        const JsonValue &entry = faults->array[i];
        const std::string where = "faults[" + std::to_string(i) + "]";
        if (!entry.isObject())
            return parseError("fault entry must be an object", source,
                              0, where);
        const JsonValue *kind = entry.find("kind");
        if (kind == nullptr || !kind->isString())
            return parseError("fault entry needs a string \"kind\"",
                              source, 0, where);
        FaultSite site;
        if (!kindFromName(kind->str, &site.kind))
            return parseError("unknown fault kind", source, 0,
                              kind->str);
        auto number = [&](const char *key, double fallback,
                          double *out) -> bool {
            const JsonValue *v = entry.find(key);
            if (v == nullptr) {
                *out = fallback;
                return true;
            }
            if (!v->isNumber())
                return false;
            *out = v->number;
            return true;
        };
        double tenant = -1.0;
        double after = 0.0;
        double count = 0.0;
        if (!number("rate", 0.0, &site.rate) ||
            !number("mag", 0.0, &site.magnitude) ||
            !number("tenant", -1.0, &tenant) ||
            !number("after", 0.0, &after) ||
            !number("count", 0.0, &count))
            return parseError("non-numeric fault-site field", source,
                              0, where);
        site.tenant = static_cast<int>(tenant);
        site.after = static_cast<Cycles>(after);
        site.maxCount = static_cast<std::uint64_t>(count);
        const Status ok = checkSite(site, source, i);
        if (!ok)
            return ok.error();
        plan.add(site);
    }
    return plan;
}

Result<FaultPlan>
FaultPlan::fromJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return parseError("cannot open fault-plan file", path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return fromJson(ss.str(), path);
}

std::string
FaultPlan::summary() const
{
    std::string out;
    for (const FaultSite &site : sites_) {
        if (!out.empty())
            out += ',';
        out += site.spec();
    }
    return out;
}

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : rng_(seed)
{
    sites_.reserve(plan.sites().size());
    for (const FaultSite &site : plan.sites())
        sites_.push_back(SiteState{site, 0});
}

bool
FaultInjector::fires(SiteState &state, WorkloadId tenant, Cycles now)
{
    const FaultSite &site = state.site;
    if (site.tenant >= 0 &&
        static_cast<WorkloadId>(site.tenant) != tenant)
        return false;
    if (now < site.after)
        return false;
    if (site.maxCount > 0 && state.fired >= site.maxCount)
        return false;
    // The draw happens for every live matching site so the RNG
    // stream (and thus every later decision) is independent of
    // whether earlier opportunities fired.
    const bool hit = rng_.uniform() < site.rate;
    if (hit)
        ++state.fired;
    return hit;
}

void
FaultInjector::logInjection(const SiteState &state, WorkloadId tenant,
                            Cycles now, const std::string &detail)
{
    ++injected_;
    FaultEvent ev;
    ev.cycle = now;
    ev.kind = faultKindName(state.site.kind);
    ev.tenant = tenant;
    ev.detail = detail;
    log_.push_back(std::move(ev));
}

FaultInjector::DmaDecision
FaultInjector::onDmaStart(WorkloadId tenant, Cycles now)
{
    DmaDecision decision;
    for (SiteState &state : sites_) {
        switch (state.site.kind) {
        case FaultKind::HbmStall:
            if (fires(state, tenant, now)) {
                const auto stall = static_cast<Cycles>(
                    state.site.effectiveMagnitude());
                decision.stallCycles += stall;
                logInjection(state, tenant, now,
                             "stall " + std::to_string(stall) +
                                 " cycles");
            }
            break;
        case FaultKind::HbmDroop:
            if (fires(state, tenant, now)) {
                const double inflate =
                    state.site.effectiveMagnitude();
                decision.inflate *= inflate;
                logInjection(state, tenant, now,
                             "bandwidth droop x" +
                                 formatDouble(inflate, 2));
            }
            break;
        case FaultKind::DmaTimeout:
            if (fires(state, tenant, now)) {
                decision.hang = true;
                logInjection(state, tenant, now, "transfer hang");
            }
            break;
        default:
            break;
        }
    }
    return decision;
}

bool
FaultInjector::corruptSaContext(WorkloadId tenant, Cycles now)
{
    bool corrupt = false;
    for (SiteState &state : sites_) {
        if (state.site.kind != FaultKind::SaContextCorrupt)
            continue;
        if (fires(state, tenant, now)) {
            corrupt = true;
            logInjection(state, tenant, now,
                         "context save corrupted; full replay");
        }
    }
    return corrupt;
}

double
FaultInjector::runawayFactor(WorkloadId tenant, Cycles now)
{
    double factor = 1.0;
    for (SiteState &state : sites_) {
        if (state.site.kind != FaultKind::RunawayOp)
            continue;
        if (fires(state, tenant, now)) {
            const double mag = state.site.effectiveMagnitude();
            factor *= mag;
            logInjection(state, tenant, now,
                         "operator x" + formatDouble(mag, 2) +
                             " over declared cycles");
        }
    }
    return factor;
}

std::uint64_t
FaultInjector::floodBurst(WorkloadId tenant, Cycles now)
{
    std::uint64_t burst = 0;
    for (SiteState &state : sites_) {
        if (state.site.kind != FaultKind::TraceFlood)
            continue;
        if (fires(state, tenant, now)) {
            const auto extra = static_cast<std::uint64_t>(
                state.site.effectiveMagnitude());
            burst += extra;
            logInjection(state, tenant, now,
                         "flood burst of " + std::to_string(extra) +
                             " arrivals");
        }
    }
    return burst;
}

void
FaultInjector::record(const std::string &kind, WorkloadId tenant,
                      Cycles now, const std::string &detail)
{
    FaultEvent ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.tenant = tenant;
    ev.detail = detail;
    log_.push_back(std::move(ev));
}

void
FaultInjector::writeLogJson(JsonWriter &w) const
{
    w.beginArray();
    for (const FaultEvent &ev : log_) {
        w.beginObject();
        w.kv("cycle", ev.cycle);
        w.kv("kind", ev.kind);
        if (ev.tenant != kNoWorkload)
            w.kv("tenant", static_cast<std::uint64_t>(ev.tenant));
        w.kv("detail", ev.detail);
        w.endObject();
    }
    w.endArray();
}

} // namespace v10
