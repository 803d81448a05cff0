#include "serve/antagonist.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"
#include "sim/fault_plan.h"

namespace v10 {

namespace {

bool
kindFromName(const std::string &name, AntagonistKind *out)
{
    if (name == "flood") {
        *out = AntagonistKind::Flood;
        return true;
    }
    if (name == "hbm-hog") {
        *out = AntagonistKind::HbmHog;
        return true;
    }
    if (name == "thrash") {
        *out = AntagonistKind::Thrash;
        return true;
    }
    return false;
}

double
defaultMagnitude(AntagonistKind kind)
{
    switch (kind) {
    case AntagonistKind::Flood:
        return 8.0; // burst arrivals per firing
    case AntagonistKind::HbmHog:
        return 4.0; // service inflation factor
    case AntagonistKind::Thrash:
        return 0.5; // overhead fraction of the victim's mean
    }
    return 0.0;
}

Status
checkProfile(const AntagonistProfile &profile,
             const std::string &source, std::size_t index)
{
    const std::string where =
        std::string(antagonistKindName(profile.kind)) +
        " (profile " + std::to_string(index + 1) + ")";
    if (profile.tenant < 0)
        return parseError("antagonist needs tenant=<index>", source,
                          0, where);
    if (!std::isfinite(profile.rate) || profile.rate < 0.0 ||
        profile.rate > 1.0)
        return parseError("antagonist rate must be in [0, 1]",
                          source, 0, where);
    if (!std::isfinite(profile.magnitude) || profile.magnitude < 0.0)
        return parseError("antagonist magnitude must be >= 0",
                          source, 0, where);
    if (profile.kind == AntagonistKind::HbmHog &&
        profile.magnitude != 0.0 && profile.magnitude < 1.0)
        return parseError("hog inflation must be >= 1 (or 0 for the "
                          "default)",
                          source, 0, where);
    if (!std::isfinite(profile.afterSec) || profile.afterSec < 0.0)
        return parseError("antagonist after must be >= 0", source, 0,
                          where);
    if (!std::isfinite(profile.untilSec) || profile.untilSec < 0.0)
        return parseError("antagonist until must be >= 0", source, 0,
                          where);
    if (profile.untilSec > 0.0 &&
        profile.untilSec <= profile.afterSec)
        return parseError("antagonist until must exceed after",
                          source, 0, where);
    return Status::ok();
}

} // namespace

const char *
antagonistKindName(AntagonistKind kind)
{
    switch (kind) {
      case AntagonistKind::Flood:  return "flood";
      case AntagonistKind::HbmHog: return "hbm-hog";
      case AntagonistKind::Thrash: return "thrash";
    }
    return "unknown";
}

double
AntagonistProfile::effectiveMagnitude() const
{
    return magnitude > 0.0 ? magnitude : defaultMagnitude(kind);
}

bool
AntagonistProfile::activeAt(double timeSec) const
{
    if (timeSec < afterSec)
        return false;
    return untilSec <= 0.0 || timeSec < untilSec;
}

std::string
AntagonistProfile::spec() const
{
    std::ostringstream os;
    os << antagonistKindName(kind) << ":tenant=" << tenant;
    if (kind == AntagonistKind::Flood)
        os << ":rate=" << rate;
    if (magnitude > 0.0)
        os << ":mag=" << magnitude;
    if (afterSec > 0.0)
        os << ":after=" << afterSec;
    if (untilSec > 0.0)
        os << ":until=" << untilSec;
    return os.str();
}

Result<AntagonistPlan>
AntagonistPlan::parse(const std::string &spec,
                      const std::string &source)
{
    auto sites_or = parseSpecSites(spec, source);
    if (!sites_or.ok())
        return sites_or.error();
    const std::vector<SpecSite> sites = sites_or.take();

    AntagonistPlan plan;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const SpecSite &site = sites[i];
        AntagonistProfile profile;
        if (!kindFromName(site.kind, &profile.kind))
            return parseError("unknown antagonist kind", source, 0,
                              site.kind);
        for (const auto &[key, val] : site.fields) {
            if (key == "tenant") {
                const auto v = parseInt64(val);
                if (!v || *v < 0)
                    return parseError("bad antagonist tenant index",
                                      source, 0, val);
                profile.tenant = static_cast<int>(*v);
            } else if (key == "rate") {
                const auto v = parseDouble(val);
                if (!v)
                    return parseError("bad antagonist rate", source,
                                      0, val);
                profile.rate = *v;
            } else if (key == "mag") {
                const auto v = parseDouble(val);
                if (!v)
                    return parseError("bad antagonist magnitude",
                                      source, 0, val);
                profile.magnitude = *v;
            } else if (key == "after") {
                const auto v = parseDouble(val);
                if (!v)
                    return parseError("bad antagonist after time",
                                      source, 0, val);
                profile.afterSec = *v;
            } else if (key == "until") {
                const auto v = parseDouble(val);
                if (!v)
                    return parseError("bad antagonist until time",
                                      source, 0, val);
                profile.untilSec = *v;
            } else {
                return parseError("unknown antagonist-profile key",
                                  source, 0, key);
            }
        }
        const Status ok = checkProfile(profile, source, i);
        if (!ok)
            return ok.error();
        plan.add(profile);
    }
    return plan;
}

Result<AntagonistPlan>
AntagonistPlan::fromJson(const std::string &text,
                         const std::string &source)
{
    const Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed)
        return parseError("malformed antagonist-plan JSON: " +
                              parsed.error().message,
                          source);
    const JsonValue &doc = parsed.value();
    if (!doc.isObject())
        return parseError("antagonist plan must be a JSON object",
                          source);
    const JsonValue *profiles = doc.find("antagonists");
    if (profiles == nullptr || !profiles->isArray())
        return parseError("missing \"antagonists\" array", source, 0,
                          "antagonists");

    AntagonistPlan plan;
    for (std::size_t i = 0; i < profiles->array.size(); ++i) {
        const JsonValue &entry = profiles->array[i];
        const std::string where =
            "antagonists[" + std::to_string(i) + "]";
        if (!entry.isObject())
            return parseError("antagonist entry must be an object",
                              source, 0, where);
        const JsonValue *kind = entry.find("kind");
        if (kind == nullptr || !kind->isString())
            return parseError("antagonist entry needs a string "
                              "\"kind\"",
                              source, 0, where);
        AntagonistProfile profile;
        if (!kindFromName(kind->str, &profile.kind))
            return parseError("unknown antagonist kind", source, 0,
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
        if (!number("tenant", -1.0, &tenant) ||
            !number("rate", 1.0, &profile.rate) ||
            !number("mag", 0.0, &profile.magnitude) ||
            !number("after", 0.0, &profile.afterSec) ||
            !number("until", 0.0, &profile.untilSec))
            return parseError("non-numeric antagonist field", source,
                              0, where);
        profile.tenant = static_cast<int>(tenant);
        const Status ok = checkProfile(profile, source, i);
        if (!ok)
            return ok.error();
        plan.add(profile);
    }
    return plan;
}

Result<AntagonistPlan>
AntagonistPlan::fromJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return parseError("cannot open antagonist-plan file", path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return fromJson(ss.str(), path);
}

Status
AntagonistPlan::check(std::size_t tenantCount,
                      double durationSec) const
{
    for (const AntagonistProfile &profile : profiles_) {
        if (profile.tenant < 0 ||
            static_cast<std::size_t>(profile.tenant) >= tenantCount)
            return parseError("antagonist tenant index out of range",
                              "", 0, profile.spec());
        if (profile.afterSec >= durationSec)
            return parseError("antagonist window starts past the "
                              "run horizon",
                              "", 0, profile.spec());
    }
    return Status::ok();
}

std::string
AntagonistPlan::summary() const
{
    std::string out;
    for (const AntagonistProfile &profile : profiles_) {
        if (!out.empty())
            out += ',';
        out += profile.spec();
    }
    return out;
}

Status
DetectorPolicy::check() const
{
    if (!std::isfinite(hiScore) || hiScore <= 0.0)
        return parseError("detector: hi threshold must be positive",
                          "", 0, "hiScore");
    if (!std::isfinite(loScore) || loScore < 0.0 ||
        loScore >= hiScore)
        return parseError("detector: lo threshold must be in "
                          "[0, hi)",
                          "", 0, "loScore");
    return Status::ok();
}

const char *
quarantineStageName(QuarantineStage stage)
{
    switch (stage) {
      case QuarantineStage::Healthy:   return "healthy";
      case QuarantineStage::Throttled: return "throttled";
      case QuarantineStage::Isolated:  return "isolated";
      case QuarantineStage::Evicted:   return "evicted";
    }
    return "unknown";
}

QuarantineController::QuarantineController(std::size_t tenants,
                                           DetectorPolicy policy,
                                           QuarantineLadder ladder)
    : policy_(policy), ladder_(ladder),
      stage_(tenants, QuarantineStage::Healthy),
      strikes_(tenants, 0), clean_(tenants, 0), peak_(tenants, 0.0)
{
}

bool
QuarantineController::observe(std::size_t tenant, double score,
                              Transition *out)
{
    peak_[tenant] = std::max(peak_[tenant], score);
    if (stage_[tenant] == QuarantineStage::Evicted)
        return false; // terminal

    if (score > policy_.hiScore) {
        ++strikes_[tenant];
        clean_[tenant] = 0;
    } else if (score < policy_.loScore) {
        ++clean_[tenant];
    }
    // Hysteresis: scores between lo and hi neither strike nor
    // count as clean — the tenant holds its current rung.

    const QuarantineStage from = stage_[tenant];
    QuarantineStage to = from;
    if (strikes_[tenant] >= ladder_.evictStrikes)
        to = QuarantineStage::Evicted;
    else if (strikes_[tenant] >= ladder_.isolateStrikes)
        to = QuarantineStage::Isolated;
    else if (strikes_[tenant] >= ladder_.throttleStrikes)
        to = QuarantineStage::Throttled;

    if (to <= from && clean_[tenant] >= ladder_.recoveryEpochs) {
        // Sustained clean behaviour: step one rung down and reset
        // the strike count to the new rung's floor so re-escalation
        // requires fresh misbehaviour.
        clean_[tenant] = 0;
        switch (from) {
        case QuarantineStage::Isolated:
            to = QuarantineStage::Throttled;
            strikes_[tenant] = ladder_.throttleStrikes;
            break;
        case QuarantineStage::Throttled:
            to = QuarantineStage::Healthy;
            strikes_[tenant] = 0;
            break;
        default:
            break;
        }
    }

    if (to == from)
        return false;
    stage_[tenant] = to;
    if (out != nullptr) {
        out->tenant = tenant;
        out->from = from;
        out->to = to;
        out->strikes = strikes_[tenant];
        out->score = score;
    }
    return true;
}

} // namespace v10
