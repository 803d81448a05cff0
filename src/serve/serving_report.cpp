#include "serve/serving_report.h"

#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"
#include "metrics/stat_registry.h"
#include "trace/attribution.h"

namespace v10 {

double
TenantServingStats::sloAttainment() const
{
    if (completed == 0 || sloTargetUs <= 0.0)
        return 1.0;
    return static_cast<double>(completed - sloViolations) /
           static_cast<double>(completed);
}

std::string
ServingReport::summary() const
{
    std::ostringstream os;
    os << policy << ": " << offered << " offered, " << completed
       << " completed, " << shed << " shed, ";
    if (rejected > 0)
        os << rejected << " rejected, ";
    os << sloViolations << " late over "
       << formatDouble(durationSec, 2) << "s on " << coresUsed << "/"
       << cores << " cores; goodput " << formatDouble(goodputRps, 1)
       << " req/s, mean core util " << formatPct(meanCoreUtil);
    return os.str();
}

Status
ServingReport::checkConservation() const
{
    for (const TenantServingStats &t : tenants) {
        if (!t.conserved())
            return parseError(
                "serving conservation violated: offered " +
                    std::to_string(t.offered) + " != completed " +
                    std::to_string(t.completed) + " + shed " +
                    std::to_string(t.shed) + " + rejected " +
                    std::to_string(t.rejected) + " + in-flight " +
                    std::to_string(t.inFlightAtEnd),
                "", 0, t.name);
    }
    if (offered != completed + shed + rejected + inFlightAtEnd)
        return parseError("serving conservation violated at the "
                          "fleet level",
                          "", 0, "fleet");
    return Status::ok();
}

void
writeServingReportJson(JsonWriter &w, const ServingReport &report)
{
    w.beginObject();
    w.kv("policy", report.policy);
    w.kv("duration_sec", report.durationSec);
    w.kv("cores", static_cast<std::uint64_t>(report.cores));
    w.kv("cores_used",
         static_cast<std::uint64_t>(report.coresUsed));
    w.kv("offered", report.offered);
    w.kv("completed", report.completed);
    w.kv("shed", report.shed);
    w.kv("rejected", report.rejected);
    w.kv("in_flight_at_end", report.inFlightAtEnd);
    w.kv("slo_violations", report.sloViolations);
    w.kv("goodput_rps", report.goodputRps);
    w.kv("mean_core_util", report.meanCoreUtil);
    w.kv("slo_alerts", report.sloAlerts);
    w.kv("control_epochs",
         static_cast<std::uint64_t>(report.controlEpochs));

    w.key("tenants");
    w.beginArray();
    for (const TenantServingStats &t : report.tenants) {
        w.beginObject();
        w.kv("name", t.name);
        w.kv("model", t.model);
        w.kv("core", static_cast<std::uint64_t>(t.core));
        w.kv("offered", t.offered);
        w.kv("completed", t.completed);
        w.kv("shed", t.shed);
        w.kv("rejected", t.rejected);
        w.kv("in_flight_at_end", t.inFlightAtEnd);
        w.kv("slo_violations", t.sloViolations);
        w.kv("offered_rps", t.offeredRps);
        w.kv("goodput_rps", t.goodputRps);
        w.kv("mean_us", t.meanUs);
        w.kv("p50_us", t.p50Us);
        w.kv("p99_us", t.p99Us);
        w.kv("p999_us", t.p999Us);
        w.kv("max_us", t.maxUs);
        w.kv("slo_target_us", t.sloTargetUs);
        w.kv("weight", t.weight);
        w.kv("slo_attainment", t.sloAttainment());
        w.key("attrib");
        w.beginObject();
        w.kv("queue_us", t.attribQueueUs);
        w.kv("service_us", t.attribServiceUs);
        w.kv("solo_us", t.attribSoloUs);
        w.kv("inflation_us", t.attribInflationUs);
        w.kv("sojourn_us", t.attribSojournUs);
        w.endObject();
        w.kv("burn_short", t.burnShort);
        w.kv("burn_long", t.burnLong);
        w.kv("slo_alert", t.sloAlert);
        w.key("admission");
        w.beginObject();
        w.kv("base_rps", t.admitRpsBase);
        w.kv("final_rps", t.admitRpsFinal);
        w.kv("decreases", t.admitDecreases);
        w.kv("increases", t.admitIncreases);
        w.endObject();
        w.key("quarantine");
        w.beginObject();
        w.kv("stage", t.quarantineStage);
        w.kv("strikes", static_cast<std::uint64_t>(t.strikes));
        w.kv("peak_score", t.peakAntagonistScore);
        w.endObject();
        w.key("churn");
        w.beginObject();
        w.kv("join_sec", t.joinSec);
        w.kv("leave_sec", t.leaveSec);
        w.kv("migrations", t.migrations);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("admission");
    w.beginObject();
    w.kv("enabled", report.admissionEnabled);
    w.key("events");
    w.beginArray();
    for (const AdmissionRecord &r : report.admissionEvents) {
        w.beginObject();
        w.kv("time_sec", r.timeSec);
        w.kv("epoch", static_cast<std::uint64_t>(r.epoch));
        w.kv("tenant", r.tenant);
        w.kv("action", r.action);
        w.kv("rate_rps", r.rateRps);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("quarantine");
    w.beginObject();
    w.key("events");
    w.beginArray();
    for (const QuarantineRecord &r : report.quarantineEvents) {
        w.beginObject();
        w.kv("time_sec", r.timeSec);
        w.kv("epoch", static_cast<std::uint64_t>(r.epoch));
        w.kv("tenant", r.tenant);
        w.kv("from", r.from);
        w.kv("to", r.to);
        w.kv("strikes", static_cast<std::uint64_t>(r.strikes));
        w.kv("score", r.score);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("churn");
    w.beginObject();
    w.key("events");
    w.beginArray();
    for (const ChurnRecord &r : report.churnEvents) {
        w.beginObject();
        w.kv("time_sec", r.timeSec);
        w.kv("action", r.action);
        w.kv("tenant", r.tenant);
        w.kv("from_core", static_cast<std::uint64_t>(r.fromCore));
        w.kv("to_core", static_cast<std::uint64_t>(r.toCore));
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("cores_detail");
    w.beginArray();
    for (const CoreServingStats &c : report.coreStats) {
        w.beginObject();
        w.kv("index", static_cast<std::uint64_t>(c.index));
        w.key("tenants");
        w.beginArray();
        for (const std::string &name : c.tenants)
            w.value(name);
        w.endArray();
        w.kv("served", c.served);
        w.kv("busy_sec", c.busySec);
        w.kv("util", c.util);
        w.kv("speed_factor", c.speedFactor);
        w.kv("queue_depth_mean", c.queueDepthMean);
        w.kv("queue_depth_peak", c.queueDepthPeak);
        w.kv("in_flight_mean", c.inFlightMean);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeServingDocumentJson(std::ostream &os,
                         const ServeManifest &manifest,
                         const ServingReport &report,
                         const StatRegistry *registry)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("manifest");
    w.beginObject();
    w.kv("tool", manifest.tool);
    w.kv("policy", manifest.policy);
    w.kv("arrivals", manifest.arrivals);
    w.kv("cores", static_cast<std::uint64_t>(manifest.cores));
    w.kv("tenants", static_cast<std::uint64_t>(manifest.tenants));
    w.kv("duration_sec", manifest.durationSec);
    w.kv("seed", manifest.seed);
    w.endObject();
    w.key("serving");
    writeServingReportJson(w, report);
    w.key("registry");
    if (registry != nullptr && registry->size() > 0)
        registry->writeJson(w);
    else
        w.valueNull();
    w.endObject();
    os << '\n';
}

Status
writeServingDocumentFile(const std::string &path,
                         const ServeManifest &manifest,
                         const ServingReport &report,
                         const StatRegistry *registry)
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open stats JSON for writing", path);
    writeServingDocumentJson(os, manifest, report, registry);
    os.flush();
    if (!os)
        return parseError("short write on stats JSON", path);
    return Status::ok();
}

void
registerServingStats(StatRegistry &registry,
                     const ServingReport &report)
{
    registry.addCounter("serve.offered", "generated arrivals")
        .set(report.offered);
    registry.addCounter("serve.completed", "served requests")
        .set(report.completed);
    registry.addCounter("serve.shed", "queue-full drops")
        .set(report.shed);
    registry
        .addCounter("serve.rejected", "admission-gate refusals")
        .set(report.rejected);
    registry
        .addCounter("serve.in_flight_at_end",
                    "requests still queued after the drain")
        .set(report.inFlightAtEnd);
    registry
        .addCounter("serve.quarantine_events",
                    "quarantine-ladder transitions")
        .set(report.quarantineEvents.size());
    registry
        .addCounter("serve.churn_events", "applied churn transitions")
        .set(report.churnEvents.size());
    registry
        .addCounter("serve.slo_violations",
                    "completed past the latency target")
        .set(report.sloViolations);
    registry.addGauge("serve.goodput_rps", "SLO-met throughput")
        .set(report.goodputRps);
    registry
        .addGauge("serve.mean_core_util",
                  "mean utilization over used cores")
        .set(report.meanCoreUtil);
    registry
        .addGauge("serve.cores_used", "cores with >= 1 tenant")
        .set(static_cast<double>(report.coresUsed));
    registry
        .addCounter("serve.slo_alerts",
                    "tenants whose burn rate tripped the alert")
        .set(report.sloAlerts);
    for (const CoreServingStats &c : report.coreStats) {
        const std::string prefix =
            "serve.core" + std::to_string(c.index);
        registry.addGauge(prefix + ".util", "server busy fraction")
            .set(c.util);
        registry.addCounter(prefix + ".served", "completions")
            .set(c.served);
        registry
            .addGauge(prefix + ".tenants", "resident tenants")
            .set(static_cast<double>(c.tenants.size()));
        registry
            .addGauge(prefix + ".queue_depth_mean",
                      "time-weighted mean waiting requests")
            .set(c.queueDepthMean);
        registry
            .addGauge(prefix + ".queue_depth_peak",
                      "peak waiting requests")
            .set(c.queueDepthPeak);
        registry
            .addGauge(prefix + ".in_flight_mean",
                      "time-weighted mean in-service occupancy")
            .set(c.inFlightMean);
    }
    // Names are unique but sanitization can merge them, and the
    // registry panics on path collisions.
    std::vector<std::string> names;
    names.reserve(report.tenants.size());
    for (const TenantServingStats &t : report.tenants)
        names.push_back(t.name);
    const std::vector<std::string> slugs = uniqueStatSegments(names);
    for (std::size_t i = 0; i < report.tenants.size(); ++i) {
        const TenantServingStats &t = report.tenants[i];
        const std::string base = "serve.tenant." + slugs[i];
        registry
            .addGauge(base + ".attrib.queue_us",
                      "total queueing delay")
            .set(t.attribQueueUs);
        registry
            .addGauge(base + ".attrib.service_us",
                      "total actual service time")
            .set(t.attribServiceUs);
        registry
            .addGauge(base + ".attrib.solo_us",
                      "total solo-equivalent service time")
            .set(t.attribSoloUs);
        registry
            .addGauge(base + ".attrib.inflation_us",
                      "service inflation vs solo calibration")
            .set(t.attribInflationUs);
        registry
            .addGauge(base + ".attrib.sojourn_us",
                      "total sojourn (queue + service)")
            .set(t.attribSojournUs);
        registry
            .addGauge(base + ".burn_short",
                      "short-window SLO burn rate")
            .set(t.burnShort);
        registry
            .addGauge(base + ".burn_long",
                      "long-window SLO burn rate")
            .set(t.burnLong);
    }
}

} // namespace v10
