#include "metrics/interval_sampler.h"

#include <fstream>
#include <ostream>

#include "common/json.h"
#include "common/log.h"
#include "sim/simulator.h"

namespace v10 {

IntervalSampler::IntervalSampler(Cycles interval)
    : interval_(interval)
{
    if (interval_ == 0)
        V10_PANIC("IntervalSampler: sample interval must be > 0 cycles");
}

void
IntervalSampler::addProbe(std::string name, Mode mode, Probe probe)
{
    if (sim_)
        V10_PANIC("IntervalSampler: addProbe('", name,
                  "') after start()");
    if (!probe)
        V10_PANIC("IntervalSampler: null probe '", name, "'");
    probes_.push_back(
        ProbeEntry{std::move(name), mode, std::move(probe), 0.0});
}

void
IntervalSampler::addManualColumn(std::string name)
{
    if (sim_)
        V10_PANIC("IntervalSampler: addManualColumn('", name,
                  "') after start()");
    probes_.push_back(
        ProbeEntry{std::move(name), Mode::Level, Probe(), 0.0});
}

void
IntervalSampler::appendRow(Cycles cycle,
                           const std::vector<double> &values)
{
    if (sim_)
        V10_PANIC("IntervalSampler: appendRow() on a started sampler");
    if (values.size() != probes_.size())
        V10_PANIC("IntervalSampler: appendRow() with ", values.size(),
                  " values for ", probes_.size(), " columns");
    cycles_.push_back(cycle);
    values_.insert(values_.end(), values.begin(), values.end());
}

void
IntervalSampler::start(Simulator &sim)
{
    if (sim_)
        V10_PANIC("IntervalSampler: start() called twice");
    for (const auto &entry : probes_)
        if (!entry.probe)
            V10_PANIC("IntervalSampler: start() with manual column '",
                      entry.name, "'");
    sim_ = &sim;
    stopped_ = false;
    for (auto &entry : probes_)
        entry.prev = entry.probe();
    // The kernel re-arms the tick; no per-tick rescheduling here.
    tick_ = sim_->every(interval_, [this] { tick(); });
}

void
IntervalSampler::tick()
{
    if (stopped_)
        return;
    record(sim_->now());
}

void
IntervalSampler::stop()
{
    if (!sim_ || stopped_)
        return;
    stopped_ = true;
    sim_->cancelEvery(tick_);
    tick_ = kNoPeriodic;
    // Final partial-interval sample, unless a tick already recorded
    // this cycle.
    if (cycles_.empty() || cycles_.back() != sim_->now())
        record(sim_->now());
}

void
IntervalSampler::record(Cycles now)
{
    const Cycles prevCycle = cycles_.empty() ? 0 : cycles_.back();
    const double span =
        now > prevCycle ? static_cast<double>(now - prevCycle)
                        : static_cast<double>(interval_);
    cycles_.push_back(now);
    for (auto &entry : probes_) {
        const double cur = entry.probe();
        double sample = cur;
        switch (entry.mode) {
        case Mode::Level:
            break;
        case Mode::Rate:
            sample = (cur - entry.prev) / span;
            break;
        case Mode::Delta:
            sample = cur - entry.prev;
            break;
        }
        entry.prev = cur;
        values_.push_back(sample);
    }
}

std::vector<std::string>
IntervalSampler::probeNames() const
{
    std::vector<std::string> out;
    out.reserve(probes_.size());
    for (const auto &entry : probes_)
        out.push_back(entry.name);
    return out;
}

double
IntervalSampler::sample(std::size_t rowIdx, std::size_t probeIdx) const
{
    if (rowIdx >= rowCount() || probeIdx >= probes_.size())
        V10_PANIC("IntervalSampler: sample(", rowIdx, ", ", probeIdx,
                  ") out of range");
    return values_[rowIdx * probes_.size() + probeIdx];
}

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const auto &entry : probes_)
        os << ',' << entry.name;
    os << '\n';
    for (std::size_t row = 0; row < rowCount(); ++row) {
        os << cycles_[row];
        for (std::size_t p = 0; p < probes_.size(); ++p)
            os << ',' << jsonNumber(sample(row, p));
        os << '\n';
    }
}

Status
IntervalSampler::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open samples CSV for writing", path);
    writeCsv(os);
    os.flush();
    if (!os)
        return parseError("short write on samples CSV", path);
    return Status::ok();
}

bool
IntervalSampler::writeCounterEvents(std::ostream &os,
                                    double cyclesPerUs,
                                    bool needComma) const
{
    bool wrote = false;
    for (std::size_t row = 0; row < rowCount(); ++row) {
        const double ts =
            static_cast<double>(cycles_[row]) / cyclesPerUs;
        for (std::size_t p = 0; p < probes_.size(); ++p) {
            if (needComma || wrote)
                os << ",\n";
            os << " {\"name\": \"" << jsonEscape(probes_[p].name)
               << "\", \"ph\": \"C\", \"ts\": " << jsonNumber(ts)
               << ", \"pid\": 0, \"args\": {\"value\": "
               << jsonNumber(sample(row, p)) << "}}";
            wrote = true;
        }
    }
    return wrote;
}

} // namespace v10
