#include "metrics/interval_sampler.h"

#include <bit>
#include <charconv>
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
    beginRow(cycle);
    for (std::size_t p = 0; p < values.size(); ++p)
        appendCell(p, values[p]);
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
    if (rows_ == 0 || lastCycle() != sim_->now())
        record(sim_->now());
}

void
IntervalSampler::record(Cycles now)
{
    const Cycles prevCycle = rows_ == 0 ? 0 : lastCycle();
    const double span =
        now > prevCycle ? static_cast<double>(now - prevCycle)
                        : static_cast<double>(interval_);
    beginRow(now);
    for (std::size_t p = 0; p < probes_.size(); ++p) {
        ProbeEntry &entry = probes_[p];
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
        appendCell(p, sample);
    }
}

Cycles
IntervalSampler::lastCycle() const
{
    const CycleRun &run = cycleRuns_.back();
    return run.first + run.step * (run.count - 1);
}

void
IntervalSampler::beginRow(Cycles cycle)
{
    if (rows_++ == 0)
        last_.assign(probes_.size(), 0.0);
    if (!cycleRuns_.empty()) {
        CycleRun &run = cycleRuns_.back();
        if (run.count == 1)
            run.step = cycle - run.first;
        if (run.first + run.step * run.count == cycle) {
            ++run.count;
            return;
        }
    }
    cycleRuns_.push_back(CycleRun{cycle, 0, 1});
}

void
IntervalSampler::appendCell(std::size_t probe, double value)
{
    const auto bits = std::bit_cast<std::uint64_t>(value);
    std::uint64_t cls = kStored;
    if (bits == 0)
        cls = kZero;
    else if (rows_ > 1 &&
             bits == std::bit_cast<std::uint64_t>(last_[probe]))
        cls = kRepeat;
    else
        stored_.push_back(value);
    last_[probe] = value;
    const std::size_t cell = (rows_ - 1) * probes_.size() + probe;
    if (cell % kCellsPerWord == 0)
        classes_.push_back(0);
    classes_[cell / kCellsPerWord] |= cls << (2 * (cell % kCellsPerWord));
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

IntervalSampler::RowCursor::RowCursor(const IntervalSampler &sampler)
    : s_(sampler), values_(sampler.probeCount(), 0.0)
{
}

bool
IntervalSampler::RowCursor::next()
{
    if (row_ == s_.rows_)
        return false;
    const CycleRun &run = s_.cycleRuns_[run_];
    cycle_ = run.first + run.step * inRun_;
    if (++inRun_ == run.count) {
        ++run_;
        inRun_ = 0;
    }
    const std::size_t width = values_.size();
    std::size_t cell = row_ * width;
    for (std::size_t p = 0; p < width; ++p, ++cell) {
        const std::uint64_t cls =
            (s_.classes_[cell / kCellsPerWord] >>
             (2 * (cell % kCellsPerWord))) &
            3;
        if (cls == kZero)
            values_[p] = 0.0;
        else if (cls == kStored)
            values_[p] = s_.stored_[stored_++];
        // kRepeat keeps the row above's value.
    }
    ++row_;
    return true;
}

namespace {

/// Text buffered before a write to the stream.
constexpr std::size_t kFlushBytes = 32 * 1024;

/** Write @p buf to @p os once it passes kFlushBytes (or always, when
 * @p force), and clear it. */
void
drain(std::ostream &os, std::string &buf, bool force)
{
    if (!force && buf.size() < kFlushBytes)
        return;
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

} // namespace

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    std::string buf = "cycle";
    buf.reserve(kFlushBytes + 4096);
    for (const auto &entry : probes_)
        buf.append(1, ',').append(entry.name);
    buf += '\n';
    char num[24];
    for (auto row = rows(); row.next();) {
        buf.append(num, std::to_chars(num, std::end(num), row.cycle()).ptr);
        for (std::size_t p = 0; p < probes_.size(); ++p) {
            buf += ',';
            appendJsonNumber(buf, row.values()[p]);
        }
        buf += '\n';
        drain(os, buf, false);
    }
    drain(os, buf, true);
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
    // Each event is head[p], the row's timestamp, kValue, the cell's
    // value and "}}".
    std::vector<std::string> heads;
    for (const auto &entry : probes_)
        heads.push_back(" {\"name\": \"" + jsonEscape(entry.name) +
                        "\", \"ph\": \"C\", \"ts\": ");
    static constexpr std::string_view kValue =
        ", \"pid\": 0, \"args\": {\"value\": ";
    std::string buf;
    buf.reserve(kFlushBytes + 4096);
    std::string ts;
    bool wrote = false;
    for (auto row = rows(); row.next();) {
        ts.clear();
        appendJsonNumber(ts, static_cast<double>(row.cycle()) /
                                 cyclesPerUs);
        for (std::size_t p = 0; p < probes_.size(); ++p) {
            if (needComma || wrote)
                buf += ",\n";
            buf.append(heads[p]).append(ts).append(kValue);
            appendJsonNumber(buf, row.values()[p]);
            buf += "}}";
            wrote = true;
        }
        drain(os, buf, false);
    }
    drain(os, buf, true);
    return wrote;
}

} // namespace v10
