#include "perfbench/tracer.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <time.h>

namespace perfbench
{

double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace
{

/** 1-based nearest rank of percentile @p p over @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon absorbs rounding in p / 100 * n (99.9% of 10000 is
    // 9990.000000000002 in doubles).
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

std::optional<double>
tailPercentileFor(std::size_t samples)
{
    std::optional<double> best;
    for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99})
        if (samples > 0 && samples - nearestRank(samples, p) >= 10)
            best = p;
    return best;
}

double
percentileOf(const std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), p) - 1];
}

SpanSummary
summarize(std::vector<double> durationsMs)
{
    SpanSummary s;
    std::sort(durationsMs.begin(), durationsMs.end());
    s.count = durationsMs.size();
    for (const double d : durationsMs)
        s.totalMs += d;
    s.medianMs = percentileOf(durationsMs, 50.0);
    s.tailPercentile = tailPercentileFor(s.count);
    if (s.tailPercentile)
        s.tailMs = percentileOf(durationsMs, *s.tailPercentile);
    return s;
}

Tracer&
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int
Tracer::open(const char* name)
{
    Record r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.startS = monotonicSeconds();
    records_.push_back(std::move(r));
    const int index = static_cast<int>(records_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    records_[index].endS = monotonicSeconds();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
Tracer::rename(int index, const char* name)
{
    records_[index].name = name;
}

void
Tracer::count(const std::string& name, double value)
{
    counters_[name] += value;
}

std::map<std::string, SpanSummary>
Tracer::summaries() const
{
    std::map<std::string, std::vector<double>> byName;
    for (const Record& r : records_)
        byName[r.name].push_back((r.endS - r.startS) * 1e3);
    std::map<std::string, SpanSummary> out;
    for (auto& [name, durations] : byName)
        out[name] = summarize(std::move(durations));
    return out;
}

void
Tracer::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    const double origin = records_.empty() ? 0.0 : records_[0].startS;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (r.startS - origin) * 1e6
            << ",\"dur\":" << (r.endS - r.startS) * 1e6
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
            << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
