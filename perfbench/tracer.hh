/**
 * @file
 * In-memory spans and counters recorded around the benchmark's calls
 * into recap's modules. Off by default: a disabled Span reads no clock
 * and records nothing, so the untraced run pays one branch per call.
 */

#ifndef PERFBENCH_TRACER_HH_
#define PERFBENCH_TRACER_HH_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the monotonic clock (CLOCK_MONOTONIC on Linux). */
double monotonicSeconds();

/**
 * The highest percentile in {50, 90, 99, 99.9, 99.99} that has at
 * least ten of @p samples strictly beyond its rank; nullopt when even
 * the median has fewer than ten beyond it (n < 20).
 */
std::optional<double> tailPercentileFor(std::size_t samples);

/** Nearest-rank percentile @p p (0 < p <= 100) of @p sorted. */
double percentileOf(const std::vector<double>& sorted, double p);

/** Summary of every span of one name. */
struct SpanSummary
{
    std::size_t count = 0;
    double totalMs = 0.0;
    double medianMs = 0.0;
    std::optional<double> tailPercentile;
    double tailMs = 0.0;
};

SpanSummary summarize(std::vector<double> durationsMs);

/** Process-wide recorder; the benchmark is single-threaded. */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        int parent = -1; ///< index of the enclosing span, -1 if none
        double startS = 0.0;
        double endS = 0.0;
    };

    static Tracer& instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Adds @p value to counter @p name (only when enabled). */
    void count(const std::string& name, double value);

    const std::map<std::string, double>& counters() const
    {
        return counters_;
    }

    std::map<std::string, SpanSummary> summaries() const;

    /** Writes the spans as Chrome trace-event JSON (Perfetto opens it). */
    void writeChromeTrace(const std::string& path) const;

    int open(const char* name);
    void close(int index);
    void rename(int index, const char* name);

  private:
    bool enabled_ = false;
    std::vector<Record> records_;
    std::vector<int> stack_;
    std::map<std::string, double> counters_;
};

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    explicit Span(const char* name)
        : index_(Tracer::instance().enabled()
                     ? Tracer::instance().open(name) : -1)
    {
    }
    ~Span()
    {
        if (index_ >= 0)
            Tracer::instance().close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Renames the span once its kind is known (e.g. after a call). */
    void rename(const char* name)
    {
        if (index_ >= 0)
            Tracer::instance().rename(index_, name);
    }

  private:
    int index_;
};

/** Tracer::instance().count() shorthand. */
inline void
count(const std::string& name, double value)
{
    Tracer& t = Tracer::instance();
    if (t.enabled())
        t.count(name, value);
}

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH_
