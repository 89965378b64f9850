/**
 * @file
 * One process, one workload run:
 *
 *   perfbench_worker --workload NAME --seed N [--trace 0|1]
 *                    [--start SECONDS] [--trace-file PATH]
 *
 * --start is the spawn time on the monotonic clock (run.py passes it,
 * so set-up time includes process start); without it, main() entry.
 * Prints a human-readable summary to stderr and, as the last line of
 * stdout, one JSON object with the run's measurements, output digest
 * and, when traced, every span's summary and every counter. Exits 1
 * when an output check fails, 2 on a usage error and 3 when the
 * workload aborts with an exception.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/tracer.hh"
#include "perfbench/workloads.hh"

namespace
{

using perfbench::Tracer;

/** VmHWM of this process in MiB, 0 when /proc is unavailable. */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        std::string rest;
        std::getline(status, rest);
    }
    return 0.0;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printSpanTable(const Tracer& t)
{
    std::fprintf(stderr, "%-20s %7s %11s %10s %16s\n", "span", "count",
                 "total_ms", "median_ms", "tail");
    for (const auto& [name, s] : t.summaries()) {
        std::string tail = "n<20";
        if (s.tailPercentile) {
            std::ostringstream out;
            out << "p" << *s.tailPercentile << "=" << s.tailMs;
            tail = out.str();
        }
        std::fprintf(stderr, "%-20s %7zu %11.3f %10.4f %16s\n",
                     name.c_str(), s.count, s.totalMs, s.medianMs,
                     tail.c_str());
    }
}

int
usage(const std::string& why)
{
    std::cerr << "perfbench_worker: " << why
              << "\nusage: perfbench_worker --workload "
                 "infer|sweep|automata --seed N [--trace 0|1] "
                 "[--start SECONDS] [--trace-file PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    double startS = perfbench::monotonicSeconds();
    std::string workload;
    std::string traceFile;
    uint64_t seed = 0;
    bool seeded = false;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        try {
            if (arg == "--workload" && hasValue) {
                workload = argv[++i];
            } else if (arg == "--seed" && hasValue) {
                seed = std::stoull(argv[++i]);
                seeded = true;
            } else if (arg == "--trace" && hasValue) {
                traced = std::string(argv[++i]) == "1";
            } else if (arg == "--start" && hasValue) {
                startS = std::stod(argv[++i]);
            } else if (arg == "--trace-file" && hasValue) {
                traceFile = argv[++i];
            } else {
                return usage("bad argument '" + arg + "'");
            }
        } catch (const std::exception&) {
            return usage("bad value for " + arg);
        }
    }
    if (workload.empty() || !seeded)
        return usage("--workload and --seed are required");

    Tracer& tracer = Tracer::instance();
    tracer.enable(traced);
    perfbench::RunResult r;
    try {
        r = perfbench::runWorkload(workload, seed, startS);
    } catch (const std::invalid_argument& e) {
        return usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "perfbench_worker: " << workload << " aborted: "
                  << e.what() << "\n";
        return 3;
    }

    std::ostringstream json;
    json.precision(17);
    json << "{\"workload\":" << jsonString(workload)
         << ",\"seed\":" << seed << ",\"traced\":" << traced
         << ",\"setup_s\":" << r.setupS << ",\"run_s\":" << r.runS
         << ",\"peak_rss_mib\":" << peakRssMib()
         << ",\"attempted\":" << r.ops.attempted()
         << ",\"failed\":" << r.ops.failed() << ",\"loads\":" << r.loads
         << ",\"digest\":" << jsonString(perfbench::digestOf(r.outputs))
         << ",\"failures\":[";
    for (std::size_t i = 0; i < r.ops.failures().size(); ++i)
        json << (i ? "," : "") << jsonString(r.ops.failures()[i]);
    json << "],\"spans\":{";
    bool first = true;
    for (const auto& [name, s] : tracer.summaries()) {
        json << (first ? "" : ",") << jsonString(name)
             << ":{\"count\":" << s.count << ",\"total_ms\":" << s.totalMs
             << ",\"median_ms\":" << s.medianMs << ",\"tail_percentile\":"
             << s.tailPercentile.value_or(0.0) << ",\"tail_ms\":" << s.tailMs
             << "}";
        first = false;
    }
    json << "},\"counters\":{";
    first = true;
    for (const auto& [name, value] : tracer.counters()) {
        json << (first ? "" : ",") << jsonString(name) << ":" << value;
        first = false;
    }
    json << "}}";
    if (traced) {
        printSpanTable(tracer);
        if (!traceFile.empty())
            tracer.writeChromeTrace(traceFile);
    }

    for (const std::string& f : r.ops.failures())
        std::cerr << "FAILED: " << f << "\n";
    for (const std::string& n : r.notes)
        std::cerr << "UNVERIFIED: " << n << "\n";
    std::cerr << workload << " seed " << seed << ": setup "
              << r.setupS << " s, run " << r.runS << " s, "
              << r.ops.failed() << "/" << r.ops.attempted()
              << " failed, " << r.loads << " loads\n";
    std::cout << json.str() << std::endl;
    return r.ops.failed() == 0 ? 0 : 1;
}
