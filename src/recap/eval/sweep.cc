#include "recap/eval/sweep.hh"

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/eval/opt.hh"
#include "recap/eval/simulate.hh"
#include "recap/policy/factory.hh"

namespace recap::eval
{

namespace
{

/** One cell of work, fully described before any measurement runs. */
struct CellJob
{
    cache::Geometry geom;
    std::string spec;
    const trace::Trace* trace = nullptr;
    std::string rowLabel;
    std::string columnLabel;
};

SweepCell
makeCell(const CellJob& job, const cache::LevelStats& stats)
{
    SweepCell cell;
    cell.rowLabel = job.rowLabel;
    cell.columnLabel = job.columnLabel;
    cell.missRatio = stats.missRatio();
    cell.misses = stats.misses;
    cell.accesses = stats.accesses;
    return cell;
}

/**
 * Measures every job into its own cell slot. Cell i simulates with
 * the stream deriveTaskSeed(opts.seed, i), so the grid is a pure
 * function of (jobs, opts.seed), regardless of opts.numThreads.
 */
std::vector<SweepCell>
measureAll(const std::vector<CellJob>& jobs, const SweepOptions& opts)
{
    std::vector<SweepCell> cells(jobs.size());
    parallelFor(jobs.size(), opts.numThreads, [&](std::size_t i) {
        const CellJob& job = jobs[i];
        cells[i] = makeCell(
            job, job.spec == "OPT"
                     ? simulateOpt(job.geom, *job.trace)
                     : simulateTrace(job.geom, job.spec, *job.trace,
                                     deriveTaskSeed(opts.seed, i)));
    });
    return cells;
}

} // namespace

const SweepCell&
SweepResult::at(const std::string& row, const std::string& column) const
{
    for (const auto& cell : cells)
        if (cell.rowLabel == row && cell.columnLabel == column)
            return cell;
    throw UsageError("SweepResult::at: no cell (" + row + ", " +
                     column + ")");
}

SweepResult
policyWorkloadSweep(const cache::Geometry& geom,
                    const std::vector<std::string>& policySpecs,
                    const std::vector<trace::Workload>& workloads,
                    const SweepOptions& opts)
{
    geom.validate();
    SweepResult result;
    for (const auto& w : workloads)
        result.columnLabels.push_back(w.name);

    std::vector<std::string> rows;
    for (const auto& spec : policySpecs)
        if (policy::specSupportsWays(spec, geom.ways))
            rows.push_back(spec);
    if (opts.includeOpt)
        rows.push_back("OPT");

    std::vector<CellJob> jobs;
    for (const auto& spec : rows) {
        result.rowLabels.push_back(spec);
        for (const auto& w : workloads)
            jobs.push_back({geom, spec, &w.trace, spec, w.name});
    }
    result.cells = measureAll(jobs, opts);
    return result;
}

SweepResult
policyWorkloadSweep(const cache::Geometry& geom,
                    const std::vector<std::string>& policySpecs,
                    const std::vector<trace::Workload>& workloads,
                    bool includeOpt)
{
    SweepOptions opts;
    opts.includeOpt = includeOpt;
    return policyWorkloadSweep(geom, policySpecs, workloads, opts);
}

SweepResult
sizeSweep(const std::vector<std::string>& policySpecs,
          const trace::Trace& workload, uint64_t minBytes,
          uint64_t maxBytes, unsigned ways, unsigned lineSize,
          const SweepOptions& opts)
{
    require(minBytes >= 1 && minBytes <= maxBytes,
            "sizeSweep: invalid capacity range");
    SweepResult result;

    std::vector<std::string> rows;
    for (const auto& spec : policySpecs)
        if (policy::specSupportsWays(spec, ways))
            rows.push_back(spec);
    if (opts.includeOpt)
        rows.push_back("OPT");
    result.rowLabels = rows;

    for (uint64_t bytes = minBytes; bytes <= maxBytes; bytes *= 2)
        result.columnLabels.push_back(std::to_string(bytes));

    std::vector<CellJob> jobs;
    for (const auto& spec : rows) {
        for (uint64_t bytes = minBytes; bytes <= maxBytes;
             bytes *= 2) {
            const auto geom =
                cache::Geometry::fromCapacity(bytes, ways, lineSize);
            jobs.push_back({geom, spec, &workload, spec,
                            std::to_string(bytes)});
        }
    }
    result.cells = measureAll(jobs, opts);
    return result;
}

SweepResult
sizeSweep(const std::vector<std::string>& policySpecs,
          const trace::Trace& workload, uint64_t minBytes,
          uint64_t maxBytes, unsigned ways, unsigned lineSize,
          bool includeOpt)
{
    SweepOptions opts;
    opts.includeOpt = includeOpt;
    return sizeSweep(policySpecs, workload, minBytes, maxBytes, ways,
                     lineSize, opts);
}

SweepResult
associativitySweep(const std::vector<std::string>& policySpecs,
                   const trace::Trace& workload,
                   uint64_t capacityBytes, unsigned minWays,
                   unsigned maxWays, unsigned lineSize,
                   const SweepOptions& opts)
{
    require(minWays >= 1 && minWays <= maxWays,
            "associativitySweep: invalid ways range");
    SweepResult result;
    for (unsigned ways = minWays; ways <= maxWays; ways *= 2)
        result.columnLabels.push_back(std::to_string(ways));

    std::vector<CellJob> jobs;
    for (const auto& spec : policySpecs) {
        bool row_used = false;
        for (unsigned ways = minWays; ways <= maxWays; ways *= 2) {
            if (!policy::specSupportsWays(spec, ways))
                continue;
            const auto geom = cache::Geometry::fromCapacity(
                capacityBytes, ways, lineSize);
            jobs.push_back({geom, spec, &workload, spec,
                            std::to_string(ways)});
            row_used = true;
        }
        if (row_used)
            result.rowLabels.push_back(spec);
    }
    result.cells = measureAll(jobs, opts);
    return result;
}

SweepResult
associativitySweep(const std::vector<std::string>& policySpecs,
                   const trace::Trace& workload,
                   uint64_t capacityBytes, unsigned minWays,
                   unsigned maxWays, unsigned lineSize)
{
    return associativitySweep(policySpecs, workload, capacityBytes,
                              minWays, maxWays, lineSize,
                              SweepOptions{});
}

} // namespace recap::eval
