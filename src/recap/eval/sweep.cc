#include "recap/eval/sweep.hh"

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/eval/multi_kernel.hh"
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
 * Measures every job into its own cell slot. Policy cells sharing a
 * (geometry, trace) pair — every row of one sweep column — run as one
 * simulatePoliciesBatch call (eval/multi_kernel.hh), which simulates
 * each distinct compiled table once. Cell i keeps the stream
 * deriveTaskSeed(opts.seed, i) as its lane seed, so the grid stays
 * the same pure function of (jobs, opts.seed) as the per-cell path,
 * regardless of opts.numThreads. OPT cells are not policy automata
 * and keep the per-cell path.
 */
std::vector<SweepCell>
measureAll(const std::vector<CellJob>& jobs, const SweepOptions& opts)
{
    std::vector<SweepCell> cells(jobs.size());

    struct Batch
    {
        std::vector<std::size_t> jobIdx;
    };
    std::vector<Batch> batches;
    std::vector<std::size_t> optIdx;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].spec == "OPT") {
            optIdx.push_back(i);
            continue;
        }
        bool placed = false;
        for (auto& batch : batches) {
            const CellJob& head = jobs[batch.jobIdx.front()];
            if (head.geom == jobs[i].geom &&
                head.trace == jobs[i].trace) {
                batch.jobIdx.push_back(i);
                placed = true;
                break;
            }
        }
        if (!placed)
            batches.push_back({{i}});
    }

    for (const auto& batch : batches) {
        const CellJob& head = jobs[batch.jobIdx.front()];
        MultiPolicyOptions mopts;
        mopts.numThreads = opts.numThreads;
        std::vector<std::string> specs;
        specs.reserve(batch.jobIdx.size());
        for (const std::size_t i : batch.jobIdx) {
            specs.push_back(jobs[i].spec);
            mopts.laneSeeds.push_back(deriveTaskSeed(opts.seed, i));
        }
        const std::vector<cache::LevelStats> stats =
            simulatePoliciesBatch(head.geom, specs, *head.trace,
                                  mopts);
        for (std::size_t n = 0; n < batch.jobIdx.size(); ++n) {
            const std::size_t i = batch.jobIdx[n];
            cells[i] = makeCell(jobs[i], stats[n]);
        }
    }

    parallelFor(optIdx.size(), opts.numThreads, [&](std::size_t n) {
        const std::size_t i = optIdx[n];
        cells[i] = makeCell(jobs[i], simulateOpt(jobs[i].geom,
                                                 *jobs[i].trace));
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
