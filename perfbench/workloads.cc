#include "perfbench/workloads.hh"

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "perfbench/tracer.hh"
#include "recap/cache/hierarchy.hh"
#include "recap/common/parallel.hh"
#include "recap/eval/hierarchy_eval.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/eval/opt.hh"
#include "recap/eval/predictability.hh"
#include "recap/eval/sweep.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/equivalence.hh"
#include "recap/infer/naming.hh"
#include "recap/infer/pipeline.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/permutation.hh"
#include "recap/query/oracle.hh"
#include "recap/sec/evict_strategy.hh"
#include "recap/sec/profile.hh"
#include "recap/trace/generators.hh"

namespace perfbench
{

namespace
{

using namespace recap;

/** Joins @p parts with single spaces (one output line). */
template <typename... Parts>
std::string
line(const Parts&... parts)
{
    std::ostringstream out;
    out.precision(17);
    ((out << parts << ' '), ...);
    std::string s = out.str();
    s.pop_back();
    return s;
}

/**
 * compiledTableFor() for one (spec, ways), in its own span. The
 * compile memo is process-wide, so a spec compiles on its first
 * request only; the states and over-budget counters therefore count
 * each distinct table once.
 */
policy::CompiledTablePtr
compileTable(const std::string& spec, unsigned ways)
{
    policy::CompiledTablePtr table;
    {
        Span span("policy.compile");
        table = policy::compiledTableFor(spec, ways);
    }
    static std::set<std::pair<std::string, unsigned>> seen;
    if (Tracer::instance().enabled() && seen.emplace(spec, ways).second) {
        count("policy.compile_requests", 1);
        if (table)
            count("policy.compile_states", table->numStates());
        else
            count("policy.compile_over_budget", 1);
    }
    return table;
}

// ---------------------------------------------------------------- infer
//
// Full pipeline inference on four reduced Table 2 machines. Together
// they take every inference path: LRU/PLRU permutation inference
// (atom, core2), QLRU at 12 ways by candidate search (sandybridge) and
// set-dueling detection (ivybridge). Options are the defaults (probe
// seed 99) with every thread knob at 1.
//
// The untraced run calls infer::inferMachine itself, so run_s and
// loads are the program's own. The traced run issues inferMachine's
// stages one by one so each gets a span; run.py requires its outputs
// and loads to equal the untraced run's, which keeps this copy of the
// orchestration honest.

const std::vector<std::string> kInferMachines = {
    "atom-d525", "core2-e6300", "sandybridge-i5", "ivybridge-i5"};
constexpr unsigned kInferReducedSets = 1024;

struct InferTarget
{
    hw::MachineSpec spec;
    std::unique_ptr<hw::Machine> machine;
};

std::string
levelTag(unsigned level)
{
    return "L" + std::to_string(level + 1);
}

/** inferMachine's set-dueling branch (non-robust options). */
infer::LevelReport
adaptiveLevel(infer::MeasurementContext& ctx,
              const infer::DiscoveredGeometry& geo, unsigned level,
              const infer::AdaptiveReport& adaptive,
              const infer::InferenceOptions& opts)
{
    infer::LevelReport lvl;
    lvl.levelName = levelTag(level);
    lvl.geometry = geo.levels[level];
    lvl.adaptive = true;
    lvl.adaptiveSelected = adaptive.policySelected.verdict;
    lvl.adaptiveUnselected = adaptive.policyUnselected.verdict;
    const unsigned ways = lvl.geometry.ways;
    auto pretty = [&](const std::string& spec) {
        return spec.empty() ? std::string("?")
                            : infer::prettySpecName(spec, ways);
    };
    lvl.verdict = "adaptive (set dueling): " +
                  pretty(lvl.adaptiveSelected) + " vs " +
                  pretty(lvl.adaptiveUnselected);
    if (!adaptive.leadersSelected.empty() &&
        !lvl.adaptiveSelected.empty()) {
        infer::SetProberConfig pc;
        pc.baseAddr = opts.adaptive.baseAddr +
                      static_cast<uint64_t>(geo.lineSize) *
                          adaptive.leadersSelected.front();
        pc.voteRepeats = opts.voteRepeats;
        pc.vote = opts.robust.vote;
        infer::SetProber prober(ctx, geo, level, pc);
        const auto model =
            policy::makePolicy(lvl.adaptiveSelected, ways);
        lvl.agreement = infer::measureAgreement(
            prober, *model, opts.agreementRounds, opts.seed + level);
    }
    return lvl;
}

/**
 * inferMachine's stages (non-robust options, quorum 1), one span each.
 * Before a level whose truth is not a permutation policy, which is a
 * level that reaches candidate search, the candidates' tables are
 * requested in a span of their own; the memo then serves them to
 * CandidateSearch, so the work is unchanged and policy.compile_ms
 * shows the compile share without a profiler.
 */
std::vector<infer::LevelReport>
inferStaged(InferTarget& target, const infer::InferenceOptions& opts)
{
    std::vector<infer::LevelReport> levels;
    infer::MeasurementContext ctx(*target.machine);
    infer::DiscoveredGeometry geo;
    {
        Span span("infer.geometry");
        infer::GeometryProbeConfig gcfg = opts.geometry;
        gcfg.voteRepeats = std::max(gcfg.voteRepeats, opts.voteRepeats);
        const uint64_t before = ctx.loadsIssued();
        infer::GeometryProbe probe(ctx, gcfg);
        geo = probe.discoverAll();
        count("infer.geometry_loads",
              static_cast<double>(ctx.loadsIssued() - before));
    }
    for (unsigned level = 0; level < target.machine->depth(); ++level) {
        const uint64_t levelStart = ctx.loadsIssued();
        const hw::CacheLevelSpec& truth = target.spec.levels[level];
        const bool searched =
            truth.isAdaptive() ||
            !policy::PermutationPolicy::derive(
                *policy::makePolicy(truth.policySpec, truth.ways));
        if (level < geo.levels.size() && searched) {
            const unsigned ways = geo.levels[level].ways;
            for (const auto& spec : infer::defaultCandidateSpecs(ways))
                if (policy::specSupportsWays(spec, ways))
                    compileTable(spec, ways);
        }

        infer::AdaptiveReport adaptive;
        {
            Span span("infer.adaptive");
            infer::AdaptiveDetectConfig acfg = opts.adaptive;
            acfg.voteRepeats =
                std::max(acfg.voteRepeats, opts.voteRepeats);
            acfg.search = opts.search;
            adaptive = infer::detectAdaptive(ctx, geo, level, acfg);
            count("infer.adaptive_loads",
                  static_cast<double>(ctx.loadsIssued() - levelStart));
        }

        infer::LevelReport lvl;
        if (adaptive.adaptive && !adaptive.constituentsIdentical) {
            Span span("infer.adaptive");
            lvl = adaptiveLevel(ctx, geo, level, adaptive, opts);
        } else {
            Span span("infer.perm_level");
            const uint64_t loads = ctx.loadsIssued();
            const uint64_t experiments = ctx.experimentsRun();
            lvl = infer::inferLevelAt(ctx, geo, level,
                                      infer::SetProberConfig{}.baseAddr,
                                      opts);
            if (!lvl.isPermutation)
                span.rename("infer.search_level");
            count("infer.level_loads",
                  static_cast<double>(ctx.loadsIssued() - loads));
            count("infer.level_experiments",
                  static_cast<double>(ctx.experimentsRun() -
                                      experiments));
            lvl.heterogeneousOnly = adaptive.heterogeneousOnly;
        }
        lvl.loadsUsed = ctx.loadsIssued() - levelStart;
        levels.push_back(std::move(lvl));
    }
    return levels;
}

RunResult
runInfer(uint64_t seed, double startS)
{
    RunResult r;
    std::vector<InferTarget> targets;
    for (std::size_t i = 0; i < kInferMachines.size(); ++i) {
        InferTarget t;
        t.spec = hw::reducedSpec(hw::catalogMachine(kInferMachines[i]),
                                 kInferReducedSets);
        {
            Span span("hw.build");
            t.machine = std::make_unique<hw::Machine>(
                t.spec, deriveTaskSeed(seed, i));
        }
        targets.push_back(std::move(t));
    }
    r.setupS = monotonicSeconds() - startS;

    infer::InferenceOptions opts;
    opts.search.numThreads = 1;
    opts.learning.learner.numThreads = 1;
    const bool staged = Tracer::instance().enabled();

    std::vector<std::vector<infer::LevelReport>> reports(targets.size());
    std::vector<std::string> errors(targets.size());
    const double timedStart = monotonicSeconds();
    for (std::size_t i = 0; i < targets.size(); ++i) {
        try {
            if (staged)
                reports[i] = inferStaged(targets[i], opts);
            else
                reports[i] =
                    infer::inferMachine(*targets[i].machine, opts).levels;
        } catch (const std::exception& e) {
            errors[i] = e.what();
        }
        r.loads += targets[i].machine->loadsIssued();
    }
    r.runS = monotonicSeconds() - timedStart;

    for (std::size_t i = 0; i < targets.size(); ++i) {
        const InferTarget& t = targets[i];
        for (std::size_t level = 0; level < t.spec.levels.size();
             ++level) {
            const std::string where = t.spec.name + " " +
                                      levelTag(level) + ": ";
            if (level >= reports[i].size() || !errors[i].empty()) {
                r.ops.fail(where + "not inferred (" + errors[i] + ")");
                r.outputs.push_back(where + "error " + errors[i]);
                continue;
            }
            const infer::LevelReport& lvl = reports[i][level];
            const hw::CacheLevelSpec& truth = t.spec.levels[level];
            std::string why;
            Match match = Match::kDifferent;
            if (lvl.geometry.ways != truth.ways ||
                lvl.geometry.numSets != truth.geometry().numSets) {
                r.ops.fail(where + "geometry " +
                           std::to_string(lvl.geometry.numSets) + "x" +
                           std::to_string(lvl.geometry.ways) +
                           " differs from the truth");
            } else {
                match = verdictMatchesTruth(lvl, truth, why);
                r.ops.record(match != Match::kDifferent, where + why);
                if (match == Match::kUnverified)
                    r.notes.push_back(where + why);
            }
            r.outputs.push_back(line(
                where + lvl.verdict, "|", lvl.diagnostics, "|",
                lvl.agreement, lvl.loadsUsed, lvl.survivors.size(),
                matchName(match)));
        }
        r.outputs.push_back(line(t.spec.name, "loads",
                                 t.machine->loadsIssued()));
    }
    return r;
}

// ---------------------------------------------------------------- sweep
//
// The simulation engines over long traces with compilation nearly idle:
// the Fig. 3 policy x workload grid (multi-policy batch kernel plus the
// OPT row), a Fig. 4 size sweep whose working set moves across the
// modelled cache, and the compiled hierarchy walk over every catalog
// machine.

constexpr uint64_t kSweepCacheBytes = 32 * 1024;
constexpr unsigned kSweepWays = 8;

/** Interpreted reference (cache::Cache) miss count of one cell. */
uint64_t
referenceMisses(const cache::Geometry& geom, const std::string& spec,
                const trace::Trace& t, uint64_t seed)
{
    cache::Cache c(geom, spec, "reference", seed);
    for (const cache::Addr a : t)
        c.access(a);
    return c.stats().misses;
}

RunResult
runSweep(uint64_t seed, double startS)
{
    RunResult r;
    std::vector<trace::Workload> suite;
    trace::Trace sizeTrace;
    trace::Trace hierTrace;
    {
        Span span("trace.gen");
        suite = trace::specLikeSuite({kSweepCacheBytes, 100'000, seed});
    }
    {
        // The suite's zipf-db shape over 1 MiB: its working set crosses
        // every capacity of the size sweep.
        Span span("trace.gen");
        sizeTrace = trace::zipf(1024 * 1024, 100'000, 0.9,
                                deriveTaskSeed(seed, 1));
    }
    {
        // Reuse over 16 MiB and random traffic over 2 MiB, so the L2
        // and L3 of every catalog machine see hits and misses.
        Span span("trace.gen");
        hierTrace = trace::concatTraces(
            {trace::zipf(16 * 1024 * 1024, 190'000, 0.9,
                         deriveTaskSeed(seed, 2)),
             trace::randomUniform(2 * 1024 * 1024, 60'000,
                                  deriveTaskSeed(seed, 3))});
    }
    const std::vector<hw::MachineSpec> machines = hw::intelCatalog();
    const std::vector<std::string> specs = policy::catalogSpecs();
    const auto geom = cache::Geometry::fromCapacity(kSweepCacheBytes,
                                                    kSweepWays, 64);
    r.setupS = monotonicSeconds() - startS;

    // Grid cell (spec s, workload w) keeps the sweep's per-cell seed.
    auto cellSeed = [&](std::size_t s, std::size_t w) {
        return deriveTaskSeed(seed, s * suite.size() + w);
    };
    std::vector<std::vector<cache::LevelStats>> grid(suite.size());
    std::vector<cache::LevelStats> opt(suite.size());
    eval::SweepResult sizes;
    std::vector<eval::HierarchyResult> hier(machines.size());

    const double timedStart = monotonicSeconds();
    for (std::size_t w = 0; w < suite.size(); ++w) {
        Span span("eval.batch");
        eval::MultiPolicyOptions mopts;
        mopts.numThreads = 1;
        for (std::size_t s = 0; s < specs.size(); ++s)
            mopts.laneSeeds.push_back(cellSeed(s, w));
        grid[w] = eval::simulatePoliciesBatch(geom, specs,
                                              suite[w].trace, mopts);
        count("eval.batch_accesses",
              static_cast<double>(specs.size() * suite[w].trace.size()));
    }
    for (std::size_t w = 0; w < suite.size(); ++w) {
        Span span("eval.opt");
        opt[w] = eval::simulateOpt(geom, suite[w].trace);
    }
    {
        Span span("eval.kernel");
        eval::SweepOptions sopts;
        sopts.seed = seed;
        sopts.numThreads = 1;
        sopts.includeOpt = false;
        sizes = eval::sizeSweep(policy::baselineSpecs(), sizeTrace,
                                4 * 1024, 1024 * 1024, kSweepWays, 64,
                                sopts);
    }
    for (std::size_t m = 0; m < machines.size(); ++m) {
        Span span("hier.run");
        hier[m] = eval::evaluateHierarchy(machines[m], hierTrace, seed);
        count("hier.accesses", static_cast<double>(hierTrace.size()));
    }
    r.runS = monotonicSeconds() - timedStart;

    // Checks. Every cell counts all of its trace's accesses and never
    // more misses than accesses; OPT lower-bounds every policy; a fixed
    // sample re-simulates on the interpreted cache::Cache reference.
    auto sane = [](const cache::LevelStats& s, std::size_t n) {
        return s.accesses == n && s.misses <= s.accesses &&
               s.hits + s.misses == s.accesses;
    };
    const std::vector<std::string> sampleSpecs = {
        "lru", "random", "qlru:H1,M3,R0,U2", "ship", "drrip"};
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const std::size_t n = suite[w].trace.size();
        for (std::size_t s = 0; s < specs.size(); ++s) {
            const cache::LevelStats& cell = grid[w][s];
            const std::string where = specs[s] + "/" + suite[w].name;
            bool ok = sane(cell, n) && opt[w].misses <= cell.misses;
            if (ok && w % 4 == 0 &&
                std::find(sampleSpecs.begin(), sampleSpecs.end(),
                          specs[s]) != sampleSpecs.end()) {
                ok = referenceMisses(geom, specs[s], suite[w].trace,
                                     cellSeed(s, w)) == cell.misses;
            }
            r.ops.record(ok, "batch cell " + where + " is wrong");
            r.outputs.push_back(line(where, cell.misses));
            r.loads += cell.accesses;
        }
        r.ops.record(sane(opt[w], n), "OPT cell " + suite[w].name);
        r.outputs.push_back(line("OPT/" + suite[w].name, opt[w].misses));
        r.loads += opt[w].accesses;
    }
    for (std::size_t i = 0; i < sizes.cells.size(); ++i) {
        const eval::SweepCell& cell = sizes.cells[i];
        bool ok = cell.accesses == sizeTrace.size() &&
                  cell.misses <= cell.accesses;
        if (ok && i % 8 == 3) {
            const auto g = cache::Geometry::fromCapacity(
                std::stoull(cell.columnLabel), kSweepWays, 64);
            ok = referenceMisses(g, cell.rowLabel, sizeTrace,
                                 deriveTaskSeed(seed, i)) == cell.misses;
        }
        r.ops.record(ok, "size cell " + cell.rowLabel + "@" +
                             cell.columnLabel + " is wrong");
        r.outputs.push_back(line(cell.rowLabel, cell.columnLabel,
                                 cell.misses));
        r.loads += cell.accesses;
    }
    for (std::size_t m = 0; m < machines.size(); ++m) {
        const eval::HierarchyResult& h = hier[m];
        bool ok = h.accesses == hierTrace.size() &&
                  std::accumulate(h.servedBy.begin(), h.servedBy.end(),
                                  uint64_t{0}) == h.accesses;
        if (ok && (m == 0 || machines[m].name == "ivybridge-i5")) {
            cache::Hierarchy ref = eval::buildHierarchy(machines[m], seed);
            std::vector<uint64_t> served(ref.depth() + 1, 0);
            for (const cache::Addr a : hierTrace)
                ++served[ref.access(a)];
            ok = served == h.servedBy;
        }
        r.ops.record(ok, "hierarchy " + machines[m].name + " is wrong");
        std::string servedBy;
        for (const uint64_t s : h.servedBy)
            servedBy += std::to_string(s) + " ";
        r.outputs.push_back(line(machines[m].name, servedBy,
                                 h.totalCycles));
        r.loads += h.accesses;
    }
    return r;
}

// ------------------------------------------------------------- automata
//
// Many small compiled tables, explored rather than walked: catalog
// compilation at 2/4/8 ways, pairwise equivalence classes of the 4-way
// candidate family plus QLRU pairs at 8 ways, the security sweep at 2
// and 4 ways, a slice of the predictability sweep, and L* against
// three classic policies. Uses policy:: the opposite way from infer
// (many small tables, not a few big ones).

const std::vector<unsigned> kCompileWays = {2, 4, 8};
const std::vector<unsigned> kSecurityWays = {2, 4};
const std::vector<std::pair<std::string, std::string>> kQlruPairs8 = {
    {"qlru:H1,M3,R0,U2", "qlru:H1,M2,R0,U0"},
    {"qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2"},
    {"qlru:H1,M1,R0,U0", "qlru:H1,M1,R1,U0"}};
/** Left out of the predictability slice: "random" and "drrip" alone
 *  take 8 s and 11 s at {2, 4} ways. */
const std::vector<std::string> kPredictSkipped = {"random", "drrip"};
const std::vector<std::string> kLearnSpecs = {"lru", "plru", "fifo"};
constexpr unsigned kLearnWays = 4;

// Pinned outputs, measured at the commit that added the benchmark.
/** Per kCompileWays entry: catalog specs that compile within budget,
 *  and their tables' states in total. */
struct CompilePin
{
    unsigned compiled;
    uint64_t states;
};
const std::vector<CompilePin> kCompilePins = {
    {16, 59'956}, {15, 127'836}, {10, 448'692}};
constexpr unsigned kEquivalentPairs4 = 16;
constexpr unsigned kEquivalenceClasses4 = 48;
const std::vector<unsigned> kLearnedStates = {206, 206, 206};

/** Number of classes of the equivalence relation given by @p pairs. */
unsigned
classCount(std::size_t n,
           const std::vector<std::pair<std::size_t, std::size_t>>& pairs)
{
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](std::size_t x) {
        while (parent[x] != x)
            x = parent[x] = parent[parent[x]];
        return x;
    };
    unsigned classes = static_cast<unsigned>(n);
    for (const auto& [a, b] : pairs) {
        const std::size_t ra = find(a);
        const std::size_t rb = find(b);
        if (ra != rb) {
            parent[ra] = rb;
            --classes;
        }
    }
    return classes;
}

/** No seed: every input here is a fixed spec list (see the learner). */
RunResult
runAutomata(double startS)
{
    RunResult r;
    const std::vector<std::string> catalog = policy::catalogSpecs();
    std::vector<std::string> family4;
    for (const auto& spec : infer::defaultCandidateSpecs(4))
        if (policy::specSupportsWays(spec, 4))
            family4.push_back(spec);
    std::vector<std::unique_ptr<query::PolicyOracle>> oracles;
    for (const auto& spec : kLearnSpecs)
        oracles.push_back(
            std::make_unique<query::PolicyOracle>(spec, kLearnWays));
    r.setupS = monotonicSeconds() - startS;

    struct CompileRow
    {
        std::string spec;
        unsigned ways;
        uint32_t states; ///< 0 when over budget
    };
    struct EquivRow
    {
        std::string a, b;
        unsigned ways;
        infer::EquivalenceResult result;
    };
    struct LearnRow
    {
        std::string spec;
        learn::LearnResult result;
        uint64_t accesses;
    };
    std::vector<CompileRow> compiled;
    std::vector<EquivRow> equiv;
    std::vector<std::pair<std::size_t, std::size_t>> equivalent4;
    std::vector<sec::SecurityProfile> profiles;
    std::vector<eval::PredictabilityRow> predict;
    std::vector<LearnRow> learned;

    // securitySweep's cells run here one by one, on this thread.
    const sec::ProfileConfig secCfg;
    eval::PredictabilityConfig predCfg;
    predCfg.numThreads = 1;

    const double timedStart = monotonicSeconds();
    for (const unsigned ways : kCompileWays)
        for (const auto& spec : catalog)
            if (policy::specSupportsWays(spec, ways)) {
                const auto table = compileTable(spec, ways);
                compiled.push_back(
                    {spec, ways, table ? table->numStates() : 0});
            }

    auto checkPair = [&](const std::string& a, const std::string& b,
                         unsigned ways) {
        Span span("infer.equiv");
        const auto pa = policy::makePolicy(a, ways);
        const auto pb = policy::makePolicy(b, ways);
        EquivRow row{a, b, ways, infer::checkEquivalence(*pa, *pb)};
        count("infer.equiv_pairs", 1);
        count("infer.equiv_states",
              static_cast<double>(row.result.statesExplored));
        count("infer.equiv_equivalent", row.result.equivalent ? 1 : 0);
        equiv.push_back(std::move(row));
        return equiv.back().result.equivalent;
    };
    for (std::size_t i = 0; i < family4.size(); ++i)
        for (std::size_t j = i + 1; j < family4.size(); ++j)
            if (checkPair(family4[i], family4[j], 4))
                equivalent4.emplace_back(i, j);
    for (const auto& [a, b] : kQlruPairs8)
        checkPair(a, b, 8);

    // sec::securitySweep's cells, with securityProfile()'s three
    // analyses issued one by one so each gets its span.
    for (const auto& spec : catalog)
        for (const unsigned ways : kSecurityWays) {
            if (!policy::specSupportsWays(spec, ways))
                continue;
            sec::SecurityProfile p;
            p.spec = spec;
            p.ways = ways;
            const auto view = sec::viewForSpec(spec, ways, secCfg.budget);
            if (view) {
                p.compiled = true;
                {
                    Span span("sec.evict");
                    p.evict = sec::evictStrategy(*view, secCfg.budget);
                }
                {
                    Span span("sec.stealth");
                    p.stealth = sec::stealthProbe(*view, secCfg.budget);
                }
                {
                    Span span("sec.observe");
                    p.observe = sec::observability(*view, secCfg.observe,
                                                   secCfg.budget);
                }
                count("sec.configs_explored",
                      static_cast<double>(p.evict.configsExplored +
                                          p.stealth.configsExplored +
                                          p.observe.configsExplored));
            }
            profiles.push_back(std::move(p));
        }

    for (const auto& spec : catalog) {
        if (std::find(kPredictSkipped.begin(), kPredictSkipped.end(),
                      spec) != kPredictSkipped.end())
            continue;
        Span span("eval.predict");
        for (auto& row :
             eval::predictabilitySweep({spec}, kSecurityWays, predCfg))
            predict.push_back(std::move(row));
    }

    for (std::size_t i = 0; i < kLearnSpecs.size(); ++i) {
        Span span("learn.lstar");
        learn::OracleTeacher teacher(*oracles[i]);
        // The learner's random words keep the library's default seed:
        // seeded from the workload seed they move L*'s accesses by 25%
        // and the peak RSS by 15% from seed to seed.
        learn::LearnOptions lo;
        lo.numThreads = 1;
        learn::LStarLearner learner(teacher, lo);
        learned.push_back({kLearnSpecs[i], learner.run(),
                           teacher.accessesUsed()});
        r.loads += teacher.accessesUsed();
        count("learn.membership_words",
              static_cast<double>(learned.back().result.membershipWords));
        count("learn.equivalence_words",
              static_cast<double>(
                  learned.back().result.equivalenceWords));
        count("query.accesses",
              static_cast<double>(teacher.accessesUsed()));
    }
    r.runS = monotonicSeconds() - timedStart;

    // Checks and outputs, one operation per analysis row; the compile
    // grid is one operation per way count, against its pinned totals.
    for (std::size_t w = 0; w < kCompileWays.size(); ++w) {
        CompilePin got{0, 0};
        for (const CompileRow& row : compiled) {
            if (row.ways != kCompileWays[w])
                continue;
            got.compiled += row.states > 0;
            got.states += row.states;
            r.outputs.push_back(line("compile", row.spec, row.ways,
                                     row.states));
        }
        r.ops.record(got.compiled == kCompilePins[w].compiled &&
                         got.states == kCompilePins[w].states,
                     "compile catalog@" + std::to_string(kCompileWays[w]) +
                         ": " + std::to_string(got.compiled) +
                         " tables, " + std::to_string(got.states) +
                         " states");
    }
    // Every verdict must be exact: an equivalence exhausts the product
    // space, and a counterexample really distinguishes the pair.
    for (const EquivRow& row : equiv) {
        bool ok = row.result.exhausted;
        if (ok && !row.result.equivalent)
            ok = distinguishes(*policy::makePolicy(row.a, row.ways),
                               *policy::makePolicy(row.b, row.ways),
                               row.result.counterexample);
        r.ops.record(ok, "equivalence " + row.a + " vs " + row.b + "@" +
                             std::to_string(row.ways) +
                             (row.result.exhausted
                                  ? ": counterexample does not distinguish"
                                  : ": product space not exhausted"));
        r.outputs.push_back(line("equiv", row.a, row.b, row.ways,
                                 row.result.equivalent,
                                 row.result.statesExplored));
    }
    const unsigned classes = classCount(family4.size(), equivalent4);
    r.ops.record(equivalent4.size() == kEquivalentPairs4 &&
                     classes == kEquivalenceClasses4,
                 "4-way family: " + std::to_string(equivalent4.size()) +
                     " equivalent pairs in " + std::to_string(classes) +
                     " classes");
    r.outputs.push_back(line("classes4", equivalent4.size(), classes));

    for (const sec::SecurityProfile& p : profiles) {
        bool ok = true;
        std::string why;
        if (p.spec == "lru" || p.spec == "fifo") {
            ok = p.compiled && !p.evict.pureMissUnbounded &&
                 p.evict.pureMissLen == p.ways &&
                 p.evict.informedLen == p.ways;
            why = "does not evict in exactly " + std::to_string(p.ways) +
                  " accesses";
        }
        if (ok && (p.spec == "lru" || p.spec == "fifo" ||
                   p.spec == "plru")) {
            const sec::EvictCrossCheck cc =
                sec::crossCheckEvictBound(p.spec, p.ways, secCfg.budget);
            ok = cc.consistent;
            why = "evict cross-check: " + cc.detail;
        }
        r.ops.record(ok, "security " + p.spec + "@" +
                             std::to_string(p.ways) + " " + why);
        r.outputs.push_back(line("sec", p.spec, p.ways, p.compiled,
                                 p.evict.render(),
                                 p.stealth.configsExplored,
                                 p.observe.patterns,
                                 p.observe.leakedBits));
    }
    for (const eval::PredictabilityRow& row : predict) {
        bool ok = true;
        if (row.spec == "lru")
            ok = row.evictBound.value &&
                 *row.evictBound.value == row.ways - 1;
        r.ops.record(ok, "predictability " + row.spec + "@" +
                             std::to_string(row.ways));
        r.outputs.push_back(line("predict", row.spec, row.ways,
                                 row.turnover.render(),
                                 row.evictBound.render()));
    }
    for (std::size_t i = 0; i < learned.size(); ++i) {
        const LearnRow& row = learned[i];
        const bool ok =
            row.result.outcome == learn::LearnOutcome::kLearned &&
            row.result.states == kLearnedStates[i];
        r.ops.record(ok, "L* on " + row.spec + "@4 learned " +
                             std::to_string(row.result.states) +
                             " states");
        r.outputs.push_back(line("learn", row.spec, row.result.states,
                                 row.result.membershipWords,
                                 row.result.equivalenceWords,
                                 row.accesses));
    }
    return r;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"infer", "sweep",
                                                   "automata"};
    return names;
}

RunResult
runWorkload(const std::string& name, uint64_t seed, double startS)
{
    if (name == "infer")
        return runInfer(seed, startS);
    if (name == "sweep")
        return runSweep(seed, startS);
    if (name == "automata")
        return runAutomata(startS);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
