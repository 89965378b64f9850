#include "recap/query/oracle.hh"

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"
#include "recap/query/batch.hh"

namespace recap::query
{

std::vector<QueryVerdict>
QueryOracle::evaluateBatch(const std::vector<CompiledQuery>& queries,
                           const BatchOptions& opts, BatchStats* stats)
{
    (void)opts;
    std::vector<QueryVerdict> verdicts;
    verdicts.reserve(queries.size());
    for (const CompiledQuery& q : queries)
        verdicts.push_back(evaluate(q));
    if (stats) {
        stats->queries += queries.size();
        for (const QueryVerdict& v : verdicts) {
            stats->naiveCost += v.accesses;
            stats->sharedCost += v.accesses;
            stats->experimentsRun += v.experiments;
        }
    }
    return verdicts;
}

namespace
{

/**
 * Checks that @p ends split a block array of length @p blocks into
 * non-empty words.
 */
void
requireWordEnds(std::size_t blocks, std::span<const uint32_t> ends)
{
    std::size_t begin = 0;
    for (const uint32_t end : ends) {
        require(end > begin, "observeWords: empty word");
        begin = end;
    }
    require(begin == blocks,
            "observeWords: word ends must end at the block count");
}

} // namespace

std::vector<PositionOutcome>
QueryOracle::observeWords(std::span<const BlockId> blocks,
                          std::span<const uint32_t> ends,
                          const BatchOptions& opts, BatchStats* stats)
{
    requireWordEnds(blocks.size(), ends);
    std::vector<CompiledQuery> queries;
    queries.reserve(ends.size());
    std::size_t begin = 0;
    for (const uint32_t end : ends) {
        queries.push_back(makeObserveAllQuery(
            {blocks.begin() + begin, blocks.begin() + end}));
        begin = end;
    }
    const auto verdicts = evaluateBatch(queries, opts, stats);

    std::vector<PositionOutcome> outcomes;
    outcomes.reserve(blocks.size());
    for (std::size_t w = 0; w < queries.size(); ++w) {
        ensure(verdicts[w].probes.size() == queries[w].steps.size(),
               "observeWords: probe count mismatch");
        for (const ProbeOutcome& probe : verdicts[w].probes)
            outcomes.push_back({probe.hit, probe.determined, probe.level,
                                probe.confidence});
    }
    return outcomes;
}

std::vector<Segment>
splitSegments(const CompiledQuery& query)
{
    std::vector<Segment> segments;
    Segment current;
    for (uint32_t i = 0; i < query.steps.size(); ++i) {
        const Step& step = query.steps[i];
        if (step.flush) {
            if (!current.blocks.empty())
                segments.push_back(std::move(current));
            current = Segment{};
        } else {
            current.blocks.push_back(step.block);
            current.stepIndex.push_back(i);
        }
    }
    if (!current.blocks.empty())
        segments.push_back(std::move(current));
    return segments;
}

PolicyOracle::PolicyOracle(policy::PolicyPtr prototype)
    : prototype_(std::move(prototype))
{
    require(prototype_ != nullptr,
            "PolicyOracle: need a policy prototype");
    spec_ = prototype_->name();
}

PolicyOracle::PolicyOracle(const std::string& spec, unsigned ways,
                           uint64_t seed)
    : prototype_(policy::makePolicy(spec, ways, seed)), spec_(spec),
      specTrusted_(true)
{}

unsigned
PolicyOracle::ways() const
{
    return prototype_->ways();
}

std::string
PolicyOracle::describe() const
{
    return "policy:" + spec_ + " k=" + std::to_string(ways());
}

policy::SetModel
PolicyOracle::freshModel() const
{
    policy::SetModel model(prototype_->clone());
    model.flush();
    return model;
}

policy::CompiledTablePtr
PolicyOracle::compiledTable()
{
    if (!compileAttempted_) {
        compileAttempted_ = true;
        if (specTrusted_) {
            // Spec-constructed oracles share the process-wide table
            // cache: short-lived oracles (one per batch in sweeps)
            // must not re-enumerate a 40k-state automaton each.
            compiled_ = policy::compiledTableFor(spec_,
                                                 prototype_->ways());
        } else {
            // Custom policies handed in by pointer have no parsable
            // spec (name() is just a label), so compile the prototype
            // itself — the table must reflect exactly the automaton
            // queries replay on.
            compiled_ = policy::compilePolicy(*prototype_, {});
        }
    }
    return compiled_;
}

void
PolicyOracle::account(uint64_t experiments, uint64_t accesses)
{
    experiments_ += experiments;
    accesses_ += accesses;
}

QueryVerdict
PolicyOracle::evaluate(const CompiledQuery& query)
{
    checkpoint();
    policy::SetModel model = freshModel();
    QueryVerdict verdict;
    verdict.experiments = 1;
    for (uint32_t i = 0; i < query.steps.size(); ++i) {
        const Step& step = query.steps[i];
        if (step.flush) {
            model.flush();
            continue;
        }
        const bool hit = model.access(step.block);
        ++verdict.accesses;
        if (step.probe) {
            verdict.probes.push_back(
                {i, step.block, hit, hit ? 0u : 1u});
        }
    }
    account(verdict.experiments, verdict.accesses);
    return verdict;
}

std::vector<QueryVerdict>
PolicyOracle::evaluateBatch(const std::vector<CompiledQuery>& queries,
                            const BatchOptions& opts, BatchStats* stats)
{
    if (!opts.prefixSharing)
        return QueryOracle::evaluateBatch(queries, opts, stats);
    checkpoint();
    return batchEvaluateSnapshot(*this, queries, opts, stats);
}

std::vector<PositionOutcome>
PolicyOracle::observeWords(std::span<const BlockId> blocks,
                           std::span<const uint32_t> ends,
                           const BatchOptions& opts, BatchStats* stats)
{
    if (!opts.prefixSharing)
        return QueryOracle::observeWords(blocks, ends, opts, stats);
    requireWordEnds(blocks.size(), ends);
    checkpoint();
    const std::vector<uint8_t> hits =
        batchEvaluateSnapshot(*this, blocks, {}, ends, opts, stats);
    std::vector<PositionOutcome> outcomes;
    outcomes.reserve(hits.size());
    for (const uint8_t hit : hits)
        outcomes.push_back({hit != 0, true, hit != 0 ? 0u : 1u, 1.0});
    return outcomes;
}

MachineOracle::MachineOracle(infer::MeasurementContext& ctx,
                             const infer::DiscoveredGeometry& geom,
                             unsigned targetLevel,
                             const MachineOracleConfig& cfg)
    : owned_(std::make_unique<infer::SetProber>(ctx, geom, targetLevel,
                                                cfg.prober)),
      prober_(owned_.get()), mode_(cfg.mode)
{}

MachineOracle::MachineOracle(infer::SetProber& prober,
                             ObservationMode mode)
    : prober_(&prober), mode_(mode)
{}

void
MachineOracle::setCheckpoint(std::function<void()> hook)
{
    // Deadline propagation: the same hook guards both the segment
    // granularity (observeSegment) and every individual replay inside
    // the prober's vote loops.
    prober_->setCheckpoint(hook);
    QueryOracle::setCheckpoint(std::move(hook));
}

unsigned
MachineOracle::ways() const
{
    return prober_->ways();
}

std::string
MachineOracle::describe() const
{
    return std::string("machine:L") +
           std::to_string(prober_->targetLevel() + 1) + " k=" +
           std::to_string(ways()) +
           (mode_ == ObservationMode::kCounter ? " (counter mode)"
                                               : " (latency mode)");
}

std::vector<PositionOutcome>
MachineOracle::observeSegment(const std::vector<BlockId>& blocks)
{
    // Every machine experiment batch funnels through here, so this
    // is where per-request timeouts/budgets get their granularity.
    checkpoint();
    infer::MeasurementContext& ctx = prober_->context();
    const uint64_t loadsBefore = ctx.loadsIssued();
    const uint64_t experimentsBefore = ctx.experimentsRun();

    std::vector<PositionOutcome> outcomes(blocks.size());
    const unsigned target = prober_->targetLevel();
    // Fixed-N votes leave the default confidence and determined flag
    // on each outcome; only the sequential test reports its own.
    const bool robust = prober_->config().vote.enabled;
    if (mode_ == ObservationMode::kCounter) {
        const auto obs = prober_->observeRobust(blocks);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            outcomes[i].hit = obs.hits[i];
            outcomes[i].level = obs.hits[i] ? target : ctx.depth();
            if (robust) {
                outcomes[i].confidence = obs.confidence[i];
                outcomes[i].determined = obs.determined[i];
            }
        }
    } else {
        const auto obs = prober_->observeLevelsRobust(blocks);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            outcomes[i].level = obs.levels[i];
            outcomes[i].hit = obs.levels[i] <= target;
            if (robust) {
                outcomes[i].confidence = obs.confidence[i];
                outcomes[i].determined = obs.determined[i];
            }
        }
    }
    experiments_ += ctx.experimentsRun() - experimentsBefore;
    accesses_ += ctx.loadsIssued() - loadsBefore;
    return outcomes;
}

QueryVerdict
MachineOracle::evaluate(const CompiledQuery& query)
{
    const uint64_t experimentsBefore = experiments_;
    const uint64_t accessesBefore = accesses_;

    QueryVerdict verdict;
    for (const Segment& segment : splitSegments(query)) {
        const auto outcomes = observeSegment(segment.blocks);
        for (std::size_t i = 0; i < segment.blocks.size(); ++i) {
            const uint32_t step = segment.stepIndex[i];
            if (!query.steps[step].probe)
                continue;
            verdict.probes.push_back({step, segment.blocks[i],
                                      outcomes[i].hit,
                                      outcomes[i].level,
                                      outcomes[i].confidence,
                                      outcomes[i].determined});
        }
    }
    verdict.experiments = experiments_ - experimentsBefore;
    verdict.accesses = accesses_ - accessesBefore;
    return verdict;
}

std::vector<QueryVerdict>
MachineOracle::evaluateBatch(const std::vector<CompiledQuery>& queries,
                             const BatchOptions& opts,
                             BatchStats* stats)
{
    if (!opts.prefixSharing)
        return QueryOracle::evaluateBatch(queries, opts, stats);
    return batchEvaluateReplay(*this, queries, opts, stats);
}

} // namespace recap::query
