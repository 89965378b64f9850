#include "recap/query/oracle.hh"

#include "recap/common/error.hh"
#include "recap/policy/factory.hh"

namespace recap::query
{

FlatAnswers
QueryOracle::evaluateFlat(std::span<const BlockId> blocks,
                          std::span<const uint8_t> flushes,
                          std::span<const uint32_t> ends,
                          const BatchOptions& opts, BatchStats* stats)
{
    ensure(blocks.size() < UINT32_MAX,
           "evaluateFlat: 2^32 - 1 steps or more");
    require(flushes.empty() || flushes.size() == blocks.size(),
            "evaluateFlat: one flush flag per step");
    std::size_t covered = 0;
    for (const uint32_t end : ends) {
        require(end >= covered, "evaluateFlat: sequence ends fall");
        covered = end;
    }
    require(covered == blocks.size(),
            "evaluateFlat: sequence ends must end at the step count");
    return runFlat(blocks, flushes, ends, opts, stats);
}

QueryVerdict
QueryOracle::evaluate(const CompiledQuery& query)
{
    BatchOptions opts;
    opts.prefixSharing = false;
    return std::move(answerQueries({&query, 1}, opts, nullptr).front());
}

std::vector<QueryVerdict>
QueryOracle::evaluateBatch(const std::vector<CompiledQuery>& queries,
                           const BatchOptions& opts, BatchStats* stats)
{
    return answerQueries(queries, opts, stats);
}

std::vector<QueryVerdict>
QueryOracle::answerQueries(std::span<const CompiledQuery> queries,
                           const BatchOptions& opts, BatchStats* stats)
{
    std::vector<BlockId> blocks;
    std::vector<uint8_t> flushes;
    std::vector<uint32_t> ends;
    std::size_t steps = 0;
    for (const CompiledQuery& q : queries)
        steps += q.steps.size();
    blocks.reserve(steps);
    flushes.reserve(steps);
    ends.reserve(queries.size());
    for (const CompiledQuery& q : queries) {
        for (const Step& step : q.steps) {
            blocks.push_back(step.block);
            flushes.push_back(step.flush ? 1 : 0);
        }
        ends.push_back(static_cast<uint32_t>(blocks.size()));
    }
    const FlatAnswers answers =
        evaluateFlat(blocks, flushes, ends, opts, stats);

    std::vector<QueryVerdict> verdicts(queries.size());
    std::size_t begin = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        QueryVerdict& verdict = verdicts[q];
        verdict.experiments = answers.experiments[q];
        verdict.accesses = answers.accesses[q];
        verdict.probes.reserve(queries[q].probeCount());
        for (uint32_t i = 0; i < queries[q].steps.size(); ++i) {
            const Step& step = queries[q].steps[i];
            if (step.flush || !step.probe)
                continue;
            const PositionOutcome& o = answers.outcomes[begin + i];
            verdict.probes.push_back({i, step.block, o.hit, o.level,
                                      o.confidence, o.determined});
        }
        begin = ends[q];
    }
    return verdicts;
}

std::vector<PositionOutcome>
QueryOracle::observeWords(std::span<const BlockId> blocks,
                          std::span<const uint32_t> ends,
                          const BatchOptions& opts, BatchStats* stats)
{
    for (std::size_t w = 0; w < ends.size(); ++w)
        require(ends[w] > (w == 0 ? 0 : ends[w - 1]),
                "observeWords: empty word");
    return evaluateFlat(blocks, {}, ends, opts, stats).outcomes;
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
MachineOracle::observeSegment(std::span<const BlockId> blocks)
{
    // Every machine experiment batch funnels through here, so this
    // is where per-request timeouts/budgets get their granularity.
    checkpoint();
    infer::MeasurementContext& ctx = prober_->context();
    const uint64_t loadsBefore = ctx.loadsIssued();
    const uint64_t experimentsBefore = ctx.experimentsRun();

    const std::vector<BlockId> seq(blocks.begin(), blocks.end());
    std::vector<PositionOutcome> outcomes(seq.size());
    const unsigned target = prober_->targetLevel();
    // Fixed-N votes leave the default confidence and determined flag
    // on each outcome; only the sequential test reports its own.
    const bool robust = prober_->config().vote.enabled;
    if (mode_ == ObservationMode::kCounter) {
        const auto obs = prober_->observeRobust(seq);
        for (std::size_t i = 0; i < seq.size(); ++i) {
            outcomes[i].hit = obs.hits[i];
            outcomes[i].level = obs.hits[i] ? target : ctx.depth();
            if (robust) {
                outcomes[i].confidence = obs.confidence[i];
                outcomes[i].determined = obs.determined[i];
            }
        }
    } else {
        const auto obs = prober_->observeLevelsRobust(seq);
        for (std::size_t i = 0; i < seq.size(); ++i) {
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

} // namespace recap::query
