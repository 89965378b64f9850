/**
 * @file
 * QueryOracle: the object that answers membership queries.
 *
 * Every question an oracle answers is one primitive: replay each
 * sequence of a flat batch from a flushed set and report what every
 * access did (QueryOracle::evaluateFlat). evaluate(), evaluateBatch()
 * and observeWords() are adapters over it. Two backends implement it:
 *  - PolicyOracle replays against a policy::SetModel automaton —
 *    exact, noiseless, and cheap; the replay substrate for what-if
 *    analysis and the fast path of batch evaluation.
 *  - MachineOracle runs real measurement experiments on a machine
 *    under test, through infer::SetProber (inner-level eviction,
 *    repeated replays voted by fixed-N majority or the sequential
 *    test) in either counter mode (per-level hit counters) or
 *    latency mode (timed loads classified into levels).
 *
 * Every experiment issued through an oracle goes through
 * MeasurementContext::beginExperiment(), the same funnel the
 * inference techniques' direct SetProber probes use, so measurement
 * cost is accounted in one place.
 */

#ifndef RECAP_QUERY_ORACLE_HH_
#define RECAP_QUERY_ORACLE_HH_

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "recap/common/resilience.hh"
#include "recap/infer/set_prober.hh"
#include "recap/policy/compiled.hh"
#include "recap/query/ast.hh"

namespace recap::query
{

/**
 * Thrown by an oracle checkpoint to abort the current request (the
 * server installs checkpoints enforcing per-request deadlines and
 * access budgets). The session survives: the server answers with a
 * structured error and keeps serving.
 *
 * The cause is a structured AbortReason enum, not a free-form
 * string; when several limits race (a deadline expiring while the
 * access budget is also blown), every tripped limit is carried in
 * allReasons() so diagnostics never lose which checkpoint fired.
 */
class RequestAborted : public std::runtime_error
{
  public:
    RequestAborted(const std::string& what, AbortReason reason,
                   std::vector<AbortReason> all = {})
        : std::runtime_error(what), code_(reason),
          all_(std::move(all))
    {
        if (all_.empty())
            all_.push_back(code_);
    }

    /** The primary machine-readable cause. */
    AbortReason code() const { return code_; }

    /** Every limit found tripped, primary first (never empty). */
    const std::vector<AbortReason>& allReasons() const
    {
        return all_;
    }

    /** Canonical wire name of code(): "timeout", "access-budget"... */
    std::string reason() const { return abortReasonName(code_); }

  private:
    AbortReason code_;
    std::vector<AbortReason> all_;
};

/** Outcome of one probed access. */
struct ProbeOutcome
{
    /** Index of the probed step in CompiledQuery::steps. */
    uint32_t step = 0;

    /** The probed block. */
    BlockId block = 0;

    /** True iff the access hit the probed set. */
    bool hit = false;

    /**
     * Level that served the access. Machine backend: cache level
     * index, depth() = memory (counter mode reports the target level
     * on hits). Policy backend: 0 on hit, 1 ("beyond the set") on
     * miss.
     */
    unsigned level = 0;

    /**
     * Majority fraction behind this reading, in [0.5, 1]. The policy
     * backend is exact (always 1.0); the machine backend reports the
     * vote's confidence under adaptive voting.
     */
    double confidence = 1.0;

    /**
     * False when an adaptive vote exhausted its budget without a
     * quorum: `hit`/`level` then carry the (untrustworthy) majority
     * side and consumers must treat the reading as unknown rather
     * than guess.
     */
    bool determined = true;

    bool operator==(const ProbeOutcome&) const = default;
};

/** Answer to one query, with its measurement cost. */
struct QueryVerdict
{
    /** One outcome per probed step, in step order. */
    std::vector<ProbeOutcome> probes;

    /** Experiments this query consumed (0 when fully shared). */
    uint64_t experiments = 0;

    /** Loads/accesses this query consumed (0 when fully shared). */
    uint64_t accesses = 0;
};

/**
 * Outcome of one observed position of an access sequence: the flat
 * per-position form of ProbeOutcome (evaluateFlat() and
 * observeWords() answers, machine segment replays).
 */
struct PositionOutcome
{
    /** True iff the access hit the probed set. */
    bool hit = false;

    /** False when the vote found no quorum (see ProbeOutcome). */
    bool determined = true;

    /** Level that served the access (see ProbeOutcome). */
    unsigned level = 0;

    /** Majority fraction behind the reading (1.0 when exact). */
    double confidence = 1.0;

    bool operator==(const PositionOutcome&) const = default;
};

/** Knobs for batch evaluation (see QueryOracle::evaluateFlat). */
struct BatchOptions
{
    /**
     * Enable the prefix-sharing evaluator; false replays every query
     * independently (the naive baseline the tests diff against).
     */
    bool prefixSharing = true;

    /**
     * Worker threads for the policy backend's independent trie
     * subtrees; 0 = hardware concurrency, 1 = serial. Results are
     * bit-identical for every value. The machine backend is a single
     * stateful device and always evaluates serially.
     */
    unsigned numThreads = 1;
};

/** Cost accounting of one batch evaluation. */
struct BatchStats
{
    uint64_t queries = 0;

    /** Accesses naive per-query re-execution would have cost. */
    uint64_t naiveCost = 0;

    /** Accesses actually performed. */
    uint64_t sharedCost = 0;

    /** Experiments actually run / avoided by sharing. */
    uint64_t experimentsRun = 0;
    uint64_t experimentsSaved = 0;

    /** Steps answered from a shared prefix instead of re-execution. */
    uint64_t prefixReuses = 0;

    bool operator==(const BatchStats&) const = default;
};

/**
 * Answers to one flat batch (QueryOracle::evaluateFlat): one outcome
 * per step and the cost of each sequence.
 */
struct FlatAnswers
{
    /** One outcome per step, in input order; flushes keep the default. */
    std::vector<PositionOutcome> outcomes;

    /** Experiments each sequence consumed (0 when fully shared). */
    std::vector<uint64_t> experiments;

    /** Loads/accesses each sequence consumed (0 when fully shared). */
    std::vector<uint64_t> accesses;
};

/**
 * Interface every query backend implements: one batch primitive,
 * evaluateFlat(), which each backend provides through runFlat(), and
 * three adapters over it written once here.
 */
class QueryOracle
{
  public:
    virtual ~QueryOracle() = default;

    /** Associativity of the probed set. */
    virtual unsigned ways() const = 0;

    /** Human-readable backend description for banners and logs. */
    virtual std::string describe() const = 0;

    /**
     * The batch primitive: replays every sequence from a flushed set
     * and reports every access. Sequence w is the steps
     * [ends[w - 1], ends[w]) (from 0 for w = 0) of @p blocks; step i
     * is a flush when @p flushes is non-empty and flushes[i] != 0
     * (its block is then ignored), else an access. @p flushes is
     * empty or holds one flag per block; @p ends never falls and
     * ends at blocks.size() (UsageError otherwise). With
     * opts.prefixSharing the backend shares work across the batch
     * and charges each sequence its marginal cost; without it, every
     * sequence replays on its own.
     */
    FlatAnswers evaluateFlat(std::span<const BlockId> blocks,
                             std::span<const uint8_t> flushes,
                             std::span<const uint32_t> ends,
                             const BatchOptions& opts = {},
                             BatchStats* stats = nullptr);

    /** Answers one query: a batch of one, without prefix sharing. */
    QueryVerdict evaluate(const CompiledQuery& query);

    /**
     * Answers @p queries as one flat batch; verdict q carries query
     * q's probes in step order and its costs.
     */
    std::vector<QueryVerdict>
    evaluateBatch(const std::vector<CompiledQuery>& queries,
                  const BatchOptions& opts = {},
                  BatchStats* stats = nullptr);

    /**
     * Answers a batch of observe-all words: word w is
     * blocks[ends[w - 1], ends[w]) (from 0 for w = 0), replayed from
     * a flushed set with every position probed. Words are non-empty:
     * @p ends rises strictly and ends at blocks.size(). Returns one
     * outcome per block, in input order; answers, costs and @p stats
     * are those of evaluateBatch() on the words as
     * makeObserveAllQuery() queries.
     */
    std::vector<PositionOutcome>
    observeWords(std::span<const BlockId> blocks,
                 std::span<const uint32_t> ends,
                 const BatchOptions& opts = {},
                 BatchStats* stats = nullptr);

    /** Experiments issued through this oracle so far. */
    virtual uint64_t experimentsRun() const = 0;

    /** Loads/accesses issued through this oracle so far. */
    virtual uint64_t accessesIssued() const = 0;

    /**
     * Installs (or clears, with nullptr) a hook the oracle invokes
     * at the start of every evaluation and before every machine
     * experiment batch. The hook aborts long-running work by
     * throwing (conventionally RequestAborted); backends guarantee a
     * consistent device afterwards (the next experiment starts from
     * a flush anyway). Backends may propagate the hook deeper
     * (MachineOracle installs it into its SetProber, so adaptive
     * vote loops honour deadlines between individual replays).
     */
    virtual void setCheckpoint(std::function<void()> hook)
    {
        checkpoint_ = std::move(hook);
    }

  protected:
    /** The backend's evaluateFlat(), on input already checked. */
    virtual FlatAnswers runFlat(std::span<const BlockId> blocks,
                                std::span<const uint8_t> flushes,
                                std::span<const uint32_t> ends,
                                const BatchOptions& opts,
                                BatchStats* stats) = 0;

    /** Runs the installed checkpoint hook, if any. */
    void checkpoint() const
    {
        if (checkpoint_)
            checkpoint_();
    }

  private:
    std::vector<QueryVerdict>
    answerQueries(std::span<const CompiledQuery> queries,
                  const BatchOptions& opts, BatchStats* stats);

    std::function<void()> checkpoint_;
};

/**
 * Replay backend: answers queries against a policy automaton. With
 * prefix sharing it runs the snapshot core (batch.cc, one checkpoint
 * per batch); without, one fresh SetModel replay per sequence (one
 * checkpoint and one experiment each).
 */
class PolicyOracle : public QueryOracle
{
  public:
    /** Takes ownership of @p prototype (its current state = reset). */
    explicit PolicyOracle(policy::PolicyPtr prototype);

    /** Convenience: builds the policy from a factory spec string. */
    PolicyOracle(const std::string& spec, unsigned ways,
                 uint64_t seed = 1);

    unsigned ways() const override;
    std::string describe() const override;
    uint64_t experimentsRun() const override { return experiments_; }
    uint64_t accessesIssued() const override { return accesses_; }

    /**
     * The prototype compiled to a transition table, or nullptr when
     * its state space exceeds the default budget (then the snapshot
     * core walks SetModel copies). Compiled lazily on first call and
     * cached for the oracle's lifetime.
     */
    policy::CompiledTablePtr compiledTable();

  protected:
    FlatAnswers runFlat(std::span<const BlockId> blocks,
                        std::span<const uint8_t> flushes,
                        std::span<const uint32_t> ends,
                        const BatchOptions& opts,
                        BatchStats* stats) override;

  private:
    /** A fresh (flushed) set model of the prototype policy. */
    policy::SetModel freshModel() const;

    /** The snapshot core: runFlat() with prefix sharing. */
    FlatAnswers shareSnapshots(std::span<const BlockId> blocks,
                               std::span<const uint8_t> flushes,
                               std::span<const uint32_t> ends,
                               const BatchOptions& opts,
                               BatchStats* stats);

    policy::PolicyPtr prototype_;
    std::string spec_;
    bool specTrusted_ = false;
    uint64_t experiments_ = 0;
    uint64_t accesses_ = 0;
    bool compileAttempted_ = false;
    policy::CompiledTablePtr compiled_;
};

/** How MachineOracle reads hit/miss evidence off the machine. */
enum class ObservationMode
{
    kCounter, ///< per-level hit-counter deltas around each load
    kLatency, ///< timed loads classified into levels
};

/** Configuration for an owning MachineOracle. */
struct MachineOracleConfig
{
    ObservationMode mode = ObservationMode::kCounter;

    /** Prober knobs (anchor address, voting repeats, ...). */
    infer::SetProberConfig prober;
};

/**
 * Measurement backend: answers queries by running experiments on the
 * machine under test, at one set of one cache level.
 */
class MachineOracle : public QueryOracle
{
  public:
    /** Owns its SetProber, built over @p ctx. */
    MachineOracle(infer::MeasurementContext& ctx,
                  const infer::DiscoveredGeometry& geom,
                  unsigned targetLevel,
                  const MachineOracleConfig& cfg = {});

    /** Borrows an existing prober (the pipeline's L* escalation). */
    explicit MachineOracle(
        infer::SetProber& prober,
        ObservationMode mode = ObservationMode::kCounter);

    unsigned ways() const override;
    std::string describe() const override;
    uint64_t experimentsRun() const override { return experiments_; }
    uint64_t accessesIssued() const override { return accesses_; }

    /**
     * Deadline propagation: the hook is also installed into the
     * prober, which runs it before every individual replay — so a
     * budget can abort mid-vote, not just between segments.
     */
    void setCheckpoint(std::function<void()> hook) override;

    infer::SetProber& prober() { return *prober_; }
    ObservationMode mode() const { return mode_; }

  protected:
    /**
     * Experiments always replay from a flush, so every sequence is
     * observed segment by segment (its maximal flush-free runs). With
     * prefix sharing, replay sharing (batch.cc); without, one
     * observeSegment() per segment of each sequence.
     */
    FlatAnswers runFlat(std::span<const BlockId> blocks,
                        std::span<const uint8_t> flushes,
                        std::span<const uint32_t> ends,
                        const BatchOptions& opts,
                        BatchStats* stats) override;

  private:
    /**
     * Observes every position of one flush-free segment (one voted
     * experiment batch on the machine) and updates the cost counters.
     * Every machine experiment funnels through here, after one
     * checkpoint.
     */
    std::vector<PositionOutcome>
    observeSegment(std::span<const BlockId> blocks);

    /** Replay sharing: runFlat() with prefix sharing. */
    FlatAnswers shareReplays(std::span<const BlockId> blocks,
                             std::span<const uint8_t> flushes,
                             std::span<const uint32_t> ends,
                             BatchStats* stats);

    std::unique_ptr<infer::SetProber> owned_;
    infer::SetProber* prober_;
    ObservationMode mode_;
    uint64_t experiments_ = 0;
    uint64_t accesses_ = 0;
};

} // namespace recap::query

#endif // RECAP_QUERY_ORACLE_HH_
