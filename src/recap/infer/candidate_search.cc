#include "recap/infer/candidate_search.hh"

#include <algorithm>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"
#include "recap/infer/equivalence.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/qlru.hh"
#include "recap/policy/set_model.hh"

namespace recap::infer
{

namespace
{

/** Random rounds without an elimination before the search stops. */
constexpr unsigned kStallRounds = 10;

/** Probe sequences are about this many times the associativity long. */
constexpr unsigned kLengthFactor = 6;

/** Under the sequential test: fresh replays confirming a verdict. */
constexpr unsigned kConfirmRounds = 2;

/** Under the sequential test: no-quorum rounds before aborting. */
constexpr unsigned kMaxLowInfoRounds = 6;

} // namespace

std::vector<std::string>
defaultCandidateSpecs(unsigned ways)
{
    std::vector<std::string> specs = {
        "lru", "fifo", "bitplru", "nru", "lip", "bip",
        "srrip", "brrip", "slru",
    };
    if (policy::specSupportsWays("plru", ways))
        specs.insert(specs.begin() + 2, "plru");
    for (const auto& params : policy::QlruParams::allVariants())
        specs.push_back("qlru:" + params.shortName());
    return specs;
}

CandidateSearch::CandidateSearch(SetProber& prober,
                                 std::vector<std::string> candidateSpecs,
                                 const CandidateSearchConfig& cfg)
    : prober_(prober), specs_(std::move(candidateSpecs)), cfg_(cfg)
{
    require(!specs_.empty(),
            "CandidateSearch: need at least one candidate");
}

CandidateSearchResult
CandidateSearch::run()
{
    const unsigned k = prober_.ways();
    const uint64_t loads_before = prober_.context().loadsIssued();
    const uint64_t experiments_before =
        prober_.context().experimentsRun();

    const bool robust = prober_.config().vote.enabled;
    double minConfidence = 1.0;

    using Observation = SetProber::ObservedSequence;
    auto observe = [&](const std::vector<BlockId>& seq) {
        Observation obs = prober_.observeRobust(seq);
        for (size_t j = 0; j < seq.size(); ++j)
            if (obs.determined[j])
                minConfidence = std::min(minConfidence, obs.confidence[j]);
        return obs;
    };

    // A round whose observation is mostly no-quorum positions holds
    // no evidence; eliminating on it would act on guesses.
    auto lowInfo = [&](const Observation& obs) {
        if (!robust)
            return false;
        size_t undecided = 0;
        for (bool d : obs.determined)
            if (!d)
                ++undecided;
        return undecided * 2 > obs.determined.size();
    };

    struct Candidate
    {
        std::string spec;
        policy::PolicyPtr prototype;
    };

    std::vector<Candidate> alive;
    for (const auto& spec : specs_) {
        if (!policy::specSupportsWays(spec, k))
            continue;
        alive.push_back({spec, policy::makePolicy(spec, k)});
    }

    CandidateSearchResult result;
    Rng rng(cfg_.seed);

    // Simulating every surviving candidate against one observation is
    // the elimination inner loop: one SetModel replay per candidate,
    // fanned out over the pool. Candidate i only decides match[i],
    // and the in-order filter afterwards keeps the survivor order
    // identical for any thread count.
    const unsigned threads = resolveThreads(cfg_.numThreads);
    auto eliminate = [&](std::vector<Candidate>& candidates,
                         const std::vector<BlockId>& seq,
                         const Observation& observed) {
        std::vector<char> match(candidates.size(), 0);
        parallelFor(candidates.size(), threads, [&](std::size_t i) {
            policy::SetModel model(candidates[i].prototype->clone());
            model.flush();
            bool ok = true;
            for (std::size_t j = 0; j < seq.size(); ++j) {
                // Undetermined positions carry no evidence: the
                // model still advances, but a disagreement there
                // never eliminates.
                const bool hit = model.access(seq[j]);
                if (observed.determined[j] && hit != observed.hits[j]) {
                    ok = false;
                    break;
                }
            }
            match[i] = ok ? 1 : 0;
        });
        std::vector<Candidate> next;
        for (std::size_t i = 0; i < candidates.size(); ++i)
            if (match[i])
                next.push_back(std::move(candidates[i]));
        return next;
    };

    // Survivors count as one behavioural class if every pair is
    // equivalent with an exhausted product exploration. When the
    // associativity is too large to exhaust, the pair is re-checked
    // at smaller associativities (parameterized policy families are
    // defined for any k); a fully exhausted small-k certificate plus
    // agreement at the probed k is reported as decided.
    auto survivors_equivalent = [&]() {
        if (alive.size() <= 1)
            return true;
        for (size_t i = 1; i < alive.size(); ++i) {
            bool certified = false;
            for (unsigned check_ways : {k, 8u, 4u}) {
                if (check_ways > k)
                    continue;
                if (!policy::specSupportsWays(alive[0].spec,
                                              check_ways) ||
                    !policy::specSupportsWays(alive[i].spec,
                                              check_ways)) {
                    continue;
                }
                EquivalenceConfig eq;
                eq.maxStates = 50'000;
                const auto verdict = checkEquivalence(
                    *policy::makePolicy(alive[0].spec, check_ways),
                    *policy::makePolicy(alive[i].spec, check_ways),
                    eq);
                if (!verdict.equivalent)
                    return false;
                if (verdict.exhausted) {
                    certified = true;
                    break;
                }
            }
            if (!certified)
                return false;
        }
        return true;
    };

    unsigned stall = 0;
    unsigned lowInfoRounds = 0;
    bool abortedLowInfo = false;
    for (unsigned round = 0;
         round < cfg_.maxRounds && alive.size() > 1 &&
         stall < kStallRounds;
         ++round) {
        ++result.roundsRun;

        // Probe sequences alternate two shapes:
        //  - short random walks over a small block universe (strong
        //    at separating recency/aging rules), and
        //  - long miss-heavy thrash walks with revisits (needed to
        //    trip low-duty-cycle mechanisms such as BIP/BRRIP's
        //    1-in-32 throttled insertion, which short replays from a
        //    flush would never reach).
        std::vector<BlockId> seq;
        BlockId fresh = 100000 + static_cast<BlockId>(round) * 10000;
        if (round % 3 == 2) {
            const unsigned length = kLengthFactor * k + 48;
            std::vector<BlockId> recent;
            seq.reserve(length);
            for (unsigned i = 0; i < length; ++i) {
                if (!recent.empty() && rng.nextBool(0.3)) {
                    seq.push_back(recent[rng.nextBelow(
                        recent.size())]);
                } else {
                    seq.push_back(fresh++);
                    recent.push_back(seq.back());
                    if (recent.size() > 2 * k)
                        recent.erase(recent.begin());
                }
            }
        } else {
            const unsigned universe = k + 1 + static_cast<unsigned>(
                rng.nextBelow(4));
            const unsigned length = kLengthFactor * k;
            seq.reserve(length);
            for (unsigned i = 0; i < length; ++i) {
                if (rng.nextBool(0.08))
                    seq.push_back(fresh++);
                else
                    seq.push_back(1 + rng.nextBelow(universe));
            }
        }

        const Observation observed = observe(seq);
        if (lowInfo(observed)) {
            if (++lowInfoRounds > kMaxLowInfoRounds) {
                abortedLowInfo = true;
                break;
            }
            continue; // no evidence this round; don't count a stall
        }

        std::vector<Candidate> next = eliminate(alive, seq, observed);
        if (next.size() == alive.size())
            ++stall;
        else
            stall = 0;
        alive = std::move(next);
    }

    // If the survivors are already certifiably equivalent, the
    // expensive targeted phase has nothing to separate.
    bool certified_equivalent =
        alive.size() > 1 && cfg_.stopOnEquivalent &&
        survivors_equivalent();

    // Targeted phase: random walks can miss low-probability
    // distinguishers (deeply sequenced aging corner cases), so
    // synthesize exact distinguishing experiments from the product
    // automaton of two survivors and play them against the machine.
    unsigned targeted = 0;
    while (cfg_.targetedPhase && !certified_equivalent &&
           alive.size() > 1 && targeted < 2 * alive.size() + 8) {
        ++targeted;
        EquivalenceConfig eq;
        eq.maxStates = 300'000;
        const auto verdict = checkEquivalence(*alive[0].prototype,
                                              *alive[1].prototype, eq);
        if (verdict.equivalent)
            break; // inseparable (or beyond budget): certify below
        ++result.roundsRun;
        const Observation observed = observe(verdict.counterexample);
        if (lowInfo(observed)) {
            if (++lowInfoRounds > kMaxLowInfoRounds) {
                abortedLowInfo = true;
                break;
            }
            continue;
        }
        std::vector<Candidate> next =
            eliminate(alive, verdict.counterexample, observed);
        if (next.size() == alive.size())
            break; // the experiment separated neither: stop
        alive = std::move(next);
    }

    for (const auto& cand : alive)
        result.survivors.push_back(cand.spec);
    result.decided = alive.size() == 1 || certified_equivalent ||
                     (alive.size() > 1 && cfg_.stopOnEquivalent &&
                      survivors_equivalent());
    if (!alive.empty())
        result.verdict = alive.front().spec;
    result.confidence = minConfidence;

    if (robust) {
        // Graceful degradation instead of a wrong spec.
        if (abortedLowInfo) {
            result.undetermined = true;
            result.decided = false;
            result.diagnostics = "observations mostly without "
                                 "quorums (machine too noisy)";
        } else if (alive.empty()) {
            result.undetermined = true;
            result.diagnostics =
                "every candidate eliminated: the evidence was "
                "inconsistent with the whole library (noise or an "
                "unmodelled policy)";
        } else if (result.decided) {
            // Confirmation replays: the survivor must also predict
            // fresh sequences it was never selected on.
            Rng confirmRng(cfg_.seed ^ 0x5afe5eedULL);
            for (unsigned round = 0;
                 round < kConfirmRounds && !result.undetermined;
                 ++round) {
                const unsigned universe =
                    k + 1 +
                    static_cast<unsigned>(confirmRng.nextBelow(4));
                const unsigned length = kLengthFactor * k;
                std::vector<BlockId> seq(length);
                for (auto& b : seq)
                    b = 1 + confirmRng.nextBelow(universe);
                ++result.roundsRun;
                const Observation observed = observe(seq);
                if (lowInfo(observed)) {
                    result.undetermined = true;
                    result.decided = false;
                    result.diagnostics =
                        "confirmation replay had no quorum";
                    break;
                }
                policy::SetModel model(
                    alive.front().prototype->clone());
                model.flush();
                for (size_t j = 0; j < seq.size(); ++j) {
                    const bool hit = model.access(seq[j]);
                    if (observed.determined[j] &&
                        hit != observed.hits[j]) {
                        result.undetermined = true;
                        result.decided = false;
                        result.diagnostics =
                            "confirmation replay contradicted the "
                            "surviving candidate";
                        break;
                    }
                }
            }
        }
        if (result.undetermined)
            result.verdict.clear();
    }

    result.loadsUsed = prober_.context().loadsIssued() - loads_before;
    result.experimentsUsed =
        prober_.context().experimentsRun() - experiments_before;
    return result;
}

} // namespace recap::infer
