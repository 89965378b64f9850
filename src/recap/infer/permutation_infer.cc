#include "recap/infer/permutation_infer.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/policy/set_model.hh"

namespace recap::infer
{

namespace
{

/** First fresh-block id used inside an experiment sequence. */
constexpr BlockId kFreshBase = 5000;

/** The fresh-block id used as the probing miss. */
constexpr BlockId kMissBlock = 999;

std::optional<unsigned>
indexOf(const std::vector<BlockId>& seq, BlockId b)
{
    for (unsigned i = 0; i < seq.size(); ++i)
        if (seq[i] == b)
            return i;
    return std::nullopt;
}

/**
 * Inverts the index-order cold-fill updates under the kTouch rule:
 * given the order after filling ways 0..k-1 (each fill applying the
 * hit permutation of the filled way's then-current position), returns
 * all reset-state orders that could have produced it.
 */
std::vector<std::vector<policy::Way>>
invertColdFills(const std::vector<policy::Way>& post,
                const std::vector<policy::Permutation>& hits,
                size_t cap = 32)
{
    const unsigned k = static_cast<unsigned>(post.size());
    std::vector<std::vector<policy::Way>> states{post};
    for (unsigned w = k; w-- > 0;) {
        std::vector<std::vector<policy::Way>> prev;
        for (const auto& after : states) {
            for (unsigned p = 0; p < k; ++p) {
                // applyPermutation: after[pi[j]] = before[j].
                std::vector<policy::Way> before(k);
                for (unsigned j = 0; j < k; ++j)
                    before[j] = after[hits[p][j]];
                if (before[p] != w)
                    continue; // way w was not at position p
                if (std::find(prev.begin(), prev.end(), before) ==
                    prev.end()) {
                    prev.push_back(std::move(before));
                }
                if (prev.size() >= cap)
                    break;
            }
            if (prev.size() >= cap)
                break;
        }
        states = std::move(prev);
        if (states.empty())
            break;
    }
    return states;
}

} // namespace

PermutationInference::PermutationInference(
    SetProber& prober, const PermutationInferenceConfig& cfg)
    : prober_(prober), cfg_(cfg)
{}

void
PermutationInference::noteVote(double confidence, bool determined,
                               const char* where)
{
    if (determined) {
        minConfidence_ = std::min(minConfidence_, confidence);
        return;
    }
    if (!sawUndetermined_) {
        sawUndetermined_ = true;
        undeterminedNote_ = where;
    }
}

PermutationInferenceResult
PermutationInference::run()
{
    const unsigned k = prober_.ways();
    PermutationInferenceResult result;
    sawUndetermined_ = false;
    minConfidence_ = 1.0;
    undeterminedNote_.clear();
    const uint64_t loads_before = prober_.context().loadsIssued();
    const uint64_t experiments_before =
        prober_.context().experimentsRun();

    auto finish = [&](PermutationInferenceResult r) {
        r.confidence = minConfidence_;
        if (!r.isPermutation && sawUndetermined_) {
            // Some probe never reached a quorum: the machine was too
            // noisy to decide, so report "don't know", not "refuted".
            r.undetermined = true;
            r.diagnostics = undeterminedNote_;
        }
        r.loadsUsed = prober_.context().loadsIssued() - loads_before;
        r.experimentsUsed =
            prober_.context().experimentsRun() - experiments_before;
        return r;
    };

    // Canonical state: fill the set with blocks 1..k.
    std::vector<BlockId> base(k);
    for (unsigned i = 0; i < k; ++i)
        base[i] = i + 1;

    const auto ord_base = evictionOrderAfter(base, base);
    if (!ord_base) {
        result.failureReason =
            "inconsistent eviction order in the canonical state";
        return finish(result);
    }

    // Hit permutations. Position 0 is derived first so that a cheap
    // composed-prediction spot check can refute non-permutation
    // policies before the remaining k-1 expensive derivations run.
    std::vector<policy::Permutation> hits(k);
    std::string hit_error;
    auto derive_hit_perm = [&](unsigned p) -> bool {
        std::vector<BlockId> prefix = base;
        prefix.push_back((*ord_base)[p]); // hit at position p
        const auto ord_p = evictionOrderAfter(prefix, base);
        if (!ord_p) {
            hit_error =
                "inconsistent eviction order after a hit at position "
                + std::to_string(p);
            return false;
        }
        policy::Permutation pi(k);
        for (unsigned j = 0; j < k; ++j) {
            const auto pos = indexOf(*ord_p, (*ord_base)[j]);
            if (!pos) {
                hit_error = "a hit evicted a resident block";
                return false;
            }
            pi[j] = *pos;
        }
        if (!policy::isPermutation(pi)) {
            hit_error = "hit transformation is not a permutation";
            return false;
        }
        hits[p] = std::move(pi);
        return true;
    };

    if (!derive_hit_perm(0)) {
        result.failureReason = hit_error;
        return finish(result);
    }

    // Miss permutation.
    policy::Permutation miss(k);
    {
        std::vector<BlockId> prefix = base;
        prefix.push_back(kMissBlock);
        std::vector<BlockId> candidates = base;
        candidates.push_back(kMissBlock);
        const auto ord_m = evictionOrderAfter(prefix, candidates);
        if (!ord_m) {
            result.failureReason =
                "inconsistent eviction order after a miss";
            return finish(result);
        }
        const auto new_pos = indexOf(*ord_m, kMissBlock);
        if (!new_pos) {
            result.failureReason = "a miss evicted the incoming block";
            return finish(result);
        }
        miss[0] = *new_pos;
        for (unsigned j = 1; j < k; ++j) {
            const auto pos = indexOf(*ord_m, (*ord_base)[j]);
            if (!pos) {
                result.failureReason =
                    "a miss evicted a block other than the victim";
                return finish(result);
            }
            miss[j] = *pos;
        }
        if (!policy::isPermutation(miss)) {
            result.failureReason =
                "miss transformation is not a permutation";
            return finish(result);
        }
    }

    // Spot check: predict the eviction order after "hit at position
    // 0, then a miss" by composing Pi_0 with the miss permutation,
    // and compare against one measurement. State-dependent policies
    // (NRU, QLRU, ...) usually fail here, sparing the remaining k-1
    // hit-permutation derivations.
    if (cfg_.earlySpotCheck) {
        // After the hit: block ord_base[j] sits at position Pi_0[j].
        std::vector<BlockId> after_hit(k);
        for (unsigned j = 0; j < k; ++j)
            after_hit[hits[0][j]] = (*ord_base)[j];
        // After the miss: position-0 evicted, survivors move by the
        // miss permutation, the incoming block to missPerm[0].
        const BlockId fresh2 = kMissBlock + 1;
        std::vector<BlockId> predicted(k);
        predicted[miss[0]] = fresh2;
        for (unsigned j = 1; j < k; ++j)
            predicted[miss[j]] = after_hit[j];

        std::vector<BlockId> prefix = base;
        prefix.push_back((*ord_base)[0]);
        prefix.push_back(fresh2);
        std::vector<BlockId> candidates = base;
        candidates.push_back(fresh2);
        const auto ord_spot = evictionOrderAfter(prefix, candidates);
        if (!ord_spot || *ord_spot != predicted) {
            result.failureReason =
                "composed-prediction spot check failed: hit "
                "transformations are state-dependent";
            return finish(result);
        }
    }

    for (unsigned p = 1; p < k; ++p) {
        if (!derive_hit_perm(p)) {
            result.failureReason = hit_error;
            return finish(result);
        }
    }

    // The probed vectors determine the policy up to the cold-fill
    // rule and the reset-state order, which the machine's behaviour
    // from a flush disambiguates: enumerate the consistent
    // hypotheses and keep whichever validates.
    //
    // Cold fills go to invalid ways in index order (block i of the
    // canonical fill landed in way i-1), so the measured canonical
    // order is also known over WAYS; for the kTouch rule the reset
    // order is reconstructed from it by inverting the cold-fill
    // updates.
    std::vector<policy::Way> post_order(k);
    for (unsigned j = 0; j < k; ++j)
        post_order[j] = static_cast<policy::Way>((*ord_base)[j] - 1);

    using FillRule = policy::PermutationPolicy::FillRule;
    struct Hypothesis
    {
        FillRule rule;
        std::vector<policy::Way> initialOrder;
    };
    std::vector<Hypothesis> hypotheses;
    // Under insert-at-victim, every way is re-placed during the cold
    // fill, so the reset order is irrelevant: the identity suffices.
    hypotheses.push_back({FillRule::kInsertAtVictim, {}});
    for (auto& order : invertColdFills(post_order, hits))
        hypotheses.push_back({FillRule::kTouch, std::move(order)});

    std::string reason = "no cold-fill hypothesis was consistent";
    for (const auto& hyp : hypotheses) {
        policy::PermutationPolicy candidate(k, hits, miss, "",
                                            hyp.rule,
                                            hyp.initialOrder);
        if (validate(candidate, reason)) {
            result.isPermutation = true;
            result.policy = std::move(candidate);
            return finish(result);
        }
    }
    result.failureReason = reason;
    return finish(result);
}

std::optional<std::vector<BlockId>>
PermutationInference::evictionOrderAfter(
    const std::vector<BlockId>& prefix,
    const std::vector<BlockId>& candidates)
{
    const unsigned k = prober_.ways();

    auto seqFor = [&](unsigned m) {
        std::vector<BlockId> seq = prefix;
        for (unsigned f = 0; f < m; ++f)
            seq.push_back(kFreshBase + f);
        return seq;
    };
    auto survives_m = [&](BlockId block, unsigned m) {
        const VoteOutcome vote =
            prober_.survivesVote(seqFor(m), block);
        noteVote(vote.confidence, vote.determined(),
                 "survival probe without a quorum");
        return vote.value();
    };

    // positionOf[b]: the largest number of fresh misses b survives.
    // Survival is monotone in m for permutation policies, so the
    // boundary is found by binary search; non-monotone policies
    // yield garbage positions that the consistency checks below (or
    // the final cross-validation) refute.
    std::vector<int> position(candidates.size(), -1);
    for (size_t c = 0; c < candidates.size(); ++c) {
        if (!survives_m(candidates[c], 0))
            continue; // evicted by the prefix itself
        if (!cfg_.binarySearchSurvival) {
            // Naive upward scan (ablation baseline).
            for (unsigned m = 0; m <= k; ++m) {
                if (!survives_m(candidates[c], m))
                    break;
                position[c] = static_cast<int>(m);
            }
            continue;
        }
        if (survives_m(candidates[c], k)) {
            position[c] = static_cast<int>(k); // inconsistent
            continue;
        }
        unsigned lo = 0; // survives
        unsigned hi = k; // does not survive
        while (hi - lo > 1) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (survives_m(candidates[c], mid))
                lo = mid;
            else
                hi = mid;
        }
        position[c] = static_cast<int>(lo);
    }

    // Any undetermined probe poisons the whole reconstruction: a
    // position built on a no-quorum bit would be a guess.
    if (sawUndetermined_)
        return std::nullopt;

    // The resident candidates' positions must be exactly {0,..,k-1}.
    std::vector<BlockId> order(k, 0);
    std::vector<bool> filled(k, false);
    for (size_t c = 0; c < candidates.size(); ++c) {
        if (position[c] < 0)
            continue; // evicted by the prefix itself
        if (position[c] >= static_cast<int>(k))
            return std::nullopt; // survived k misses: inconsistent
        if (filled[position[c]])
            return std::nullopt; // two blocks at one position
        order[position[c]] = candidates[c];
        filled[position[c]] = true;
    }
    for (bool f : filled)
        if (!f)
            return std::nullopt;
    return order;
}

bool
PermutationInference::validate(
    const policy::PermutationPolicy& candidate, std::string& reason)
{
    const unsigned k = prober_.ways();
    const unsigned length = 6 * k; // sequences about 6k accesses long
    Rng rng(cfg_.seed);

    // A mismatch refutes only where the observation is determined;
    // undetermined positions abstain, but when they swamp the
    // evidence the validation itself is undetermined (a candidate
    // must not be accepted on vacuous agreement). One observation per
    // round; the first mismatch refutes, so a bad hypothesis pays for
    // no later round.
    uint64_t totalPositions = 0;
    uint64_t undeterminedPositions = 0;
    std::vector<BlockId> seq(length);
    for (unsigned round = 0; round < cfg_.validationRounds; ++round) {
        const unsigned universe =
            k + 1 + static_cast<unsigned>(rng.nextBelow(4));
        for (auto& b : seq)
            b = 1 + rng.nextBelow(universe);
        policy::SetModel model(candidate.clone());
        const SetProber::ObservedSequence obs = prober_.observeRobust(seq);
        for (size_t j = 0; j < seq.size(); ++j) {
            const bool predicted = model.access(seq[j]);
            ++totalPositions;
            if (!obs.determined[j]) {
                ++undeterminedPositions;
                continue;
            }
            minConfidence_ = std::min(minConfidence_, obs.confidence[j]);
            if (obs.hits[j] != predicted) {
                reason = "cross-validation mismatch in round " +
                         std::to_string(round);
                return false;
            }
        }
    }
    if (undeterminedPositions * 2 > totalPositions) {
        noteVote(0.0, false, "cross-validation mostly without quorums");
        reason = "cross-validation was mostly undetermined";
        return false;
    }
    return true;
}

} // namespace recap::infer
