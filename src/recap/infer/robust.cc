#include "recap/infer/robust.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "recap/common/error.hh"

namespace recap::infer
{

namespace
{

/** The top class (ties to the lower one) and the runner-up's votes. */
std::pair<unsigned, unsigned>
topTwo(const unsigned* votes, unsigned classes)
{
    unsigned best = 0;
    for (unsigned c = 1; c < classes; ++c)
        if (votes[c] > votes[best])
            best = c;
    unsigned second = 0;
    for (unsigned c = 0; c < classes; ++c)
        if (c != best)
            second = std::max(second, votes[c]);
    return {best, second};
}

VoteOutcome
concludeVote(const AdaptiveVoteConfig& cfg, const unsigned* votes,
             unsigned classes, unsigned total)
{
    VoteOutcome out;
    out.samples = total;
    if (total == 0)
        return out;
    const auto [best, second] = topTwo(votes, classes);
    out.winner = best;
    out.confidence =
        static_cast<double>(votes[best]) / static_cast<double>(total);
    const bool settled =
        votes[best] - second >= cfg.settleMargin ||
        (out.confidence >= cfg.minConfidence && votes[best] != second);
    if (settled)
        out.verdict = best != 0 ? Verdict::kYes : Verdict::kNo;
    else
        out.verdict = Verdict::kUndetermined;
    return out;
}

} // namespace

AdaptiveVoteConfig
fixedSchedule(unsigned repeats)
{
    AdaptiveVoteConfig cfg;
    const unsigned n = std::max(1u, repeats) | 1u;
    cfg.initialRepeats = n;
    cfg.maxRepeats = n;
    cfg.settleMargin = 0;
    cfg.minConfidence = 0.0;
    return cfg;
}

VoteOutcome
adaptiveVote(const AdaptiveVoteConfig& cfg,
             const std::function<bool()>& experiment)
{
    const unsigned initial = std::max(1u, cfg.initialRepeats);
    const unsigned step = std::max(1u, cfg.escalationStep);
    const unsigned budget = std::max(initial, cfg.maxRepeats);

    unsigned votes[2] = {0, 0}; // no, yes
    unsigned n = 0;
    unsigned target = initial;
    for (;;) {
        while (n < target) {
            ++votes[experiment() ? 1 : 0];
            ++n;
            const unsigned margin = votes[1] > votes[0]
                ? votes[1] - votes[0]
                : votes[0] - votes[1];
            if (cfg.settleMargin > 0 && margin >= cfg.settleMargin)
                return concludeVote(cfg, votes, 2, n);
        }
        if (target >= budget)
            break;
        // Contradictory readings: escalate the repetition budget.
        target = std::min(budget, target + step);
    }
    return concludeVote(cfg, votes, 2, n);
}

SequenceVote::SequenceVote(const AdaptiveVoteConfig& cfg,
                           std::size_t positions, unsigned classes)
    : cfg_(cfg), classes_(classes), votes_(positions * classes, 0),
      counted_(positions, 0)
{
    require(classes >= 2, "SequenceVote: need at least two classes");
    cfg_.initialRepeats = std::max(1u, cfg_.initialRepeats);
    cfg_.maxRepeats =
        std::max(cfg_.initialRepeats, cfg_.maxRepeats);
}

void
SequenceVote::addReplay(const std::vector<bool>& outcome,
                        const std::vector<bool>& counted)
{
    addClassReplay(
        std::vector<unsigned>(outcome.begin(), outcome.end()), counted);
}

void
SequenceVote::addClassReplay(const std::vector<unsigned>& readings,
                             const std::vector<bool>& counted)
{
    require(readings.size() == counted_.size(),
            "SequenceVote::addReplay: outcome size mismatch");
    require(counted.empty() || counted.size() == counted_.size(),
            "SequenceVote::addReplay: counted size mismatch");
    for (std::size_t i = 0; i < counted_.size(); ++i) {
        if (!counted.empty() && !counted[i])
            continue; // outlier reading: abstain at this position
        require(readings[i] < classes_,
                "SequenceVote::addReplay: class out of range");
        ++counted_[i];
        ++votes_[i * classes_ + readings[i]];
    }
    ++replays_;
}

bool
SequenceVote::done() const
{
    if (replays_ >= cfg_.maxRepeats)
        return true;
    if (replays_ < cfg_.initialRepeats)
        return false;
    if (cfg_.settleMargin == 0)
        return true;
    for (std::size_t i = 0; i < counted_.size(); ++i) {
        const auto [best, second] = topTwo(votesAt(i), classes_);
        if (votesAt(i)[best] - second < cfg_.settleMargin)
            return false;
    }
    return true;
}

std::vector<VoteOutcome>
SequenceVote::outcomes() const
{
    std::vector<VoteOutcome> out;
    out.reserve(counted_.size());
    for (std::size_t i = 0; i < counted_.size(); ++i)
        out.push_back(
            concludeVote(cfg_, votesAt(i), classes_, counted_[i]));
    return out;
}

RobustStats
robustStats(std::vector<uint64_t> samples)
{
    RobustStats stats;
    if (samples.empty())
        return stats;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    stats.median = n % 2 == 1
        ? samples[n / 2]
        : (samples[n / 2 - 1] + samples[n / 2]) / 2;

    std::vector<uint64_t> dev;
    dev.reserve(n);
    for (uint64_t s : samples)
        dev.push_back(s > stats.median ? s - stats.median
                                       : stats.median - s);
    std::sort(dev.begin(), dev.end());
    stats.mad = n % 2 == 1 ? dev[n / 2]
                           : (dev[n / 2 - 1] + dev[n / 2]) / 2;
    return stats;
}

uint64_t
outlierFence(const RobustStats& stats, double madMultiplier,
             uint64_t floor)
{
    const double spread =
        madMultiplier * static_cast<double>(stats.mad);
    const uint64_t allowance = std::max(
        floor, static_cast<uint64_t>(std::llround(spread)));
    return stats.median + allowance;
}

} // namespace recap::infer
