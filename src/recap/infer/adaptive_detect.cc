#include "recap/infer/adaptive_detect.hh"

#include <algorithm>
#include <map>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/infer/set_prober.hh"

namespace recap::infer
{

namespace
{

/** Builds the prober for window-relative set @p s. */
SetProber
proberForSet(MeasurementContext& ctx, const DiscoveredGeometry& geom,
             unsigned targetLevel, const AdaptiveDetectConfig& cfg,
             unsigned s)
{
    SetProberConfig pc;
    pc.baseAddr = cfg.baseAddr +
                  static_cast<uint64_t>(geom.lineSize) * s;
    pc.voteRepeats = cfg.voteRepeats;
    return SetProber(ctx, geom, targetLevel, pc);
}

/** The fixed probe sequence all signatures use. */
std::vector<BlockId>
signatureSequence(unsigned ways, const AdaptiveDetectConfig& cfg)
{
    constexpr unsigned kSignatureLength = 64; ///< accesses
    Rng rng(cfg.seed);
    std::vector<BlockId> seq;
    seq.reserve(kSignatureLength);
    BlockId fresh = 70000;
    for (unsigned i = 0; i < kSignatureLength; ++i) {
        if (rng.nextBool(0.1))
            seq.push_back(fresh++);
        else
            seq.push_back(1 + rng.nextBelow(ways + 2));
    }
    return seq;
}

} // namespace

AdaptiveReport
detectAdaptive(MeasurementContext& ctx, const DiscoveredGeometry& geom,
               unsigned targetLevel, const AdaptiveDetectConfig& cfg)
{
    require(targetLevel < geom.levels.size(),
            "detectAdaptive: level out of range");
    const unsigned window = std::min(
        cfg.windowSets, geom.levels[targetLevel].numSets);
    require(window >= 2, "detectAdaptive: window too small");

    AdaptiveReport report;
    const uint64_t loads_before = ctx.loadsIssued();
    const auto seq = signatureSequence(geom.levels[targetLevel].ways,
                                       cfg);

    // Pre-bias: a set-dueling selector that starts near its decision
    // boundary would flip followers mid-pass from the probes' own
    // misses. Driving every set with a reuse-heavy cyclic pattern
    // (ways+1 blocks cycled) first pushes the selector to its stable
    // fixpoint: the policy whose leaders miss less keeps winning, so
    // the counter saturates away from the boundary. Uniform caches
    // are unaffected.
    {
        const unsigned k = geom.levels[targetLevel].ways;
        std::vector<BlockId> cyclic;
        for (unsigned round = 0; round < 8; ++round)
            for (unsigned b = 1; b <= k + 1; ++b)
                cyclic.push_back(b);
        for (unsigned sweep = 0; sweep < 2; ++sweep) {
            for (unsigned s = 0; s < window; ++s) {
                SetProber prober =
                    proberForSet(ctx, geom, targetLevel, cfg, s);
                prober.run(cyclic);
            }
        }
    }

    auto collect_signatures = [&] {
        std::vector<std::vector<bool>> sigs;
        sigs.reserve(window);
        for (unsigned s = 0; s < window; ++s) {
            SetProber prober =
                proberForSet(ctx, geom, targetLevel, cfg, s);
            sigs.push_back(prober.observe(seq));
        }
        return sigs;
    };

    // Signatures within this Hamming distance count as one behaviour:
    // residual measurement noise must not split clusters, and genuine
    // policy differences disagree in many more positions.
    constexpr unsigned kClusterTolerance = 2;
    auto distance = [](const std::vector<bool>& a,
                       const std::vector<bool>& b) {
        unsigned d = 0;
        for (size_t i = 0; i < a.size(); ++i)
            if (a[i] != b[i])
                ++d;
        return d;
    };

    // Pass 1: signatures across the window, clustered with tolerance.
    const auto sigs1 = collect_signatures();
    std::vector<std::vector<bool>> reps;
    std::vector<std::vector<unsigned>> clusters;
    for (unsigned s = 0; s < window; ++s) {
        bool placed = false;
        for (size_t c = 0; c < reps.size(); ++c) {
            if (distance(sigs1[s], reps[c]) <= kClusterTolerance) {
                clusters[c].push_back(s);
                placed = true;
                break;
            }
        }
        if (!placed) {
            reps.push_back(sigs1[s]);
            clusters.push_back({s});
        }
    }

    if (clusters.size() == 1) {
        report.loadsUsed = ctx.loadsIssued() - loads_before;
        return report; // uniform behaviour: no adaptivity detected
    }

    // Majority cluster = selected policy (followers + its leaders);
    // everything else belongs to the unselected policy's leaders.
    size_t majority_idx = 0;
    for (size_t c = 1; c < clusters.size(); ++c)
        if (clusters[c].size() > clusters[majority_idx].size())
            majority_idx = c;
    std::vector<unsigned> majority_sets = clusters[majority_idx];
    std::vector<unsigned> minority_sets;
    for (size_t c = 0; c < clusters.size(); ++c) {
        if (c == majority_idx)
            continue;
        minority_sets.insert(minority_sets.end(), clusters[c].begin(),
                             clusters[c].end());
    }
    std::sort(minority_sets.begin(), minority_sets.end());

    // Retraining: thrash every majority set. The selected policy's
    // leader sets are among them, so their misses push the selector
    // towards the other policy. The total misses across those leader
    // sets must exceed the selector's full range, so the fresh lines
    // per set are generous.
    constexpr unsigned kThrashLinesPerSet = 400;
    for (unsigned s : majority_sets) {
        SetProber prober = proberForSet(ctx, geom, targetLevel, cfg, s);
        prober.thrash(kThrashLinesPerSet);
    }

    // Pass 2: who flipped?
    const auto sigs2 = collect_signatures();
    std::vector<unsigned> flipped;
    std::vector<unsigned> held_majority;
    for (unsigned s : majority_sets) {
        if (distance(sigs2[s], sigs1[s]) > kClusterTolerance)
            flipped.push_back(s);
        else
            held_majority.push_back(s);
    }

    if (flipped.empty()) {
        // Heterogeneous but not retrainable: per-set diversity without
        // a shared selector.
        report.heterogeneousOnly = true;
        report.loadsUsed = ctx.loadsIssued() - loads_before;
        return report;
    }

    report.adaptive = true;
    report.leadersSelected = held_majority;
    report.leadersUnselected = minority_sets;

    // Identify both constituent policies from their leader sets
    // (leaders never change policy, so candidate search is sound
    // there).
    if (!held_majority.empty()) {
        SetProber prober = proberForSet(ctx, geom, targetLevel, cfg,
                                        held_majority.front());
        CandidateSearch search(prober,
                               defaultCandidateSpecs(prober.ways()),
                               cfg.search);
        report.policySelected = search.run();
    }
    if (!minority_sets.empty()) {
        SetProber prober = proberForSet(ctx, geom, targetLevel, cfg,
                                        minority_sets.front());
        CandidateSearch search(prober,
                               defaultCandidateSpecs(prober.ways()),
                               cfg.search);
        report.policyUnselected = search.run();
    }

    // Identical constituents mean the "duel" explained nothing: the
    // split was almost certainly residual measurement noise.
    report.constituentsIdentical =
        !report.policySelected.verdict.empty() &&
        report.policySelected.verdict ==
            report.policyUnselected.verdict;

    report.loadsUsed = ctx.loadsIssued() - loads_before;
    return report;
}

} // namespace recap::infer
