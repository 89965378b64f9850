#include "recap/infer/pipeline.hh"

#include <algorithm>
#include <exception>

#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"
#include "recap/infer/naming.hh"
#include "recap/learn/learned_policy.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/query/oracle.hh"

namespace recap::infer
{

double
measureAgreement(SetProber& prober,
                 const policy::ReplacementPolicy& model,
                 unsigned rounds, uint64_t seed)
{
    const unsigned k = prober.ways();
    Rng rng(seed);
    uint64_t total = 0;
    uint64_t matched = 0;
    for (unsigned round = 0; round < rounds; ++round) {
        const unsigned universe = k + 1 + static_cast<unsigned>(
            rng.nextBelow(4));
        std::vector<BlockId> seq(5 * k);
        for (auto& b : seq)
            b = 1 + rng.nextBelow(universe);

        policy::SetModel sim(model.clone());
        sim.flush();
        std::vector<bool> predicted;
        predicted.reserve(seq.size());
        for (BlockId b : seq)
            predicted.push_back(sim.access(b));

        const auto observed = prober.observe(seq);
        for (size_t i = 0; i < seq.size(); ++i) {
            ++total;
            if (observed[i] == predicted[i])
                ++matched;
        }
    }
    return total ? static_cast<double>(matched) /
                   static_cast<double>(total) : 0.0;
}

namespace
{

/**
 * Under the sequential test, a decided verdict (or an adaptivity
 * claim) whose post-hoc agreement falls below this is downgraded to
 * Undetermined.
 */
constexpr double kMinAgreement = 0.85;

/**
 * "L<n>" built by append instead of operator+: the rvalue
 * concatenation trips GCC 12's -Wrestrict false positive (PR105329)
 * once inlining gets deep enough.
 */
std::string
levelTag(unsigned level)
{
    std::string name = "L";
    name += std::to_string(level + 1);
    return name;
}

/**
 * Step 3: active automata learning, the beyond-family fallback.
 * Runs when neither permutation inference nor candidate search
 * produced a verdict. On convergence it overwrites the level's
 * non-answer with the learned automaton (and measures its
 * agreement, so the robust gate still applies); on abstention it
 * appends the learner's reason to the diagnostics and leaves the
 * prior verdict in place.
 */
void
tryLearnEscalation(SetProber& prober, LevelReport& lvl,
                   const InferenceOptions& opts, unsigned level,
                   uint64_t seedSalt)
{
    if (!opts.learning.enabled)
        return;

    query::MachineOracle oracle(prober);
    learn::OracleTeacher teacher(oracle);
    learn::LearnOptions lo = opts.learning.learner;
    lo.seed = deriveTaskSeed(opts.seed + 77 * level, seedSalt);
    learn::LStarLearner learner(teacher, lo);
    const learn::LearnResult result = learner.run();

    lvl.learnerQueries = result.membershipWords;
    lvl.confidence = std::min(lvl.confidence,
                              result.teacherConfidence);
    if (result.outcome != learn::LearnOutcome::kLearned) {
        if (!lvl.diagnostics.empty())
            lvl.diagnostics += "; ";
        lvl.diagnostics += "learner abstained: " +
                           result.diagnostics;
        return;
    }

    lvl.learned = true;
    lvl.learnedStates = result.states;
    lvl.learnedEqConfidence = result.equivalenceConfidence;
    lvl.outcome = LevelOutcome::kDecided;
    lvl.verdict = "learned automaton (" +
                  std::to_string(result.states) + " states)";
    const learn::LearnedPolicy model(prober.ways(), result.machine,
                                     result.semantics,
                                     "Learned automaton");
    lvl.agreement =
        measureAgreement(prober, model, opts.agreementRounds,
                         opts.seed + level + seedSalt);
}

/** The inferLevelAt body; may throw, the wrapper catches. */
LevelReport
inferLevelAtImpl(MeasurementContext& ctx,
                 const DiscoveredGeometry& geometry, unsigned level,
                 cache::Addr baseAddr, const InferenceOptions& opts,
                 uint64_t seedSalt)
{
    LevelReport lvl;
    lvl.levelName = levelTag(level);
    lvl.geometry = geometry.levels[level];
    const uint64_t loads_before = ctx.loadsIssued();
    const bool robust = opts.robust.vote.enabled;

    SetProberConfig pc;
    pc.baseAddr = baseAddr;
    pc.voteRepeats = opts.voteRepeats;
    pc.vote = opts.robust.vote;
    SetProber prober(ctx, geometry, level, pc);

    auto finish = [&](LevelReport r) {
        if (robust && r.outcome == LevelOutcome::kDecided &&
            r.agreement < kMinAgreement) {
            // A verdict that cannot predict the machine is not a
            // verdict; degrade instead of shipping it.
            r.outcome = LevelOutcome::kUndetermined;
            r.diagnostics = "post-hoc agreement " +
                            std::to_string(r.agreement) +
                            " below the robust acceptance gate";
            r.verdict = "undetermined";
        }
        r.loadsUsed = ctx.loadsIssued() - loads_before;
        return r;
    };

    // Step 1: permutation inference on the probed set.
    PermutationInferenceConfig perm_cfg = opts.permutation;
    perm_cfg.seed = opts.seed + 31 * level + seedSalt;
    PermutationInference perm(prober, perm_cfg);
    const auto perm_result = perm.run();
    lvl.confidence = perm_result.confidence;

    if (perm_result.isPermutation) {
        lvl.isPermutation = true;
        lvl.verdict = canonicalPermutationName(*perm_result.policy);
        lvl.agreement = measureAgreement(
            prober, *perm_result.policy, opts.agreementRounds,
            opts.seed + level + seedSalt);
        return finish(lvl);
    }

    // Step 2: candidate-elimination fallback. An undetermined
    // permutation run still falls through — adaptive voting may yet
    // settle the (different) experiments the search runs — but its
    // diagnosis is kept in case the search cannot decide either.
    CandidateSearchConfig search_cfg = opts.search;
    search_cfg.seed = opts.seed + 57 * level + seedSalt;
    CandidateSearch search(prober, defaultCandidateSpecs(prober.ways()),
                           search_cfg);
    const auto search_result = search.run();
    lvl.confidence = std::min(lvl.confidence,
                              search_result.confidence);

    lvl.survivors = search_result.survivors;
    if (search_result.undetermined) {
        lvl.outcome = LevelOutcome::kUndetermined;
        lvl.verdict = "undetermined";
        lvl.diagnostics = "candidate search: " +
                          search_result.diagnostics;
        if (perm_result.undetermined) {
            lvl.diagnostics += "; permutation inference: " +
                               perm_result.diagnostics;
        }
        // Step 3: the policy may simply be outside the family.
        tryLearnEscalation(prober, lvl, opts, level, seedSalt);
        return finish(lvl);
    }
    if (search_result.verdict.empty()) {
        if (robust && perm_result.undetermined) {
            lvl.outcome = LevelOutcome::kUndetermined;
            lvl.verdict = "undetermined";
            lvl.diagnostics = "permutation inference: " +
                              perm_result.diagnostics;
            tryLearnEscalation(prober, lvl, opts, level, seedSalt);
            return finish(lvl);
        }
        lvl.verdict = "unidentified (no candidate matched)";
        lvl.diagnostics = "every candidate family member eliminated";
        // Step 3: learn the out-of-family policy from scratch.
        tryLearnEscalation(prober, lvl, opts, level, seedSalt);
        return finish(lvl);
    }

    lvl.verdict =
        prettySpecName(search_result.verdict, lvl.geometry.ways);
    if (!search_result.decided) {
        lvl.verdict += " (ambiguous: " +
            std::to_string(search_result.survivors.size()) +
            " candidates left)";
    } else if (search_result.survivors.size() > 1) {
        lvl.verdict += " (+" +
            std::to_string(search_result.survivors.size() - 1) +
            " equivalent form)";
    }
    const auto model = policy::makePolicy(search_result.verdict,
                                          lvl.geometry.ways);
    lvl.agreement =
        measureAgreement(prober, *model, opts.agreementRounds,
                         opts.seed + level + seedSalt);
    return finish(lvl);
}

/**
 * Graceful degradation: a blown-up attempt at @p level (a probe
 * construction the discovered geometry cannot support, a garbled
 * counter tripping an internal check, ...) is an undetermined level,
 * not an aborted pipeline.
 */
LevelReport
erroredLevel(const DiscoveredGeometry& geometry, unsigned level,
             const std::exception& e)
{
    LevelReport lvl;
    lvl.levelName = levelTag(level);
    if (level < geometry.levels.size())
        lvl.geometry = geometry.levels[level];
    lvl.outcome = LevelOutcome::kUndetermined;
    lvl.verdict = "undetermined";
    lvl.confidence = 0.0;
    lvl.diagnostics = std::string("inference error: ") + e.what();
    return lvl;
}

} // namespace

LevelReport
inferLevelAt(MeasurementContext& ctx,
             const DiscoveredGeometry& geometry, unsigned level,
             cache::Addr baseAddr, const InferenceOptions& opts,
             uint64_t seedSalt)
{
    try {
        return inferLevelAtImpl(ctx, geometry, level, baseAddr, opts,
                                seedSalt);
    } catch (const std::exception& e) {
        return erroredLevel(geometry, level, e);
    }
}

MachineReport
inferMachine(hw::Machine& machine, const InferenceOptions& opts)
{
    MachineReport report;
    report.machineName = machine.spec().name;

    MeasurementContext ctx(machine);
    const bool robust = opts.robust.vote.enabled;
    if (opts.robust.calibrateLatency)
        ctx.calibrateLatencyFence();

    GeometryProbeConfig geo_cfg = opts.geometry;
    geo_cfg.voteRepeats = std::max(geo_cfg.voteRepeats,
                                   opts.voteRepeats);
    if (robust) // geometry probing votes full experiments; boost it
        geo_cfg.voteRepeats = std::max(geo_cfg.voteRepeats, 5u);
    GeometryProbe geo_probe(ctx, geo_cfg);
    report.geometry = geo_probe.discoverAll();

    for (unsigned level = 0; level < machine.depth(); ++level) {
        const uint64_t loads_before = ctx.loadsIssued();

        // Step 1: adaptivity scan. Its probers are built on the
        // discovered geometry, which a faulty machine can get wrong;
        // like inferLevelAt, the level then abstains instead of the
        // pipeline throwing.
        AdaptiveReport adaptive;
        if (opts.detectAdaptivity) {
            AdaptiveDetectConfig acfg = opts.adaptive;
            acfg.voteRepeats = std::max(acfg.voteRepeats,
                                        opts.voteRepeats);
            acfg.search = opts.search;
            try {
                adaptive = detectAdaptive(ctx, report.geometry, level,
                                          acfg);
            } catch (const std::exception& e) {
                LevelReport lvl =
                    erroredLevel(report.geometry, level, e);
                lvl.loadsUsed = ctx.loadsIssued() - loads_before;
                report.levels.push_back(std::move(lvl));
                continue;
            }
        }

        std::string adaptiveNote;
        if (adaptive.adaptive && !adaptive.constituentsIdentical) {
            LevelReport lvl;
            lvl.levelName = levelTag(level);
            lvl.geometry = report.geometry.levels[level];
            lvl.adaptive = true;
            lvl.adaptiveSelected = adaptive.policySelected.verdict;
            lvl.adaptiveUnselected = adaptive.policyUnselected.verdict;
            const std::string sel_name = lvl.adaptiveSelected.empty()
                ? "?" : prettySpecName(lvl.adaptiveSelected,
                                       lvl.geometry.ways);
            const std::string uns_name = lvl.adaptiveUnselected.empty()
                ? "?" : prettySpecName(lvl.adaptiveUnselected,
                                       lvl.geometry.ways);
            lvl.verdict = "adaptive (set dueling): " + sel_name +
                          " vs " + uns_name;
            // Agreement against the selected constituent, measured
            // on one of its leader sets.
            if (!adaptive.leadersSelected.empty() &&
                !lvl.adaptiveSelected.empty()) {
                SetProberConfig pc;
                pc.baseAddr = opts.adaptive.baseAddr +
                    static_cast<uint64_t>(report.geometry.lineSize) *
                    adaptive.leadersSelected.front();
                pc.voteRepeats = opts.voteRepeats;
                pc.vote = opts.robust.vote;
                SetProber prober(ctx, report.geometry, level, pc);
                const auto model = policy::makePolicy(
                    lvl.adaptiveSelected, lvl.geometry.ways);
                lvl.agreement = measureAgreement(
                    prober, *model, opts.agreementRounds,
                    opts.seed + level);
            }
            // Robust mode trusts an adaptivity claim only when both
            // constituents were identified and the selected one
            // predicts its leader set. Interference can make duel
            // windows look different on a non-adaptive level; an
            // unverified claim falls through to plain (quorum-gated)
            // inference instead of shipping a wrong verdict.
            const bool trusted = !robust ||
                (!lvl.adaptiveSelected.empty() &&
                 !lvl.adaptiveUnselected.empty() &&
                 lvl.agreement >= kMinAgreement);
            if (trusted) {
                lvl.loadsUsed = ctx.loadsIssued() - loads_before;
                report.levels.push_back(std::move(lvl));
                continue;
            }
            adaptiveNote = "adaptivity scan fired but did not "
                           "survive the robust gate (" +
                           lvl.verdict + ")";
        }

        // Steps 2-3 (permutation inference + candidate fallback),
        // independently on `quorumSets` distinct sets; a strict
        // majority of decided attempts must agree on the verdict.
        const unsigned quorum = std::max(1u, opts.robust.quorumSets);
        const SetProberConfig defaults;
        std::vector<LevelReport> attempts;
        attempts.reserve(quorum);
        for (unsigned q = 0; q < quorum; ++q) {
            // Consecutive line-sized offsets probe distinct sets at
            // every level.
            const cache::Addr base =
                defaults.baseAddr +
                static_cast<uint64_t>(report.geometry.lineSize) * q;
            attempts.push_back(inferLevelAt(
                ctx, report.geometry, level, base, opts,
                q == 0 ? 0 : 1000003ULL * q));
        }

        LevelReport lvl;
        if (quorum == 1) {
            lvl = std::move(attempts.front());
        } else {
            unsigned bestVotes = 0;
            int bestAttempt = -1;
            for (std::size_t a = 0; a < attempts.size(); ++a) {
                if (attempts[a].outcome != LevelOutcome::kDecided)
                    continue;
                unsigned votes = 0;
                for (const LevelReport& other : attempts)
                    if (other.outcome == LevelOutcome::kDecided &&
                        other.verdict == attempts[a].verdict)
                        ++votes;
                if (votes > bestVotes) {
                    bestVotes = votes;
                    bestAttempt = static_cast<int>(a);
                }
            }
            if (bestAttempt >= 0 && bestVotes * 2 > quorum) {
                lvl = std::move(attempts[bestAttempt]);
                for (const LevelReport& other : attempts)
                    lvl.confidence = std::min(lvl.confidence,
                                              other.confidence);
                lvl.diagnostics = "cross-set quorum " +
                                  std::to_string(bestVotes) + "/" +
                                  std::to_string(quorum);
            } else {
                lvl.levelName = levelTag(level);
                lvl.geometry = report.geometry.levels[level];
                lvl.outcome = LevelOutcome::kUndetermined;
                lvl.verdict = "undetermined";
                lvl.confidence = 0.0;
                lvl.diagnostics = "cross-set quorum split:";
                for (const LevelReport& other : attempts) {
                    lvl.diagnostics += " [" + other.verdict;
                    if (!other.diagnostics.empty())
                        lvl.diagnostics += ": " + other.diagnostics;
                    lvl.diagnostics += "]";
                }
            }
        }
        lvl.heterogeneousOnly = adaptive.heterogeneousOnly;
        if (!adaptiveNote.empty()) {
            lvl.diagnostics += lvl.diagnostics.empty() ? "" : "; ";
            lvl.diagnostics += adaptiveNote;
        }
        lvl.loadsUsed = ctx.loadsIssued() - loads_before;
        report.levels.push_back(std::move(lvl));
    }

    report.totalLoads = ctx.loadsIssued();
    return report;
}

} // namespace recap::infer
