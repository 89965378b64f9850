#include "recap/query/server.hh"

#include <cctype>
#include <cstdio>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "recap/common/cli.hh"
#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/query/parse.hh"
#include "recap/query/service.hh"

namespace recap::query
{

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
abortedJson(const std::string& what, AbortReason primary,
            const std::vector<AbortReason>& all)
{
    std::vector<AbortReason> reasons = all;
    if (reasons.empty())
        reasons.push_back(primary);
    std::string out = "{\"ok\":false,\"error\":\"" + jsonEscape(what) +
                      "\",\"aborted\":\"" + abortReasonName(primary) +
                      "\",\"reasons\":[";
    for (std::size_t i = 0; i < reasons.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        out += abortReasonName(reasons[i]);
        out += '"';
    }
    out += "]}";
    return out;
}

namespace
{

std::string
errorJson(const std::string& what, std::optional<std::size_t> position,
          std::optional<std::size_t> queryIndex)
{
    std::ostringstream out;
    out << "{\"ok\":false,\"error\":\"" << jsonEscape(what) << '"';
    if (position)
        out << ",\"position\":" << *position;
    if (queryIndex)
        out << ",\"query\":" << *queryIndex;
    out << '}';
    return out.str();
}

/**
 * Installs a request guard on the oracle; clears it on scope exit.
 * Every checkpoint evaluates ALL limits, so when several race (a
 * deadline expiring while the access budget is also blown) the abort
 * carries every tripped reason — deterministically timeout-first.
 */
class CheckpointGuard
{
  public:
    CheckpointGuard(QueryOracle& oracle, const RequestLimits& limits,
                    const ClockFn& clock, const Deadline* external)
        : oracle_(oracle)
    {
        const bool wantDeadline = external
                                      ? external->bounded()
                                      : limits.timeoutMillis != 0;
        if (!wantDeadline && limits.maxAccessesPerRequest == 0)
            return; // nothing to guard
        const ClockFn now = resolveClock(clock);
        Deadline deadline;
        if (external)
            deadline = *external;
        else if (limits.timeoutMillis != 0)
            deadline = Deadline::in(now(), limits.timeoutMillis);
        const uint64_t accessesBefore = oracle.accessesIssued();
        oracle.setCheckpoint([&oracle = oracle_, limits, now, deadline,
                              accessesBefore] {
            std::vector<AbortReason> tripped;
            std::string what;
            if (deadline.bounded() && deadline.expired(now())) {
                tripped.push_back(AbortReason::kTimeout);
                what = "request exceeded the " +
                       std::to_string(limits.timeoutMillis) +
                       " ms timeout";
            }
            if (limits.maxAccessesPerRequest != 0 &&
                oracle.accessesIssued() - accessesBefore >
                    limits.maxAccessesPerRequest) {
                tripped.push_back(AbortReason::kAccessBudget);
                if (!what.empty())
                    what += "; ";
                what += "request exceeded the access budget of " +
                        std::to_string(limits.maxAccessesPerRequest) +
                        " loads";
            }
            if (!tripped.empty())
                throw RequestAborted(what, tripped.front(), tripped);
        });
        armed_ = true;
    }

    ~CheckpointGuard()
    {
        if (armed_)
            oracle_.setCheckpoint(nullptr);
    }

    CheckpointGuard(const CheckpointGuard&) = delete;
    CheckpointGuard& operator=(const CheckpointGuard&) = delete;

  private:
    QueryOracle& oracle_;
    bool armed_ = false;
};

void
writeVerdict(std::ostringstream& out, const CompiledQuery& query,
             const QueryVerdict& verdict, unsigned* undetermined)
{
    out << "\"query\":\"" << jsonEscape(query.text)
        << "\",\"probes\":[";
    for (std::size_t i = 0; i < verdict.probes.size(); ++i) {
        const ProbeOutcome& probe = verdict.probes[i];
        if (i > 0)
            out << ',';
        out << "{\"step\":" << probe.step << ",\"block\":\""
            << jsonEscape(query.blockName(probe.block))
            << "\",\"hit\":" << (probe.hit ? "true" : "false")
            << ",\"level\":" << probe.level;
        if (probe.confidence < 1.0)
            out << ",\"confidence\":" << probe.confidence;
        if (!probe.determined) {
            out << ",\"determined\":false";
            if (undetermined)
                ++*undetermined;
        }
        out << '}';
    }
    out << "],\"experiments\":" << verdict.experiments
        << ",\"accesses\":" << verdict.accesses;
}

std::string
trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

RequestResult
abortedResult(const std::string& what, AbortReason reason,
              bool clientFault)
{
    RequestResult res;
    res.kind = RequestResult::Kind::kAborted;
    res.reason = reason;
    res.reasons = {reason};
    res.clientFault = clientFault;
    res.json = abortedJson(what, reason);
    return res;
}

} // namespace

RequestResult
respondLineClassified(const std::string& line, QueryOracle& oracle,
                      const ServerOptions& opts,
                      const Deadline* deadline)
{
    const RequestLimits& limits = opts.limits;
    if (limits.maxLineBytes != 0 && line.size() > limits.maxLineBytes) {
        return abortedResult("request line of " +
                                 std::to_string(line.size()) +
                                 " bytes exceeds the limit of " +
                                 std::to_string(limits.maxLineBytes),
                             AbortReason::kLineTooLong, true);
    }

    RequestResult res;
    const std::string request = trim(line);
    if (request.empty() || request[0] == '#') {
        res.kind = RequestResult::Kind::kSilent;
        return res;
    }

    if (request[0] == ':') {
        res.command = true;
        res.okAnswer = true;
        if (request == ":quit") {
            res.json = "{\"ok\":true,\"bye\":true}";
        } else if (request == ":ways") {
            res.json = "{\"ok\":true,\"ways\":" +
                       std::to_string(oracle.ways()) + "}";
        } else if (request == ":backend") {
            res.json = "{\"ok\":true,\"backend\":\"" +
                       jsonEscape(oracle.describe()) + "\"}";
        } else if (request == ":stats") {
            res.json = "{\"ok\":true,\"experiments\":" +
                       std::to_string(oracle.experimentsRun()) +
                       ",\"accesses\":" +
                       std::to_string(oracle.accessesIssued()) + "}";
        } else {
            res.okAnswer = false;
            res.clientFault = true;
            res.json = errorJson("unknown command: " + request,
                                 std::nullopt, std::nullopt);
        }
        return res;
    }

    // Split `;`-separated queries; offsets locate errors in the line.
    std::vector<std::pair<std::string, std::size_t>> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t semi = line.find(';', start);
        parts.emplace_back(
            line.substr(start, semi == std::string::npos
                                   ? std::string::npos
                                   : semi - start),
            start);
        if (semi == std::string::npos)
            break;
        start = semi + 1;
    }

    if (limits.maxQueriesPerLine != 0 &&
        parts.size() > limits.maxQueriesPerLine) {
        return abortedResult(
            std::to_string(parts.size()) +
                " queries on one line exceed the limit of " +
                std::to_string(limits.maxQueriesPerLine),
            AbortReason::kTooManyQueries, true);
    }

    std::vector<CompiledQuery> queries;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        try {
            queries.push_back(compile(parseQuery(parts[i].first)));
            if (limits.maxStepsPerQuery != 0 &&
                queries.back().steps.size() >
                    limits.maxStepsPerQuery) {
                return abortedResult(
                    "query " + std::to_string(i) + " has " +
                        std::to_string(queries.back().steps.size()) +
                        " steps, over the limit of " +
                        std::to_string(limits.maxStepsPerQuery),
                    AbortReason::kQueryTooLong, true);
            }
        } catch (const ParseError& e) {
            res.clientFault = true;
            res.json = errorJson(e.message(),
                                 parts[i].second + e.position(),
                                 parts.size() > 1
                                     ? std::optional<std::size_t>(i)
                                     : std::nullopt);
            return res;
        } catch (const UsageError& e) {
            res.clientFault = true;
            res.json = errorJson(e.what(), std::nullopt,
                                 parts.size() > 1
                                     ? std::optional<std::size_t>(i)
                                     : std::nullopt);
            return res;
        }
    }

    std::ostringstream out;
    try {
        const CheckpointGuard guard(oracle, limits, opts.clock,
                                    deadline);
        if (queries.size() == 1) {
            const QueryVerdict verdict = oracle.evaluate(queries[0]);
            out << "{\"ok\":true,";
            writeVerdict(out, queries[0], verdict,
                         &res.undeterminedProbes);
            out << '}';
        } else {
            BatchStats stats;
            const std::vector<QueryVerdict> verdicts =
                oracle.evaluateBatch(queries, opts.batch, &stats);
            out << "{\"ok\":true,\"batch\":[";
            for (std::size_t i = 0; i < verdicts.size(); ++i) {
                if (i > 0)
                    out << ',';
                out << '{';
                writeVerdict(out, queries[i], verdicts[i],
                             &res.undeterminedProbes);
                out << '}';
            }
            out << "],\"sharing\":{\"queries\":" << stats.queries
                << ",\"naive\":" << stats.naiveCost
                << ",\"actual\":" << stats.sharedCost
                << ",\"experiments\":" << stats.experimentsRun
                << ",\"experimentsSaved\":" << stats.experimentsSaved
                << "}}";
        }
    } catch (const RequestAborted& e) {
        res.kind = RequestResult::Kind::kAborted;
        res.reason = e.code();
        res.reasons = e.allReasons();
        res.json = abortedJson(e.what(), e.code(), e.allReasons());
        return res;
    } catch (const std::exception& e) {
        res.kind = RequestResult::Kind::kFailed;
        res.reason = AbortReason::kOracleFailure;
        res.reasons = {AbortReason::kOracleFailure};
        res.json = abortedJson(e.what(), AbortReason::kOracleFailure);
        return res;
    }
    res.okAnswer = true;
    res.json = out.str();
    return res;
}

std::string
respondLine(const std::string& line, QueryOracle& oracle,
            const ServerOptions& opts)
{
    return respondLineClassified(line, oracle, opts).json;
}

unsigned
runSession(std::istream& in, std::ostream& out, QueryOracle& oracle,
           const ServerOptions& opts)
{
    unsigned answered = 0;
    std::string line;
    while (std::getline(in, line)) {
        const std::string response = respondLine(line, oracle, opts);
        if (response.empty())
            continue;
        out << response << '\n' << std::flush;
        ++answered;
        if (trim(line) == ":quit")
            break;
    }
    return answered;
}

namespace
{

/** Everything one machine-backed oracle shard owns. */
struct MachineShard
{
    hw::Machine machine;
    infer::MeasurementContext ctx;
    std::unique_ptr<MachineOracle> oracle;

    MachineShard(const hw::MachineSpec& spec, uint64_t seed,
                 const hw::FaultConfig& faults, unsigned level,
                 const MachineOracleConfig& cfg)
        : machine(spec, seed, faults), ctx(machine),
          oracle(std::make_unique<MachineOracle>(
              ctx, infer::assumedGeometry(spec), level, cfg))
    {}
};

/** Splits "A[:B[:C...]]" into its fields. */
std::vector<std::string>
splitColons(const std::string& s)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
        const std::size_t colon = s.find(':', start);
        fields.push_back(s.substr(start, colon == std::string::npos
                                             ? std::string::npos
                                             : colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    return fields;
}

} // namespace

int
querydMain(int argc, const char* const* argv, std::istream& in,
           std::ostream& out, std::ostream& err)
{
    std::string policySpec;
    std::string machineName;
    unsigned ways = 8;
    unsigned level = 0;
    unsigned votes = 1;
    unsigned maxSets = 512;
    uint64_t seed = 1;
    double noiseP = 0.0;
    double hostileX = 0.0;
    bool adaptiveVote = false;
    ObservationMode mode = ObservationMode::kCounter;
    ServiceConfig scfg;
    ServerOptions& opts = scfg.session;
    unsigned shards = 1;

    const auto usage = [&err] {
        err << "usage: recap-queryd --policy <spec> [--ways N] "
               "[--seed S]\n"
               "       recap-queryd --machine <name> [--level L] "
               "[--mode counter|latency]\n"
               "                    [--noise P] [--hostile X] "
               "[--votes N] [--adaptive] [--seed S] [--max-sets N]\n"
               "       common: [--naive] [--threads N] "
               "[--timeout-ms N] [--max-line-bytes N]\n"
               "               [--max-queries N] [--max-steps N] "
               "[--max-accesses N]  (0 disables)\n"
               "       service: [--shards N] [--sessions N] "
               "[--max-queue N] [--max-concurrent N]\n"
               "                [--retry A[:BASE[:MAX]]] "
               "[--breaker T[:OPENMS[:HALF]]]\n";
        return 2;
    };

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                require(i + 1 < argc,
                        "missing value for " + arg);
                return argv[++i];
            };
            // Checked: "-1" must not wrap and "8x" must not read 8.
            const auto count = [&](auto& dst) {
                using T = std::remove_reference_t<decltype(dst)>;
                dst = parseCount<T>(value(), arg);
            };
            if (arg == "--policy")
                policySpec = value();
            else if (arg == "--machine")
                machineName = value();
            else if (arg == "--ways")
                count(ways);
            else if (arg == "--level")
                count(level);
            else if (arg == "--votes")
                count(votes);
            else if (arg == "--max-sets")
                count(maxSets);
            else if (arg == "--seed")
                count(seed);
            else if (arg == "--noise")
                noiseP = parseRate(value(), arg, 0.0, 1.0);
            else if (arg == "--hostile")
                hostileX = parseRate(value(), arg, 0.0,
                                     std::numeric_limits<double>::max());
            else if (arg == "--threads")
                count(opts.batch.numThreads);
            else if (arg == "--naive")
                opts.batch.prefixSharing = false;
            else if (arg == "--adaptive")
                adaptiveVote = true;
            else if (arg == "--timeout-ms")
                count(opts.limits.timeoutMillis);
            else if (arg == "--max-line-bytes")
                count(opts.limits.maxLineBytes);
            else if (arg == "--max-queries")
                count(opts.limits.maxQueriesPerLine);
            else if (arg == "--max-steps")
                count(opts.limits.maxStepsPerQuery);
            else if (arg == "--max-accesses")
                count(opts.limits.maxAccessesPerRequest);
            else if (arg == "--shards")
                count(shards);
            else if (arg == "--sessions")
                count(scfg.maxSessions);
            else if (arg == "--max-queue")
                count(scfg.maxQueue);
            else if (arg == "--max-concurrent")
                count(scfg.maxConcurrent);
            else if (arg == "--retry") {
                const auto vals = splitColons(value());
                require(vals.size() <= 3,
                        "--retry wants A[:BASE[:MAX]]");
                scfg.retry.maxAttempts =
                    parseCount<unsigned>(vals[0], arg);
                if (vals.size() > 1)
                    scfg.retry.baseDelayMillis =
                        parseCount<uint64_t>(vals[1], arg);
                if (vals.size() > 2)
                    scfg.retry.maxDelayMillis =
                        parseCount<uint64_t>(vals[2], arg);
            } else if (arg == "--breaker") {
                const auto vals = splitColons(value());
                require(vals.size() <= 3,
                        "--breaker wants T[:OPENMS[:HALF]]");
                const auto threshold =
                    parseCount<unsigned>(vals[0], arg);
                scfg.breaker.enabled = threshold != 0;
                if (threshold != 0)
                    scfg.breaker.failureThreshold = threshold;
                if (vals.size() > 1)
                    scfg.breaker.openMillis =
                        parseCount<uint64_t>(vals[1], arg);
                if (vals.size() > 2)
                    scfg.breaker.halfOpenSuccesses =
                        parseCount<unsigned>(vals[2], arg);
            } else if (arg == "--mode") {
                const std::string m = value();
                require(m == "counter" || m == "latency",
                        "--mode must be counter or latency");
                mode = m == "counter" ? ObservationMode::kCounter
                                      : ObservationMode::kLatency;
            } else {
                err << "recap-queryd: unknown option " << arg << "\n";
                return usage();
            }
        }
        require(policySpec.empty() != machineName.empty(),
                "exactly one of --policy / --machine is required");
        require(shards >= 1, "--shards wants at least 1");
        scfg.seed = seed;

        // Build one oracle per shard eagerly, so a bad spec fails the
        // whole invocation instead of poisoning a shard at first use.
        std::vector<std::unique_ptr<PolicyOracle>> policyShards;
        std::vector<std::unique_ptr<MachineShard>> machineShards;
        std::vector<QueryOracle*> oracles;
        std::string where;
        if (!policySpec.empty()) {
            for (unsigned s = 0; s < shards; ++s) {
                policyShards.push_back(std::make_unique<PolicyOracle>(
                    policySpec, ways,
                    s == 0 ? seed : deriveTaskSeed(seed, s)));
                oracles.push_back(policyShards.back().get());
            }
        } else {
            const auto spec = hw::reducedSpec(
                hw::catalogMachine(machineName), maxSets);
            hw::NoiseConfig noise;
            noise.disturbProbability = noiseP;
            const hw::FaultConfig faults =
                hostileX > 0.0 ? hw::FaultConfig::hostile(hostileX)
                               : hw::FaultConfig::fromNoise(noise);
            MachineOracleConfig cfg;
            cfg.mode = mode;
            cfg.prober.voteRepeats = votes;
            cfg.prober.vote.enabled = adaptiveVote;
            for (unsigned s = 0; s < shards; ++s) {
                machineShards.push_back(
                    std::make_unique<MachineShard>(
                        spec, s == 0 ? seed : deriveTaskSeed(seed, s),
                        faults, level, cfg));
                oracles.push_back(machineShards.back()->oracle.get());
            }
            where = " on " + spec.name;
        }

        err << "# recap-queryd serving " << oracles[0]->describe()
            << where;
        if (shards > 1)
            err << " (" << shards << " shards)";
        err << "\n";

        ServerCore core(std::move(oracles), scfg);
        runService(in, out, core);
        return 0;
    } catch (const std::exception& e) {
        err << "recap-queryd: " << e.what() << "\n";
        return usage();
    }
}

} // namespace recap::query
