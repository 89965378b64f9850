/**
 * @file
 * Tests for recap-queryd's line protocol: scripted sessions against
 * the policy oracle and a noisy machine oracle, JSON error responses
 * with positions, batch lines, and the in-process entry point the
 * binary wraps.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/query/oracle.hh"
#include "recap/query/parse.hh"
#include "recap/query/server.hh"

namespace
{

using namespace recap;
using query::PolicyOracle;
using query::respondLine;
using query::runSession;
using query::ServerOptions;

bool
contains(const std::string& haystack, const std::string& needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(QueryServer, AnswersQueriesWithVerdictJson)
{
    PolicyOracle oracle("lru", 4);
    const std::string hit = respondLine("a b c d a?", oracle);
    EXPECT_TRUE(contains(hit, "\"ok\":true")) << hit;
    EXPECT_TRUE(contains(hit, "\"query\":\"a b c d a?\"")) << hit;
    EXPECT_TRUE(contains(hit, "\"block\":\"a\",\"hit\":true")) << hit;
    EXPECT_TRUE(contains(hit, "\"experiments\":1")) << hit;

    const std::string miss = respondLine("a b c d e a?", oracle);
    EXPECT_TRUE(contains(miss, "\"hit\":false")) << miss;
}

TEST(QueryServer, ReportsParseErrorsWithLinePositions)
{
    PolicyOracle oracle("lru", 4);
    const std::string bad = respondLine("a b $ c", oracle);
    EXPECT_TRUE(contains(bad, "\"ok\":false")) << bad;
    EXPECT_TRUE(contains(bad, "\"position\":4")) << bad;

    // In a `;`-joined line the position is line-relative and the
    // failing query's index is reported.
    const std::string batch = respondLine("a b? ; c ^0", oracle);
    EXPECT_TRUE(contains(batch, "\"ok\":false")) << batch;
    EXPECT_TRUE(contains(batch, "\"position\":10")) << batch;
    EXPECT_TRUE(contains(batch, "\"query\":1")) << batch;
}

TEST(QueryServer, CommandsReportOracleMetadata)
{
    PolicyOracle oracle("srrip", 8);
    EXPECT_TRUE(contains(respondLine(":ways", oracle), "\"ways\":8"));
    EXPECT_TRUE(
        contains(respondLine(":backend", oracle), "srrip"));
    oracle.evaluate(query::compile(query::parseQuery("a b?")));
    const std::string stats = respondLine(":stats", oracle);
    EXPECT_TRUE(contains(stats, "\"experiments\":1")) << stats;
    EXPECT_TRUE(contains(stats, "\"accesses\":2")) << stats;
    EXPECT_TRUE(
        contains(respondLine(":bogus", oracle), "\"ok\":false"));
}

TEST(QueryServer, BlankAndCommentLinesGetNoResponse)
{
    PolicyOracle oracle("lru", 4);
    EXPECT_EQ(respondLine("", oracle), "");
    EXPECT_EQ(respondLine("   \t ", oracle), "");
    EXPECT_EQ(respondLine("# a b c d a?", oracle), "");
}

TEST(QueryServer, SemicolonLinesEvaluateAsOneSharedBatch)
{
    PolicyOracle oracle("lru", 4);
    const std::string response = respondLine(
        "a b c d a? ; a b c d e a? ; a b c d e f a?", oracle);
    EXPECT_TRUE(contains(response, "\"batch\":[")) << response;
    EXPECT_TRUE(contains(response, "\"sharing\":{\"queries\":3"))
        << response;
    EXPECT_TRUE(contains(response, "\"hit\":true")) << response;
    EXPECT_TRUE(contains(response, "\"hit\":false")) << response;
    // Shared prefixes: the batch costs less than naive re-execution.
    const auto naive = response.find("\"naive\":");
    const auto actual = response.find("\"actual\":");
    ASSERT_NE(naive, std::string::npos);
    ASSERT_NE(actual, std::string::npos);
    EXPECT_LT(std::stoul(response.substr(actual + 9)),
              std::stoul(response.substr(naive + 8)));
}

TEST(QueryServer, ScriptedSessionRunsToQuit)
{
    PolicyOracle oracle("lru", 4);
    std::istringstream in("# warmup comment\n"
                          "a b c d a?\n"
                          "\n"
                          ":ways\n"
                          "bad $ line\n"
                          ":quit\n"
                          "a b c d a?\n"); // after :quit: unanswered
    std::ostringstream out;
    const unsigned answered = runSession(in, out, oracle);
    EXPECT_EQ(answered, 4u); // query, :ways, error, :quit
    std::vector<std::string> lines;
    std::istringstream parsed(out.str());
    for (std::string line; std::getline(parsed, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(contains(lines[0], "\"hit\":true"));
    EXPECT_TRUE(contains(lines[1], "\"ways\":4"));
    EXPECT_TRUE(contains(lines[2], "\"ok\":false"));
    EXPECT_TRUE(contains(lines[3], "\"bye\":true"));
}

TEST(QueryServerLimits, OversizedLinesGetAStructuredError)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.maxLineBytes = 32;
    const std::string ok = respondLine("a b c d a?", oracle, opts);
    EXPECT_TRUE(contains(ok, "\"ok\":true")) << ok;

    const std::string big(200, 'a');
    const std::string rejected = respondLine(big, oracle, opts);
    EXPECT_TRUE(contains(rejected, "\"ok\":false")) << rejected;
    EXPECT_TRUE(contains(rejected, "\"aborted\":\"line-too-long\""))
        << rejected;
    // The session survives: the next request answers normally.
    EXPECT_TRUE(contains(respondLine("a a?", oracle, opts),
                         "\"ok\":true"));
}

TEST(QueryServerLimits, TooManyQueriesPerLineIsRejected)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.maxQueriesPerLine = 2;
    EXPECT_TRUE(contains(respondLine("a? ; b?", oracle, opts),
                         "\"ok\":true"));
    const std::string rejected =
        respondLine("a? ; b? ; c?", oracle, opts);
    EXPECT_TRUE(contains(rejected, "\"ok\":false")) << rejected;
    EXPECT_TRUE(
        contains(rejected, "\"aborted\":\"too-many-queries\""))
        << rejected;
}

TEST(QueryServerLimits, OverlongQueriesAreRejected)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.maxStepsPerQuery = 4;
    EXPECT_TRUE(contains(respondLine("a b c d?", oracle, opts),
                         "\"ok\":true"));
    const std::string rejected =
        respondLine("a b c d e?", oracle, opts);
    EXPECT_TRUE(contains(rejected, "\"ok\":false")) << rejected;
    EXPECT_TRUE(contains(rejected, "\"aborted\":\"query-too-long\""))
        << rejected;
}

TEST(QueryServerLimits, ZeroDisablesEveryLimit)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.maxLineBytes = 0;
    opts.limits.maxQueriesPerLine = 0;
    opts.limits.maxStepsPerQuery = 0;
    opts.limits.maxAccessesPerRequest = 0;
    opts.limits.timeoutMillis = 0;
    std::string line;
    for (int i = 0; i < 200; ++i)
        line += "a b c d e f ";
    line += "a?";
    EXPECT_TRUE(contains(respondLine(line, oracle, opts),
                         "\"ok\":true"));
}

TEST(QueryServerLimits, AccessBudgetAbortsMidRequest)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    // Naive batches re-check the budget before every query; the
    // prefix-sharing path checks at batch entry.
    opts.batch.prefixSharing = false;
    opts.limits.maxAccessesPerRequest = 10;
    // One short query fits the budget.
    EXPECT_TRUE(contains(respondLine("a b a?", oracle, opts),
                         "\"ok\":true"));
    // A batch that would cost far more than 10 accesses aborts with a
    // structured response...
    const std::string aborted = respondLine(
        "a b c d e f a? ; a b c d e f g b? ; a b c d e f g h c?",
        oracle, opts);
    EXPECT_TRUE(contains(aborted, "\"ok\":false")) << aborted;
    EXPECT_TRUE(contains(aborted, "\"aborted\":\"access-budget\""))
        << aborted;
    // ...and the session keeps serving.
    EXPECT_TRUE(contains(respondLine(":ways", oracle, opts),
                         "\"ways\":4"));
}

TEST(QueryServerLimits, ScriptedClockTripsTheTimeout)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.timeoutMillis = 50;
    // A scripted clock that jumps far past the deadline after the
    // first reading: the first checkpoint inside evaluation trips.
    auto now = std::make_shared<uint64_t>(0);
    opts.clock = [now] {
        const uint64_t t = *now;
        *now += 1000;
        return t;
    };
    const std::string aborted =
        respondLine("a b c d a?", oracle, opts);
    EXPECT_TRUE(contains(aborted, "\"ok\":false")) << aborted;
    EXPECT_TRUE(contains(aborted, "\"aborted\":\"timeout\""))
        << aborted;
    EXPECT_TRUE(contains(aborted, "50")) << aborted;

    // A well-behaved clock under the same limit answers fine.
    opts.clock = [] { return uint64_t{7}; };
    EXPECT_TRUE(contains(respondLine("a b c d a?", oracle, opts),
                         "\"ok\":true"));
}

TEST(QueryServerLimits, TimeoutAbortsAMachineOracleSessionCleanly)
{
    // The machine oracle funnels every experiment batch (one per
    // flush-delimited segment) through the checkpoint, so a timeout
    // mid-measurement surfaces as the same structured error and
    // leaves the session usable for later requests.
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 64);
    hw::Machine machine(spec, 1);
    infer::MeasurementContext ctx(machine);
    const auto geom = infer::assumedGeometry(spec);
    query::MachineOracle oracle(ctx, geom, 0);

    ServerOptions opts;
    opts.limits.timeoutMillis = 10;
    // The clock advances 4 ms per reading: a one-segment request
    // stays under the deadline, a many-segment request crosses it at
    // its third checkpoint.
    auto now = std::make_shared<uint64_t>(0);
    opts.clock = [now] { return *now += 4; };

    std::istringstream in("a b c a?\n"
                          "a? @ b? @ c? @ d? @ e?\n"
                          "f g f?\n"
                          ":quit\n");
    std::ostringstream out;
    runSession(in, out, oracle, opts);
    std::vector<std::string> lines;
    std::istringstream parsed(out.str());
    for (std::string line; std::getline(parsed, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(contains(lines[0], "\"ok\":true")) << lines[0];
    EXPECT_TRUE(contains(lines[1], "\"aborted\":\"timeout\""))
        << lines[1];
    EXPECT_TRUE(contains(lines[2], "\"ok\":true")) << lines[2];
    EXPECT_TRUE(contains(lines[3], "\"bye\":true")) << lines[3];
}

int
runQueryd(const std::vector<std::string>& args,
          const std::string& script, std::string& out,
          std::string& err)
{
    std::vector<const char*> argv{"recap-queryd"};
    for (const auto& arg : args)
        argv.push_back(arg.c_str());
    std::istringstream in(script);
    std::ostringstream outStream;
    std::ostringstream errStream;
    const int rc =
        query::querydMain(static_cast<int>(argv.size()), argv.data(),
                          in, outStream, errStream);
    out = outStream.str();
    err = errStream.str();
    return rc;
}

TEST(QuerydMain, ServesAPolicyOracleSession)
{
    std::string out;
    std::string err;
    const int rc = runQueryd({"--policy", "lru", "--ways", "4"},
                             "a b c d a?\n@ a?\n:quit\n", out, err);
    EXPECT_EQ(rc, 0) << err;
    EXPECT_TRUE(contains(out, "\"hit\":true")) << out;
    EXPECT_TRUE(contains(out, "\"hit\":false")) << out;
    EXPECT_TRUE(contains(err, "policy:lru")) << err;
}

TEST(QuerydMain, ServesANoisyMachineOracleSession)
{
    // A noisy machine with pinned seed and voting must still answer
    // the fill-then-probe session correctly.
    std::string out;
    std::string err;
    const int rc = runQueryd(
        {"--machine", "core2-e6300", "--level", "1", "--noise",
         "0.01", "--votes", "9", "--seed", "5", "--max-sets", "512",
         "--mode", "latency"},
        "a b c d e f g h a?\nfresh?\n:stats\n:quit\n", out, err);
    EXPECT_EQ(rc, 0) << err;
    EXPECT_TRUE(contains(err, "machine:L2")) << err;
    EXPECT_TRUE(contains(err, "latency")) << err;
    std::vector<std::string> lines;
    std::istringstream parsed(out);
    for (std::string line; std::getline(parsed, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(contains(lines[0], "\"hit\":true,\"level\":1"))
        << lines[0];
    EXPECT_TRUE(contains(lines[1], "\"hit\":false")) << lines[1];
    EXPECT_TRUE(contains(lines[2], "\"experiments\":")) << lines[2];
}

TEST(QuerydMain, BatchLinesRespectTheNaiveFlag)
{
    std::string out;
    std::string err;
    const int rc = runQueryd({"--policy", "lru", "--ways", "4",
                              "--naive"},
                             "a b c a? ; a b c d a?\n:quit\n", out,
                             err);
    EXPECT_EQ(rc, 0) << err;
    EXPECT_TRUE(contains(out, "\"sharing\":")) << out;
    // Naive mode: actual cost equals the naive cost.
    EXPECT_TRUE(contains(out, "\"naive\":9,\"actual\":9")) << out;
}

TEST(QuerydMain, RejectsBadInvocations)
{
    std::string out;
    std::string err;
    EXPECT_EQ(runQueryd({}, "", out, err), 2);
    EXPECT_TRUE(contains(err, "usage:")) << err;
    EXPECT_EQ(runQueryd({"--policy", "lru", "--machine", "x"}, "",
                        out, err),
              2);
    EXPECT_EQ(runQueryd({"--frobnicate"}, "", out, err), 2);
    EXPECT_EQ(runQueryd({"--policy", "no-such-policy"}, "", out, err),
              2);
    EXPECT_EQ(runQueryd({"--policy", "lru", "--retry", "x"}, "", out,
                        err),
              2);
}

// Every count flag takes decimal digits that fit its type and
// nothing else: "-1" must not wrap to the type's maximum (with
// --threads or --shards that asks for billions of threads or oracles)
// and "8x" must not read as 8. The input stream is empty, so a
// wrongly accepted value never serves anything.
TEST(QuerydCli, RejectsMalformedCounts)
{
    const std::vector<std::string> unsignedFlags = {
        "--ways",    "--level",  "--votes",          "--max-sets",
        "--threads", "--shards", "--max-concurrent",
    };
    const std::vector<std::string> wideFlags = {
        "--seed",        "--timeout-ms",  "--max-line-bytes",
        "--max-queries", "--max-steps",   "--max-accesses",
        "--sessions",    "--max-queue",
    };
    const std::vector<std::string> malformed = {
        "-1", "8x", "", "+3", " 3", "0x10", "1e3", "3.0",
        "18446744073709551616",
    };
    std::string out;
    std::string err;
    const auto rejects = [&](const std::string& flag,
                             const std::string& value) {
        const int rc =
            runQueryd({"--policy", "lru", flag, value}, "", out, err);
        EXPECT_EQ(rc, 2) << flag << " '" << value << "'";
        EXPECT_TRUE(contains(err, "bad count"))
            << flag << " '" << value << "': " << err;
    };
    for (const auto& flag : unsignedFlags) {
        for (const auto& value : malformed)
            rejects(flag, value);
        rejects(flag, "4294967296"); // one past the unsigned maximum
    }
    for (const auto& flag : wideFlags)
        for (const auto& value : malformed)
            rejects(flag, value);
    for (const std::string spec : {"-1", "2:x", "2:-5", "4294967296"})
        rejects("--retry", spec);
    for (const std::string spec : {"-1", "4:100:1x", "4:-100"})
        rejects("--breaker", spec);

    // Well-formed counts still parse.
    EXPECT_EQ(runQueryd({"--policy", "lru", "--ways", "4", "--threads",
                         "2", "--seed", "18446744073709551615",
                         "--retry", "2:1:8"},
                        "", out, err),
              0)
        << err;
}

// --noise takes a probability and --hostile a non-negative intensity,
// each a finite number written out in full: "0.5x" must not read as
// 0.5, a negative value or "nan" must not quietly give a noiseless
// machine, and "inf" must not clamp every fault to certainty. The
// input stream is empty, so a wrongly accepted value never serves
// anything.
TEST(QuerydCli, RejectsMalformedRates)
{
    std::string out;
    std::string err;
    const auto rejects = [&](const std::string& flag,
                             const std::string& value) {
        const int rc = runQueryd({"--machine", "core2-e6300", flag, value},
                                 "", out, err);
        EXPECT_EQ(rc, 2) << flag << " '" << value << "'";
        EXPECT_TRUE(contains(err, "bad rate"))
            << flag << " '" << value << "': " << err;
    };
    for (const std::string flag : {"--noise", "--hostile"})
        for (const std::string value :
             {"0.5x", "-1", "-0.5", "nan", "inf", "-inf", "", " 0.5",
              "+0.5", "0,5", "1e400"})
            rejects(flag, value);
    rejects("--noise", "1.5");

    // Well-formed rates still parse, at the edges of their ranges too.
    for (const auto& [flag, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"--noise", "0"}, {"--noise", "1"}, {"--noise", "0.25"},
             {"--noise", "2.5e-1"}, {"--hostile", "0"},
             {"--hostile", "0.5"}, {"--hostile", "3"}}) {
        EXPECT_EQ(runQueryd({"--machine", "core2-e6300", flag, value}, "",
                            out, err),
                  0)
            << flag << " '" << value << "': " << err;
    }
}

// ---------------------------------------------------------------
// NDJSON session-parser fuzzing: hostile byte streams must always
// produce structured JSON errors (or structured answers) and must
// never kill the session — the next valid request still answers.
// ---------------------------------------------------------------

TEST(QueryServerFuzz, RandomByteLinesAlwaysAnswerStructuredJson)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.maxLineBytes = 512;
    Rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        // Lines of arbitrary bytes: embedded NULs, malformed UTF-8
        // continuation bytes, control characters — everything but
        // the '\n' framing delimiter.
        const std::size_t len = rng.nextBelow(96);
        std::string line;
        line.reserve(len);
        for (std::size_t b = 0; b < len; ++b) {
            char c = static_cast<char>(rng.nextBelow(256));
            if (c == '\n')
                c = '\0';
            line += c;
        }
        const std::string response =
            query::respondLine(line, oracle, opts);
        if (response.empty())
            continue; // blank/comment-shaped garbage: silent is fine
        EXPECT_TRUE(response.rfind("{\"ok\":", 0) == 0)
            << "iteration " << i << ": " << response;
        // Every response is one line — framing survives any input.
        EXPECT_EQ(response.find('\n'), std::string::npos);
    }
    // The session (oracle + parser) survived 2000 hostile lines.
    const std::string after =
        query::respondLine("a b c d a?", oracle, opts);
    EXPECT_TRUE(contains(after, "\"ok\":true")) << after;
}

TEST(QueryServerFuzz, MalformedUtf8AndNulsGetStructuredErrors)
{
    PolicyOracle oracle("lru", 4);
    const std::vector<std::string> hostile = {
        std::string("\xc3\x28 a?"),         // bad continuation
        std::string("\xf0\x9f a?"),         // truncated 4-byte seq
        std::string("a\0b a?", 6),          // embedded NUL
        std::string("\xff\xfe\xfd"),        // not UTF-8 at all
        std::string(3, '\x01') + " a?",     // control chars
    };
    for (const std::string& line : hostile) {
        const std::string response = query::respondLine(line, oracle);
        ASSERT_FALSE(response.empty());
        EXPECT_TRUE(contains(response, "\"ok\":false")) << response;
        EXPECT_TRUE(contains(response, "\"error\"")) << response;
    }
    EXPECT_TRUE(contains(query::respondLine("a a?", oracle),
                         "\"ok\":true"));
}

TEST(QueryServerFuzz, OverlongLinesAbortWithoutWedgingTheSession)
{
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.maxLineBytes = 64;
    std::istringstream in(std::string(4096, 'a') + "\n" +
                          "a b a?\n:quit\n");
    std::ostringstream out;
    runSession(in, out, oracle, opts);
    std::vector<std::string> lines;
    std::istringstream parsed(out.str());
    for (std::string line; std::getline(parsed, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_TRUE(contains(lines[0], "\"aborted\":\"line-too-long\""))
        << lines[0];
    EXPECT_TRUE(contains(lines[0], "\"reasons\":[\"line-too-long\"]"))
        << lines[0];
    EXPECT_TRUE(contains(lines[1], "\"ok\":true")) << lines[1];
    EXPECT_TRUE(contains(lines[2], "\"bye\":true")) << lines[2];
}

TEST(QueryServerFuzz, TruncatedFinalLineStillAnswers)
{
    PolicyOracle oracle("lru", 4);
    // No trailing newline: the final (truncated) line must still be
    // parsed and answered before EOF ends the session.
    std::istringstream in("a b a?\na b c d");
    std::ostringstream out;
    const unsigned answered = runSession(in, out, oracle);
    EXPECT_EQ(answered, 2u);
    EXPECT_TRUE(contains(out.str(), "\"ok\":true")) << out.str();
}

TEST(QueryServerFuzz, AbortReasonsSurviveCheckpointRaces)
{
    // When the deadline and the access budget trip in the same
    // checkpoint, the response carries BOTH structured reasons, with
    // the timeout deterministically primary.
    PolicyOracle oracle("lru", 4);
    ServerOptions opts;
    opts.limits.timeoutMillis = 50;
    opts.limits.maxAccessesPerRequest = 1;
    opts.batch.prefixSharing = false; // per-query checkpoints
    auto now = std::make_shared<uint64_t>(0);
    opts.clock = [now] { return *now += 40; };
    // Guard arms at t=40 (deadline 90). Query 1's checkpoint at t=80
    // passes and its replay consumes 5 accesses; query 2's
    // checkpoint at t=120 then finds BOTH limits blown at once.
    const std::string response = query::respondLine(
        "a b c d a? ; a b c d b?", oracle, opts);
    EXPECT_TRUE(contains(response, "\"aborted\":\"timeout\""))
        << response;
    EXPECT_TRUE(contains(
        response, "\"reasons\":[\"timeout\",\"access-budget\"]"))
        << response;
    EXPECT_TRUE(contains(response, "ms timeout")) << response;
    EXPECT_TRUE(contains(response, "access budget")) << response;
}

} // namespace
