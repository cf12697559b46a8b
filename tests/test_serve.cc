/**
 * @file
 * Serving-tier tests: SHA-256 against the FIPS 180-4 example digests,
 * the strict JSON parser, canonicalization stability (the cache-key
 * contract of docs/SERVING.md), plan-cache robustness (atomic writes,
 * corrupt-entry quarantine, --no-cache bypass), the warm-session LRU,
 * and the server protocol end to end — including the acceptance
 * differential: a warm-cache plan is bit-identical to a cold search
 * across engines and across thread counts.
 */

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/comm_model.hh"
#include "core/optimal_partitioner.hh"
#include "core/plan.hh"
#include "dnn/model_zoo.hh"
#include "dnn/spec_parser.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"
#include "serve/plan_cache.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "serve/sha256.hh"
#include "sim/evaluator.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace fs = std::filesystem;
using namespace hypar;

namespace {

/** Fresh per-test scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("hyparc_test_" + tag + "_" +
                std::to_string(static_cast<unsigned>(::getpid()))))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

/** Run one request batch through a fresh-or-given server, returning
 *  the response lines. */
std::vector<std::string>
runBatch(serve::Server &server, const std::vector<std::string> &lines)
{
    std::ostringstream out;
    server.processBatch(lines, out);
    std::vector<std::string> responses;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line))
        responses.push_back(line);
    return responses;
}

/** A tiny result with awkward doubles, for cache round-trip tests. */
core::HierarchicalResult
sampleResult()
{
    core::HierarchicalResult result;
    result.plan = core::uniformPlan(5, 3, core::Parallelism::kData);
    result.plan.levels[1][2] = core::Parallelism::kModel;
    result.plan.levels[2][0] = core::Parallelism::kModel;
    result.commBytes = 0.1 + 0.2; // not exactly representable — the
                                  // %.17g round-trip must preserve it
    result.transitionsEvaluated = 123456789;
    result.stats.expanded = 42;
    result.stats.pruned = 7;
    result.stats.certifiedExact = true;
    result.stats.widthUsed = 16;
    return result;
}

constexpr const char *kTinySpec =
    "network tiny\n"
    "input 1 28 28\n"
    "conv c1 8 5 pool 2\n"
    "fc f1 10\n";

/** Same network as kTinySpec, spelled differently. */
constexpr const char *kTinySpecVariant =
    "# a comment\n"
    "network tiny\n"
    "\n"
    "input 1 28 28\n"
    "conv c1 8 5\n"
    "pool 2\n"
    "fc f1 10 act relu\n";

} // namespace

// --- SHA-256 (FIPS 180-4 example digests) ----------------------------------

TEST(Sha256, FipsVectors)
{
    EXPECT_EQ(serve::sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(serve::sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(serve::sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                               "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg =
        "The quick brown fox jumps over the lazy dog, repeatedly, "
        "until the message spans more than one 512-bit block and the "
        "buffering path in Sha256::update is actually exercised.";
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
        serve::Sha256 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(h.hexDigest(), serve::sha256Hex(msg))
            << "split at " << split;
    }
}

TEST(Sha256, MultiBlockBoundaries)
{
    // Lengths straddling the 56-byte padding boundary and the 64-byte
    // block boundary, against an independent property: prefix digests
    // must all differ.
    std::string prev;
    for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 128u}) {
        const std::string digest =
            serve::sha256Hex(std::string(len, 'a'));
        EXPECT_EQ(digest.size(), 64u);
        EXPECT_NE(digest, prev);
        prev = digest;
    }
}

// --- JSON parser ------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers)
{
    const serve::JsonValue v = serve::JsonValue::parse(
        R"({"s":"hi\nA","n":-2.5e2,"b":true,"z":null,)"
        R"("a":[1,2,3],"o":{"k":false}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("s")->asString(), "hi\nA");
    EXPECT_EQ(v.find("n")->asNumber(), -250.0);
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_EQ(v.find("a")->asArray().size(), 3u);
    EXPECT_EQ(v.find("a")->asArray()[2].asNumber(), 3.0);
    EXPECT_FALSE(v.find("o")->asObject().at("k").asBool());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, SurrogatePairDecodesToUtf8)
{
    const serve::JsonValue v =
        serve::JsonValue::parse(R"(["\uD83D\uDE00"])");
    EXPECT_EQ(v.asArray()[0].asString(), "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(serve::JsonValue::parse("{\"a\":1} trailing"),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("{\"a\":1,}"), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("{\"a\" 1}"), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("\"bad \\q escape\""),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("\"raw \x01 control\""),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("{\"dup\":1,\"dup\":2}"),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("01"), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("1."), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse(""), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("[1,2"), util::FatalError);
}

TEST(Json, OutOfRangeNumbersParseAndCountsAreRangeChecked)
{
    // Well-formed literals past double's range parse (so a request
    // still echoes its op) and round to +-infinity or toward zero.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(serve::JsonValue::parse("1e400").asNumber(), inf);
    EXPECT_EQ(serve::JsonValue::parse("-1e400").asNumber(), -inf);
    EXPECT_EQ(serve::JsonValue::parse("1e-400").asNumber(), 0.0);
    EXPECT_THROW(serve::JsonValue::parse("1e"), util::FatalError);

    // isCount is the range check every integer field runs before its
    // cast: whole, non-negative and below 2^64.
    EXPECT_TRUE(serve::isCount(0.0));
    EXPECT_TRUE(serve::isCount(16.0));
    EXPECT_TRUE(serve::isCount(18446744073709549568.0)); // 2^64 - 2048
    EXPECT_FALSE(serve::isCount(18446744073709551616.0)); // 2^64
    EXPECT_FALSE(serve::isCount(1e300));
    EXPECT_FALSE(serve::isCount(inf));
    EXPECT_FALSE(serve::isCount(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_FALSE(serve::isCount(-1.0));
    EXPECT_FALSE(serve::isCount(1.5));
}

TEST(Json, NestingIsBoundedAtSixtyFourLevels)
{
    // 64 levels parse; the 65th is an error, not a deeper recursion.
    const auto nested = [](std::size_t depth) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i)
            text += i % 2 ? "{\"k\":" : "[";
        text += "0";
        for (std::size_t i = depth; i-- > 0;)
            text += i % 2 ? "}" : "]";
        return text;
    };
    EXPECT_NO_THROW(serve::JsonValue::parse(nested(64)));
    EXPECT_THROW(serve::JsonValue::parse(nested(65)), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse(std::string(200000, '[')),
                 util::FatalError);
}

TEST(Json, TypedAccessorsFatalOnKindMismatch)
{
    const serve::JsonValue v = serve::JsonValue::parse("[1]");
    EXPECT_THROW(v.asObject(), util::FatalError);
    EXPECT_THROW(v.asArray()[0].asString(), util::FatalError);
}

TEST(Json, EscapeCoversControlsQuotesBackslashes)
{
    EXPECT_EQ(serve::jsonEscape("a\"b\\c\nd\te\rf"),
              "a\\\"b\\\\c\\nd\\te\\rf");
    EXPECT_EQ(serve::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

// --- Canonicalization --------------------------------------------------------

TEST(Canonical, SpecSpellingDoesNotForkTheKey)
{
    const dnn::Network a = dnn::parseNetworkSpec(kTinySpec);
    const dnn::Network b = dnn::parseNetworkSpec(kTinySpecVariant);
    const sim::SimConfig cfg;
    EXPECT_EQ(serve::canonicalContext(a, cfg),
              serve::canonicalContext(b, cfg));
    EXPECT_EQ(serve::contextHash(a, cfg), serve::contextHash(b, cfg));
}

TEST(Canonical, RecordTraceIsExcludedFromTheKey)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    sim::SimConfig cfg;
    const std::string base = serve::contextHash(net, cfg);
    cfg.options.recordTrace = true;
    EXPECT_EQ(serve::contextHash(net, cfg), base);
    cfg.options.overlapGradComm = true; // this one *is* keyed
    EXPECT_NE(serve::contextHash(net, cfg), base);
}

TEST(Canonical, FaultOrderIsIrrelevantButContentIsKeyed)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    sim::SimConfig a;
    a.faults.nodes = {{3, 0.5}, {1, 0.25}};
    sim::SimConfig b;
    b.faults.nodes = {{1, 0.25}, {3, 0.5}};
    EXPECT_EQ(serve::contextHash(net, a), serve::contextHash(net, b));

    sim::SimConfig c;
    c.faults.nodes = {{1, 0.25}};
    EXPECT_NE(serve::contextHash(net, a), serve::contextHash(net, c));
    EXPECT_NE(serve::contextHash(net, c),
              serve::contextHash(net, sim::SimConfig{}));
}

TEST(Canonical, EveryKeyedFieldForksTheKey)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    sim::SimConfig cfg;
    const std::string base = serve::contextHash(net, cfg);

    sim::SimConfig batch = cfg;
    batch.comm.batch = 128;
    EXPECT_NE(serve::contextHash(net, batch), base);

    sim::SimConfig topo = cfg;
    topo.topology = sim::TopologyKind::kTorus;
    EXPECT_NE(serve::contextHash(net, topo), base);

    sim::SimConfig levels = cfg;
    levels.levels = 3;
    EXPECT_NE(serve::contextHash(net, levels), base);
}

TEST(Canonical, PlanHashKeysStrategyAndContext)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    const sim::SimConfig cfg;
    const core::SearchOptions search;
    const std::string base =
        serve::planHash(net, cfg, "optimal", search);

    EXPECT_NE(serve::planHash(net, cfg, "hypar", search), base);

    // The sweep key embeds the plan payload plus the swept level.
    EXPECT_NE(serve::sweepHash(net, cfg, "hypar", search, 1), base);
    EXPECT_NE(serve::sweepHash(net, cfg, "hypar", search, 1),
              serve::sweepHash(net, cfg, "hypar", search, 2));

    // ... and the context payload is embedded: same knobs, different
    // batch, different plan key.
    sim::SimConfig other = cfg;
    other.comm.batch = 128;
    EXPECT_NE(serve::planHash(net, other, "optimal", search), base);
}

TEST(Canonical, DoubleRendersRoundTrip)
{
    const double awkward = 0.1 + 0.2;
    EXPECT_EQ(std::stod(serve::canonicalDouble(awkward)), awkward);
    EXPECT_EQ(serve::canonicalDouble(1.0), "1");
}

// --- Plan cache --------------------------------------------------------------

namespace {

std::string
hashFor(const core::HierarchicalResult &result)
{
    return serve::sha256Hex(serve::PlanCache::entryJson("x", result));
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

} // namespace

TEST(PlanCache, StoreThenLookupIsBitIdentical)
{
    TempDir tmp("cache_roundtrip");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);

    EXPECT_FALSE(cache.lookup(hash).has_value());
    cache.store(hash, result);
    const std::optional<core::HierarchicalResult> back =
        cache.lookup(hash);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->plan.levels, result.plan.levels);
    EXPECT_EQ(back->commBytes, result.commBytes); // exact, %.17g
    EXPECT_EQ(back->transitionsEvaluated, result.transitionsEvaluated);
    EXPECT_EQ(back->stats.expanded, result.stats.expanded);
    EXPECT_EQ(back->stats.pruned, result.stats.pruned);
    EXPECT_EQ(back->stats.certifiedExact, result.stats.certifiedExact);
    EXPECT_EQ(back->stats.widthUsed, result.stats.widthUsed);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // Atomic write: the entry exists, the staging .tmp does not.
    EXPECT_TRUE(fs::exists(tmp.path / (hash + ".json")));
    EXPECT_FALSE(fs::exists(tmp.path / (hash + ".tmp")));
}

TEST(PlanCache, CorruptEntriesAreQuarantinedNotFatal)
{
    TempDir tmp("cache_corrupt");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);
    const std::string good = serve::PlanCache::entryJson(hash, result);
    const fs::path entry = tmp.path / (hash + ".json");

    struct Case
    {
        const char *label;
        std::string text;
    };
    const std::vector<Case> cases = {
        {"truncated", good.substr(0, good.size() / 2)},
        {"garbage", "not json at all\n"},
        {"trailing", good + "extra"},
        {"wrong-version",
         [&] {
             std::string t = good;
             const auto at = t.find("\"version\":");
             return t.replace(at, std::string("\"version\": 1").size(),
                              "\"version\": 99");
         }()},
        {"wrong-format",
         [&] {
             std::string t = good;
             const auto at = t.find("hyparc-plan-cache");
             return t.replace(at, 17, "someone-elses-fmt");
         }()},
        {"wrong-hash", serve::PlanCache::entryJson(
                           std::string(64, 'f'), result)},
    };

    std::size_t quarantined = 0;
    for (const Case &c : cases) {
        writeFile(entry, c.text);
        EXPECT_FALSE(cache.lookup(hash).has_value()) << c.label;
        EXPECT_FALSE(fs::exists(entry)) << c.label;
        EXPECT_EQ(cache.stats().quarantined, ++quarantined) << c.label;
        fs::remove(tmp.path / (hash + ".quarantine"));
    }

    // Re-planning after quarantine overwrites cleanly.
    cache.store(hash, result);
    EXPECT_TRUE(cache.lookup(hash).has_value());
}

TEST(PlanCache, DisabledCacheNeverTouchesTheDirectory)
{
    TempDir tmp("cache_disabled");
    const fs::path dir = tmp.path / "never-created";
    serve::PlanCache cache(dir, false);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);

    cache.store(hash, result);
    EXPECT_FALSE(cache.lookup(hash).has_value());
    EXPECT_FALSE(fs::exists(dir)); // store was a no-op
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCache, EvictRemovesEntriesAndDebris)
{
    TempDir tmp("cache_evict");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    cache.store(std::string(64, 'a'), result);
    cache.store(std::string(64, 'b'), result);
    writeFile(tmp.path / (std::string(64, 'c') + ".tmp"), "stale");
    writeFile(tmp.path / (std::string(64, 'd') + ".quarantine"), "bad");

    EXPECT_EQ(cache.evict(), 4u);
    EXPECT_TRUE(fs::is_empty(tmp.path));
    EXPECT_FALSE(cache.lookup(std::string(64, 'a')).has_value());
}

// --- Session registry --------------------------------------------------------

TEST(SessionRegistry, ReusesWarmSessionsAndEvictsLru)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    serve::SessionRegistry registry(2);

    sim::SimConfig a; // three distinct contexts
    sim::SimConfig b;
    b.comm.batch = 128;
    sim::SimConfig c;
    c.comm.batch = 64;

    serve::Session &sa = registry.acquire(net, a);
    EXPECT_EQ(registry.built(), 1u);
    EXPECT_EQ(&registry.acquire(net, a), &sa); // warm hit, same object
    EXPECT_EQ(registry.reused(), 1u);

    registry.acquire(net, b);
    EXPECT_EQ(registry.size(), 2u);
    registry.acquire(net, c); // evicts a (least recently acquired)
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.built(), 3u);

    registry.acquire(net, a); // rebuilt after eviction
    EXPECT_EQ(registry.built(), 4u);
    EXPECT_EQ(registry.reused(), 1u);
}

TEST(SessionRegistry, SessionEvaluatorMatchesColdEvaluator)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    const sim::SimConfig cfg;
    serve::SessionRegistry registry;
    serve::Session &session = registry.acquire(net, cfg);

    const core::HierarchicalPlan plan =
        core::makeHyparPlan(session.evaluator->model(), cfg.levels);
    const sim::Evaluator cold(net, cfg);
    EXPECT_EQ(session.evaluator->evaluate(plan), cold.evaluate(plan));
}

// --- Server: warm-cache bit-identity (the acceptance differential) ----------

namespace {

struct PlanResponse
{
    std::string cacheOutcome;
    std::vector<std::string> planBits;
    std::string planHash;
    double commBytes = 0.0;
    std::uint64_t transitions = 0;
    std::uint64_t widthUsed = 0;
    bool certified = false;

    static PlanResponse parse(const std::string &line)
    {
        const serve::JsonValue v = serve::JsonValue::parse(line);
        EXPECT_TRUE(v.find("ok")->asBool()) << line;
        PlanResponse r;
        r.cacheOutcome = v.find("cache")->asString();
        r.planHash = v.find("plan_hash")->asString();
        for (const serve::JsonValue &level : v.find("plan")->asArray())
            r.planBits.push_back(level.asString());
        r.commBytes = v.find("comm_bytes")->asNumber();
        const serve::JsonValue *search = v.find("search");
        r.transitions = static_cast<std::uint64_t>(
            search->find("transitions_evaluated")->asNumber());
        r.certified = search->find("certified_exact")->asBool();
        r.widthUsed = static_cast<std::uint64_t>(
            search->find("width_used")->asNumber());
        return r;
    }
};

/** Number of stored plan entries in a cache directory. */
std::size_t
cacheFiles(const fs::path &dir)
{
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir))
        entries += e.path().extension() == ".json" ? 1u : 0u;
    return entries;
}

} // namespace

TEST(Server, WarmCachePlanIsBitIdenticalToColdSearch)
{
    TempDir tmp("serve_diff");
    // H = 2 runs the reference DP, H = 4 the A* search.
    for (const std::string levels : {"2", "4"}) {
        const std::string line =
            R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)"
            R"("levels":)" + levels + "}";

        // Cold: a fresh server with a fresh cache directory searches.
        serve::ServeOptions opts;
        opts.cacheDir = tmp.path / levels;
        serve::Server cold(opts);
        const PlanResponse first =
            PlanResponse::parse(runBatch(cold, {line}).at(0));
        EXPECT_EQ(first.cacheOutcome, "miss");

        // Warm: a *new* server over the same directory must replay the
        // stored result bit-identically (plan, bytes, certificate).
        serve::Server warm(opts);
        const PlanResponse second =
            PlanResponse::parse(runBatch(warm, {line}).at(0));
        EXPECT_EQ(second.cacheOutcome, "hit");
        EXPECT_EQ(second.planBits, first.planBits);
        EXPECT_EQ(second.commBytes, first.commBytes); // exact doubles
        EXPECT_EQ(second.transitions, first.transitions);
        EXPECT_TRUE(second.certified);
    }
}

TEST(Server, MaxSessionsSizesTheWarmRegistry)
{
    // --max-sessions threads through ServeOptions to the session LRU:
    // capacity 2 keeps two warm contexts and evicts on the third.
    serve::ServeOptions opts;
    opts.noCache = true;
    opts.maxSessions = 2;
    serve::Server server(opts);
    EXPECT_EQ(server.sessions().capacity(), 2u);

    const auto req = [](const char *model) {
        return std::string(R"({"op":"evaluate","model":")") + model +
               R"(","strategy":"dp","levels":2})";
    };
    runBatch(server, {req("Lenet-c")});
    runBatch(server, {req("SFC")});
    EXPECT_EQ(server.sessions().size(), 2u);
    runBatch(server, {req("VGG-A")});
    EXPECT_EQ(server.sessions().size(), 2u); // LRU evicted, not grown
    EXPECT_EQ(server.sessions().built(), 3u);
}

TEST(Server, CachedPlanEvaluatesIdenticallyAtEveryThreadCount)
{
    TempDir tmp("serve_threads");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);
    const std::string line =
        R"({"op":"plan","model":"Lenet-c","strategy":"optimal"})";

    const PlanResponse cold =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    const PlanResponse warm =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    EXPECT_EQ(warm.cacheOutcome, "hit");
    ASSERT_EQ(warm.planBits, cold.planBits);

    // Decode both responses' plans and score them through explicit
    // serial (0 workers) and multi-threaded pools: every combination
    // must produce the same StepMetrics bit for bit.
    core::HierarchicalPlan plan;
    for (const std::string &bits : warm.planBits) {
        core::LevelPlan lp;
        for (const char c : bits)
            lp.push_back(c == '1' ? core::Parallelism::kModel
                                  : core::Parallelism::kData);
        plan.levels.push_back(lp);
    }
    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const std::vector<core::HierarchicalPlan> plans(4, plan);
    util::ThreadPool serial(0);
    util::ThreadPool threaded(3);
    const auto serialOut = evaluator.evaluateBatch(plans, serial);
    const auto threadedOut = evaluator.evaluateBatch(plans, threaded);
    const sim::StepMetrics direct = evaluator.evaluate(plan);
    ASSERT_EQ(serialOut.size(), plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        EXPECT_EQ(serialOut[i], direct);
        EXPECT_EQ(threadedOut[i], direct);
    }
}

TEST(Server, NoCacheBypassesReadsAndWrites)
{
    TempDir tmp("serve_nocache");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path / "cache";
    opts.noCache = true;
    serve::Server server(opts);
    const std::string line = R"({"op":"plan","model":"Lenet-c"})";

    const PlanResponse first =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    const PlanResponse second =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    EXPECT_EQ(first.cacheOutcome, "bypass");
    EXPECT_EQ(second.cacheOutcome, "bypass"); // never becomes a hit
    EXPECT_EQ(second.planBits, first.planBits);
    EXPECT_FALSE(fs::exists(opts.cacheDir)); // no writes either
}

TEST(Server, QuarantinedEntryIsReplannedInBand)
{
    TempDir tmp("serve_quarantine");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);
    const std::string line = R"({"op":"plan","model":"Lenet-c"})";

    PlanResponse::parse(runBatch(server, {line}).at(0));
    // Corrupt the single stored entry in place.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(tmp.path))
        if (e.path().extension() == ".json")
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    writeFile(entry, "{\"truncated\":");

    serve::Server fresh(opts);
    const PlanResponse replanned =
        PlanResponse::parse(runBatch(fresh, {line}).at(0));
    EXPECT_EQ(replanned.cacheOutcome, "miss"); // not a crash, not a hit
    EXPECT_EQ(fresh.cache().stats().quarantined, 1u);
    EXPECT_TRUE(fs::exists(entry)); // rewritten by the re-plan

    serve::Server again(opts);
    EXPECT_EQ(PlanResponse::parse(runBatch(again, {line}).at(0))
                  .cacheOutcome,
              "hit");
}

// --- Server: admission batches, coalescing, framing -------------------------

TEST(Server, BatchKeepsResponseOrderAndCoalescesSharedContexts)
{
    TempDir tmp("serve_batch");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const std::vector<std::string> batch = {
        R"({"id":"e1","op":"evaluate","model":"Lenet-c"})",
        R"({"id":"bad","op":"evaluate","model":"Lenet-c","stratgy":"dp"})",
        R"({"id":"e2","op":"evaluate","model":"Lenet-c","strategy":"dp"})",
        R"({"id":"other","op":"evaluate","model":"Lenet-c","batch":128})",
    };
    const std::vector<std::string> responses = runBatch(server, batch);
    ASSERT_EQ(responses.size(), batch.size());

    // Responses come back in request order, ids and ops echoed, the
    // malformed request answered in-band in its slot. "id" and "op"
    // are extracted before the unknown-field gate, so even the bad
    // request's error response carries both.
    for (const std::size_t i : {0u, 1u, 2u, 3u}) {
        const serve::JsonValue v = serve::JsonValue::parse(responses[i]);
        ASSERT_NE(v.find("id"), nullptr) << responses[i];
        EXPECT_EQ(v.find("id")->asString(),
                  serve::JsonValue::parse(batch[i]).find("id")->asString());
        ASSERT_NE(v.find("op"), nullptr) << responses[i];
        EXPECT_EQ(v.find("op")->asString(), "evaluate");
    }
    const serve::JsonValue bad = serve::JsonValue::parse(responses[1]);
    EXPECT_FALSE(bad.find("ok")->asBool());
    EXPECT_NE(bad.find("error")->asString().find("stratgy"),
              std::string::npos);

    // e1 and e2 share a context (same model/config, different plan) and
    // coalesce into one evaluateBatch; "other" has its own context.
    const serve::JsonValue e1 = serve::JsonValue::parse(responses[0]);
    const serve::JsonValue e2 = serve::JsonValue::parse(responses[2]);
    const serve::JsonValue other = serve::JsonValue::parse(responses[3]);
    EXPECT_EQ(e1.find("batched")->asNumber(), 2.0);
    EXPECT_EQ(e2.find("batched")->asNumber(), 2.0);
    EXPECT_EQ(other.find("batched")->asNumber(), 1.0);
    EXPECT_EQ(e1.find("context_hash")->asString(),
              e2.find("context_hash")->asString());
    EXPECT_NE(e1.find("context_hash")->asString(),
              other.find("context_hash")->asString());
    EXPECT_EQ(server.stats().coalesced, 2u);
    EXPECT_EQ(server.stats().errors, 1u);

    // Coalesced metrics are bit-identical to a direct evaluation.
    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const sim::StepMetrics direct =
        evaluator.evaluate(core::makeHyparPlan(evaluator.model(), 4));
    EXPECT_EQ(e1.find("metrics")->find("step_seconds")->asNumber(),
              direct.stepSeconds);
    EXPECT_EQ(e1.find("metrics")->find("comm_bytes")->asNumber(),
              direct.commBytes);
    EXPECT_EQ(e1.find("metrics")
                  ->find("energy")
                  ->find("total_j")
                  ->asNumber(),
              direct.energy.totalJ());
}

TEST(Server, ExplicitPlanAndSteadyStateEvaluate)
{
    TempDir tmp("serve_explicit");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const core::HierarchicalPlan dp = core::makeDataParallelPlan(
        evaluator.network(), 4);
    std::string planJson = "[";
    for (std::size_t h = 0; h < dp.levels.size(); ++h)
        planJson += std::string(h ? "," : "") + '"' +
                    core::toBitString(dp.levels[h]) + '"';
    planJson += "]";

    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"evaluate","model":"Lenet-c","plan":)" + planJson + "}",
         R"({"op":"evaluate","model":"Lenet-c","plan":)" + planJson +
             R"(,"steps":5})"});
    const serve::JsonValue one = serve::JsonValue::parse(responses[0]);
    const serve::JsonValue steady = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(one.find("ok")->asBool()) << responses[0];
    EXPECT_TRUE(steady.find("ok")->asBool()) << responses[1];
    EXPECT_EQ(one.find("metrics")->find("step_seconds")->asNumber(),
              evaluator.evaluate(dp).stepSeconds);
    EXPECT_EQ(steady.find("steps")->asNumber(), 5.0);
    EXPECT_EQ(steady.find("metrics")->find("step_seconds")->asNumber(),
              evaluator.evaluateSteadyState(dp, 5).stepSeconds);
}

TEST(Server, SweepFindsTheLevelOptimum)
{
    TempDir tmp("serve_sweep");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"sweep","model":"Lenet-c","level":1})"});
    const serve::JsonValue v = serve::JsonValue::parse(responses.at(0));
    ASSERT_TRUE(v.find("ok")->asBool()) << responses.at(0);

    // The sweep visits all 2^L masks and its winner matches a direct
    // argmin over sweepNeighborhood.
    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const core::HierarchicalPlan base =
        core::makeHyparPlan(evaluator.model(), 4);
    EXPECT_EQ(v.find("evaluated")->asNumber(),
              static_cast<double>(std::uint64_t{1} << base.numLayers()));
    std::uint64_t bestMask = 0;
    double bestSeconds = 0.0;
    std::size_t seen = 0;
    evaluator.sweepNeighborhood(
        base, 1, [&](std::uint64_t mask, const sim::StepMetrics &m) {
            if (seen == 0 || m.stepSeconds < bestSeconds) {
                bestMask = mask;
                bestSeconds = m.stepSeconds;
            }
            ++seen;
        });
    EXPECT_EQ(v.find("best_mask")->asNumber(),
              static_cast<double>(bestMask));
    EXPECT_EQ(v.find("metrics")->find("step_seconds")->asNumber(),
              bestSeconds);
}

TEST(Server, RunFramesBatchesOnBlankLinesAndShutsDown)
{
    TempDir tmp("serve_run");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    std::istringstream in(
        R"({"op":"plan","model":"Lenet-c"})" "\n"
        "\n" // admission barrier
        "  \t\r\n" // still blank
        R"({"op":"stats"})" "\n"
        R"({"op":"shutdown"})" "\n"
        "\n" // flushes the batch whose shutdown ends the loop
        R"({"op":"plan","model":"Lenet-c"})" "\n"); // never admitted
    std::ostringstream out;
    EXPECT_EQ(server.run(in, out), 0);

    std::vector<std::string> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(line);

    // plan / stats / shutdown answered; the post-shutdown request is
    // never admitted.
    ASSERT_EQ(responses.size(), 3u);
    const serve::JsonValue stats = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(stats.find("ok")->asBool());
    EXPECT_EQ(stats.find("server")->find("batches")->asNumber(), 2.0);
    EXPECT_EQ(stats.find("cache")->find("stores")->asNumber(), 1.0);
    EXPECT_EQ(stats.find("sessions")->find("built")->asNumber(), 1.0);
    EXPECT_TRUE(serve::JsonValue::parse(responses[2]).find("ok")->asBool());
}

TEST(Server, EvictOpClearsTheCache)
{
    TempDir tmp("serve_evict");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    runBatch(server, {R"({"op":"plan","model":"Lenet-c"})"});
    const std::vector<std::string> responses =
        runBatch(server, {R"({"op":"evict"})"});
    const serve::JsonValue v = serve::JsonValue::parse(responses.at(0));
    EXPECT_TRUE(v.find("ok")->asBool());
    EXPECT_EQ(v.find("removed")->asNumber(), 1.0);
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(Server, MalformedRequestsAnswerInBand)
{
    TempDir tmp("serve_errors");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server,
        {"not json",
         R"({"op":"plan"})",                        // no network
         R"({"op":"plan","model":"x","spec":"y"})", // both
         R"({"op":"bogus","model":"Lenet-c"})",
         R"({"op":"plan","model":"no-such-model"})",
         R"({"op":"sweep","model":"Lenet-c"})",     // missing level
         R"({"op":"evaluate","model":"Lenet-c","plan":["01"]})",
         R"({"op":"plan","model":"Lenet-c","topology":"ring"})"});
    for (const std::string &line : responses) {
        const serve::JsonValue v = serve::JsonValue::parse(line);
        EXPECT_FALSE(v.find("ok")->asBool()) << line;
        EXPECT_NE(v.find("error"), nullptr) << line;
    }
    EXPECT_EQ(server.stats().errors, responses.size());
}

TEST(Server, ErrorResponsesEchoTheOpWhenItParsed)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"plan"})",                    // parsed op, no network
         R"({"op":"sweep","model":"Lenet-c"})", // parsed op, no level
         "not json",                            // op never parsed
         R"({"model":"Lenet-c"})"});            // object without an op
    const serve::JsonValue plan = serve::JsonValue::parse(responses[0]);
    EXPECT_FALSE(plan.find("ok")->asBool());
    ASSERT_NE(plan.find("op"), nullptr) << responses[0];
    EXPECT_EQ(plan.find("op")->asString(), "plan");
    const serve::JsonValue sweep = serve::JsonValue::parse(responses[1]);
    ASSERT_NE(sweep.find("op"), nullptr) << responses[1];
    EXPECT_EQ(sweep.find("op")->asString(), "sweep");
    // When no op ever parsed there is nothing to echo — the error
    // response simply omits the field instead of inventing one.
    EXPECT_EQ(serve::JsonValue::parse(responses[2]).find("op"), nullptr);
    EXPECT_EQ(serve::JsonValue::parse(responses[3]).find("op"), nullptr);
}

TEST(Server, EveryEngineNameSharesOnePlanHashAndCacheEntry)
{
    // `engine` is deprecated: every accepted name runs the same exact
    // search, so with or without the field a request is one key, one
    // stored entry, and every later name hits it — on both sides of
    // the old dense/A* split at H = 10.
    TempDir tmp("serve_engine_key");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    for (const std::string levels : {"2", "12"}) {
        const std::string prefix =
            R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)"
            R"("levels":)" + levels;
        const PlanResponse first =
            PlanResponse::parse(runBatch(server, {prefix + "}"}).at(0));
        EXPECT_EQ(first.cacheOutcome, "miss") << levels;
        for (const char *engine : serve::kEngineNames) {
            const std::string line =
                prefix + R"(,"engine":")" + engine + "\"}";
            const PlanResponse r =
                PlanResponse::parse(runBatch(server, {line}).at(0));
            EXPECT_EQ(r.cacheOutcome, "hit") << levels << engine;
            EXPECT_EQ(r.planHash, first.planHash) << levels << engine;
            EXPECT_EQ(r.planBits, first.planBits) << levels << engine;
            EXPECT_EQ(r.commBytes, first.commBytes) << levels << engine;
            EXPECT_EQ(r.transitions, first.transitions)
                << levels << engine;
        }
    }
    EXPECT_EQ(server.cache().stats().stores, 2u);
    EXPECT_EQ(cacheFiles(tmp.path), 2u);

    // Any other name is still an in-band error.
    const serve::JsonValue bad = serve::JsonValue::parse(
        runBatch(server, {R"({"op":"plan","model":"Lenet-c",)"
                          R"("strategy":"optimal","engine":"warp"})"})
            .at(0));
    EXPECT_FALSE(bad.find("ok")->asBool());
    EXPECT_NE(bad.find("error")->asString().find("warp"),
              std::string::npos);
}

TEST(Server, RetiredBeamFieldsAreUnknownFields)
{
    // beam_width and width_hint tuned the deleted beam engine; after
    // their deprecation release they are unknown fields like any typo.
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    for (const std::string field :
         {R"("beam_width":64)", R"("width_hint":8)"}) {
        const std::string line =
            R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)" +
            field + "}";
        const serve::JsonValue v =
            serve::JsonValue::parse(runBatch(server, {line}).at(0));
        EXPECT_FALSE(v.find("ok")->asBool()) << field;
        EXPECT_EQ(v.find("op")->asString(), "plan") << field;
        EXPECT_NE(v.find("error")->asString().find("unknown request field"),
                  std::string::npos)
            << field;
    }
}

TEST(Server, OutOfRangeNumbersAnswerInBandWithTheOp)
{
    // An integer field past 2^64 — or past double's range, or not a
    // whole number — is an in-band error that still echoes the op; it
    // never reaches an undefined double-to-integer cast.
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    for (const std::string levels :
         {"1e300", "1e400", "-1e400", "18446744073709551616", "4.5",
          "-1"}) {
        const std::string line =
            R"({"op":"plan","model":"Lenet-c","levels":)" + levels + "}";
        const serve::JsonValue v =
            serve::JsonValue::parse(runBatch(server, {line}).at(0));
        EXPECT_FALSE(v.find("ok")->asBool()) << levels;
        ASSERT_NE(v.find("op"), nullptr) << levels;
        EXPECT_EQ(v.find("op")->asString(), "plan") << levels;
        EXPECT_NE(v.find("error")->asString().find("'levels'"),
                  std::string::npos)
            << levels;
    }

    // The server keeps serving.
    const serve::JsonValue ok = serve::JsonValue::parse(
        runBatch(server, {R"({"op":"plan","model":"Lenet-c"})"}).at(0));
    EXPECT_TRUE(ok.find("ok")->asBool());
}

TEST(Server, DeeplyNestedLineAnswersInBandAndServingContinues)
{
    // A line of 200k '[' once overflowed the recursive JSON parser's
    // stack and killed the process. Past the nesting limit the line is
    // an ordinary in-band error, and the lines after it are served.
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    std::istringstream in(std::string(200000, '[') + "\n" +
                          R"({"op":"plan","model":"Lenet-c"})" "\n");
    std::ostringstream out;
    EXPECT_EQ(server.run(in, out), 0);

    std::vector<std::string> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(line);
    ASSERT_EQ(responses.size(), 2u);
    const serve::JsonValue error = serve::JsonValue::parse(responses[0]);
    EXPECT_FALSE(error.find("ok")->asBool());
    EXPECT_NE(error.find("error")->asString().find("nesting"),
              std::string::npos)
        << responses[0];
    EXPECT_TRUE(serve::JsonValue::parse(responses[1]).find("ok")->asBool());
}

TEST(Server, OversizedStepsAnswerInBandAndServingContinues)
{
    // The steady-state replay is linear in steps, so a huge count
    // would hold the server for minutes; past the cap it is an
    // ordinary in-band error and the next line is served.
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    const std::string cap = std::to_string(serve::kMaxEvaluateSteps);
    std::istringstream in(
        R"({"op":"evaluate","model":"Lenet-c","steps":1000000000})" "\n"
        R"({"op":"evaluate","model":"Lenet-c","steps":)" + cap + "}\n");
    std::ostringstream out;
    EXPECT_EQ(server.run(in, out), 0);

    std::vector<std::string> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(line);
    ASSERT_EQ(responses.size(), 2u);
    const serve::JsonValue error = serve::JsonValue::parse(responses[0]);
    EXPECT_FALSE(error.find("ok")->asBool());
    EXPECT_NE(error.find("error")->asString().find("steps"),
              std::string::npos)
        << responses[0];
    const serve::JsonValue served = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(served.find("ok")->asBool()) << responses[1];
    EXPECT_EQ(served.find("steps")->asNumber(),
              static_cast<double>(serve::kMaxEvaluateSteps));
}

TEST(Server, RejectedRequestsNeverTouchTheSessionRegistry)
{
    // Satellite of the admission fix: a request that answers with an
    // in-band error must not build a session — and, worse, must not
    // evict a warm one. Whole-request validation runs before the LRU
    // is touched.
    serve::ServeOptions opts;
    opts.noCache = true;
    opts.maxSessions = 1; // a single zombie admission would evict
    serve::Server server(opts);

    runBatch(server, {R"({"op":"evaluate","model":"Lenet-c"})"});
    ASSERT_EQ(server.sessions().built(), 1u);
    const std::size_t reused = server.sessions().reused();

    const std::vector<std::string> responses = runBatch(
        server,
        {// same context, but the plan bits fail validation
         R"({"op":"evaluate","model":"Lenet-c","plan":["01"]})",
         // bad fault map: node id out of range for 2^4 nodes
         R"({"op":"evaluate","model":"Lenet-c",)"
         R"("faults":{"nodes":[[99,0.5]]}})",
         // distinct context that would evict, but the strategy is bad
         R"({"op":"evaluate","model":"SFC","strategy":"bogus"})",
         // distinct context with an unknown engine name
         R"({"op":"plan","model":"SFC","strategy":"optimal",)"
         R"("engine":"warp"})"});
    for (const std::string &line : responses)
        EXPECT_FALSE(serve::JsonValue::parse(line).find("ok")->asBool())
            << line;
    EXPECT_EQ(server.sessions().built(), 1u);   // nothing new built
    EXPECT_EQ(server.sessions().reused(), reused); // nothing touched
    EXPECT_EQ(server.sessions().size(), 1u);

    // The warm session survived: the next good request reuses it.
    runBatch(server, {R"({"op":"evaluate","model":"Lenet-c"})"});
    EXPECT_EQ(server.sessions().built(), 1u);
    EXPECT_EQ(server.sessions().reused(), reused + 1);
}

TEST(Server, SweepResultsArePersistedInTheCache)
{
    TempDir tmp("serve_sweep_cache");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    const std::string line =
        R"({"op":"sweep","model":"Lenet-c","level":1})";

    serve::Server server(opts);
    const serve::JsonValue cold =
        serve::JsonValue::parse(runBatch(server, {line}).at(0));
    ASSERT_TRUE(cold.find("ok")->asBool());
    EXPECT_EQ(cold.find("cache")->asString(), "miss");

    // A fresh server (no warm session) answers from disk,
    // byte-identically — without ever building an Evaluator.
    serve::Server fresh(opts);
    const std::vector<std::string> warmLines = runBatch(fresh, {line});
    const serve::JsonValue warm =
        serve::JsonValue::parse(warmLines.at(0));
    EXPECT_EQ(warm.find("cache")->asString(), "hit");
    EXPECT_EQ(fresh.sessions().built(), 0u);
    EXPECT_EQ(warm.find("best_mask")->asNumber(),
              cold.find("best_mask")->asNumber());
    EXPECT_EQ(warm.find("best_bits")->asString(),
              cold.find("best_bits")->asString());
    EXPECT_EQ(warm.find("metrics")->find("step_seconds")->asNumber(),
              cold.find("metrics")->find("step_seconds")->asNumber());

    // Corrupting the sweep entry quarantines and re-sweeps in band,
    // exactly like plan entries.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(tmp.path))
        if (e.path().string().ends_with(".sweep.json"))
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    writeFile(entry, "{\"evaluated\":");
    serve::Server again(opts);
    const serve::JsonValue reswept =
        serve::JsonValue::parse(runBatch(again, {line}).at(0));
    EXPECT_EQ(reswept.find("cache")->asString(), "miss");
    EXPECT_EQ(again.cache().stats().quarantined, 1u);
    EXPECT_EQ(reswept.find("best_mask")->asNumber(),
              cold.find("best_mask")->asNumber());
}

TEST(Server, MaxSessionBytesEvictsByResidentSize)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server unlimited(opts);
    const auto req = [](const char *model) {
        return std::string(R"({"op":"evaluate","model":")") + model +
               R"(","strategy":"dp","levels":2})";
    };
    runBatch(unlimited, {req("Lenet-c")});
    const std::size_t oneSession = unlimited.sessions().totalBytes();
    ASSERT_GT(oneSession, 0u);

    // A budget that holds one session but not two: the second context
    // evicts the first at the end of its batch.
    serve::ServeOptions tight = opts;
    tight.maxSessionBytes = oneSession + oneSession / 2;
    serve::Server server(tight);
    EXPECT_EQ(server.sessions().maxBytes(), tight.maxSessionBytes);
    runBatch(server, {req("Lenet-c")});
    EXPECT_EQ(server.sessions().size(), 1u);
    runBatch(server, {req("SFC")});
    EXPECT_EQ(server.sessions().size(), 1u); // evicted by bytes
    EXPECT_EQ(server.sessions().built(), 2u);
    EXPECT_LE(server.sessions().totalBytes(), tight.maxSessionBytes);

    // The budget never evicts below one session, however small.
    serve::ServeOptions tiny = opts;
    tiny.maxSessionBytes = 1;
    serve::Server floor(tiny);
    runBatch(floor, {req("Lenet-c")});
    EXPECT_EQ(floor.sessions().size(), 1u);
}

TEST(Server, StatsReportsPerOpLatencyHistograms)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    runBatch(server, {R"({"op":"evaluate","model":"Lenet-c"})",
                      R"({"op":"evaluate","model":"Lenet-c","steps":2})"});
    const std::vector<std::string> responses =
        runBatch(server, {R"({"op":"stats"})"});
    const serve::JsonValue v = serve::JsonValue::parse(responses.at(0));
    ASSERT_TRUE(v.find("ok")->asBool());

    const serve::JsonValue *latency = v.find("latency");
    ASSERT_NE(latency, nullptr);
    for (const char *op : serve::Server::kOps)
        ASSERT_NE(latency->find(op), nullptr) << op;
    EXPECT_EQ(latency->find("evaluate")->find("count")->asNumber(), 2.0);
    EXPECT_EQ(latency->find("plan")->find("count")->asNumber(), 0.0);
    EXPECT_GT(latency->find("evaluate")->find("p99_us")->asNumber(), 0.0);
    EXPECT_LE(latency->find("evaluate")->find("p50_us")->asNumber(),
              latency->find("evaluate")->find("p99_us")->asNumber());

    // The registry's byte accounting is visible alongside.
    EXPECT_GT(v.find("sessions")->find("bytes")->asNumber(), 0.0);
    EXPECT_EQ(v.find("sessions")->find("max_bytes")->asNumber(), 0.0);

    // Histograms accumulate at serial points — the stats op itself is
    // timed too, so a second stats call sees the first.
    const serve::JsonValue second = serve::JsonValue::parse(
        runBatch(server, {R"({"op":"stats"})"}).at(0));
    EXPECT_EQ(second.find("latency")
                  ->find("stats")
                  ->find("count")
                  ->asNumber(),
              1.0);
}

// --- DAG canonicalization ---------------------------------------------------

namespace {

/** A small DAG spec: stem -> {a, b} -> join, then an fc head. */
constexpr const char *kDagSpec =
    "network dag\n"
    "input 1 8 8\n"
    "conv stem 4 3 pad 1\n"
    "conv a 4 3 pad 1\n"
    "conv b 4 3 pad 1\n"
    "edge stem b\n"
    "conv join 4 3 pad 1\n"
    "edge a join\n"
    "edge b join\n"
    "fc f1 10\n";

/** Same network, edge directives in a different order and position. */
constexpr const char *kDagSpecShuffledEdges =
    "network dag\n"
    "input 1 8 8\n"
    "conv stem 4 3 pad 1\n"
    "conv a 4 3 pad 1\n"
    "conv b 4 3 pad 1\n"
    "conv join 4 3 pad 1\n"
    "fc f1 10\n"
    "edge b join\n"
    "edge stem b\n"
    "edge a join\n";

} // namespace

TEST(Canonical, ChainHashesArePinnedAcrossTheDagGeneralization)
{
    // Golden hashes. The context hash was captured before DAG support
    // landed: chain specs canonicalize without edge lines, so context
    // keys must never move — a warm session registry filled by a
    // pre-DAG build keeps hitting. If the first expectation fails,
    // kCanonicalVersion was effectively broken for every deployment.
    // The plan hash was last re-pinned when the plan key lost its
    // engine line (kPlanCacheVersion 5); it moves only with the cache
    // version. The pinned value is the SHA-256 of the canonical text
    // below, computed outside this code base (Python's hashlib).
    const dnn::Network net = dnn::makeLenetC();
    const sim::SimConfig cfg;
    EXPECT_EQ(serve::contextHash(net, cfg),
              "6aacb02bd566f49eea451ce9e7ab0723"
              "e7183076aa4f0a0fd0e21f9a1db2fad9");
    const std::string text =
        serve::canonicalPlanRequest(net, cfg, "optimal", {});
    EXPECT_EQ(text, serve::canonicalContext(net, cfg) +
                        "[plan]\nstrategy=optimal\n");
    EXPECT_EQ(serve::planHash(net, cfg, "optimal", {}),
              serve::sha256Hex(text));
    EXPECT_EQ(serve::planHash(net, cfg, "optimal", {}),
              "b5eb4874597d155d7b1e12bf04d21c3b"
              "f7ac5a397ad9d79d5f5e4bf603718075");
}

TEST(Canonical, DagEdgeOrderDoesNotForkTheKey)
{
    // toSpec() renders edges in canonical (destination, source)
    // order, so the directive order of the client's spec is invisible
    // to the cache key — same invariance the fault list has.
    const dnn::Network a = dnn::parseNetworkSpec(kDagSpec);
    const dnn::Network b = dnn::parseNetworkSpec(kDagSpecShuffledEdges);
    const sim::SimConfig cfg;
    EXPECT_EQ(serve::canonicalContext(a, cfg),
              serve::canonicalContext(b, cfg));
    EXPECT_EQ(serve::contextHash(a, cfg), serve::contextHash(b, cfg));

    // But the wiring itself *is* keyed: dropping the skip edge (so the
    // layers chain) must fork the key.
    const dnn::Network chain = dnn::parseNetworkSpec(
        "network dag\n"
        "input 1 8 8\n"
        "conv stem 4 3 pad 1\n"
        "conv a 4 3 pad 1\n"
        "conv b 4 3 pad 1\n"
        "conv join 4 3 pad 1\n"
        "fc f1 10\n");
    EXPECT_NE(serve::contextHash(chain, cfg), serve::contextHash(a, cfg));
}

TEST(Server, CachedDagPlanRoundTripsBitIdentically)
{
    // End-to-end on a DAG model: a cold "optimal" search goes through
    // the series-parallel engine, is stored, and a fresh server over
    // the same cache directory replays it bit for bit.
    TempDir tmp("serve_dag");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    const std::string request =
        R"({"op":"plan","model":"ResNet-block","strategy":"optimal",)"
        R"("levels":3})";

    serve::Server cold(opts);
    const PlanResponse first =
        PlanResponse::parse(runBatch(cold, {request}).at(0));
    EXPECT_EQ(first.cacheOutcome, "miss");
    EXPECT_TRUE(first.certified);

    serve::Server warm(opts);
    const PlanResponse second =
        PlanResponse::parse(runBatch(warm, {request}).at(0));
    EXPECT_EQ(second.cacheOutcome, "hit");
    EXPECT_EQ(second.planBits, first.planBits);
    EXPECT_EQ(second.commBytes, first.commBytes); // exact doubles
    EXPECT_EQ(second.transitions, first.transitions);
    EXPECT_EQ(second.widthUsed, first.widthUsed);
    EXPECT_TRUE(second.certified);

    // And the replayed cost is the series-parallel optimum.
    const dnn::Network net = dnn::makeResNetBlock();
    const core::CommModel model(net, core::CommConfig{});
    const auto direct = core::OptimalPartitioner(model).partition(3);
    EXPECT_EQ(first.commBytes, direct.commBytes);
}
