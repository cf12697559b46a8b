#include "traced.hh"

#include <map>
#include <memory>
#include <ostream>
#include <set>

#include "core/plan.hh"
#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace perfbench {

using namespace hypar;

namespace {

constexpr const char *kPhaseNames[kNumPhases] = {
    "batch",              "serve.parse",        "serve.validate",
    "dnn.network",        "serve.hash",         "serve.session",
    "serve.cache_lookup", "serve.cache_store",  "serve.stats",
    "sim.evaluator_build", "core.search_dense", "core.search_astar",
    "core.hypar_plan",    "sim.evaluate_batch", "sim.sweep",
};

std::size_t
asSize(const serve::JsonValue &v, const char *what)
{
    const double d = v.asNumber();
    if (d < 0 || d != static_cast<double>(static_cast<std::size_t>(d)))
        util::fatal(std::string("request field '") + what +
                    "' must be a non-negative integer");
    return static_cast<std::size_t>(d);
}

/** The request fields the benchmark's generators send. */
const std::set<std::string> kReplicaFields = {
    "op", "model", "levels", "batch", "topology",
    "strategy", "faults", "plan", "level"};

core::HierarchicalPlan
decodePlanBits(const std::vector<std::string> &bits)
{
    core::HierarchicalPlan plan;
    for (const std::string &level : bits) {
        core::LevelPlan lp;
        lp.reserve(level.size());
        for (const char c : level) {
            if (c != '0' && c != '1')
                util::fatal("request field 'plan' must hold bit "
                            "strings of '0' (dp) and '1' (mp)");
            lp.push_back(c == '1' ? core::Parallelism::kModel
                                  : core::Parallelism::kData);
        }
        plan.levels.push_back(std::move(lp));
    }
    return plan;
}

// Response rendering, byte-for-byte as server.cc renders it.

std::string
responseHead(const ParsedRequest &req, bool ok)
{
    std::string out = "{";
    out += ok ? "\"ok\":true" : "\"ok\":false";
    if (!req.op.empty())
        out += ",\"op\":\"" + serve::jsonEscape(req.op) + "\"";
    return out;
}

std::string
errorResponse(const ParsedRequest &req, const std::string &message)
{
    return responseHead(req, false) + ",\"error\":\"" +
           serve::jsonEscape(message) + "\"}";
}

std::string
metricsJson(const sim::StepMetrics &m)
{
    using serve::canonicalDouble;
    std::string out = "{";
    out += "\"step_seconds\":" + canonicalDouble(m.stepSeconds);
    out += ",\"compute_busy_seconds\":" +
           canonicalDouble(m.computeBusySeconds);
    out += ",\"network_busy_seconds\":" +
           canonicalDouble(m.networkBusySeconds);
    out += ",\"comm_bytes\":" + canonicalDouble(m.commBytes);
    out += ",\"phases\":{\"forward\":" + canonicalDouble(m.phases.forward) +
           ",\"backward\":" + canonicalDouble(m.phases.backward) +
           ",\"gradient\":" + canonicalDouble(m.phases.gradient) + "}";
    out += ",\"energy\":{\"compute_j\":" +
           canonicalDouble(m.energy.computeJ) +
           ",\"sram_j\":" + canonicalDouble(m.energy.sramJ) +
           ",\"dram_j\":" + canonicalDouble(m.energy.dramJ) +
           ",\"comm_j\":" + canonicalDouble(m.energy.commJ) +
           ",\"total_j\":" + canonicalDouble(m.energy.totalJ()) + "}";
    out += "}";
    return out;
}

std::string
searchJson(const core::HierarchicalResult &result)
{
    return "{\"transitions_evaluated\":" +
           std::to_string(result.transitionsEvaluated) +
           ",\"expanded\":" + std::to_string(result.stats.expanded) +
           ",\"pruned\":" + std::to_string(result.stats.pruned) +
           ",\"certified_exact\":" +
           (result.stats.certifiedExact ? std::string("true")
                                        : std::string("false")) +
           ",\"width_used\":" + std::to_string(result.stats.widthUsed) +
           "}";
}

std::string
planLevelsJson(const core::HierarchicalPlan &plan)
{
    std::string out = "[";
    for (std::size_t h = 0; h < plan.levels.size(); ++h) {
        if (h > 0)
            out += ",";
        out += '"' + core::toBitString(plan.levels[h]) + '"';
    }
    out += "]";
    return out;
}

bool
needsSession(const std::string &op)
{
    return op == "plan" || op == "evaluate" || op == "sweep";
}

} // namespace

const char *
phaseName(Phase phase)
{
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

Layer
phaseLayer(Phase phase)
{
    switch (phase) {
    case Phase::kBatch:
        return Layer::kNone;
    case Phase::kNetwork:
        return Layer::kDnn;
    case Phase::kSearchDense:
    case Phase::kSearchAStar:
    case Phase::kHypar:
        return Layer::kCore;
    case Phase::kBuild:
    case Phase::kEvaluateBatch:
    case Phase::kSweep:
        return Layer::kSim;
    default:
        return Layer::kServe;
    }
}

const char *
layerName(Layer layer)
{
    constexpr const char *kNames[] = {"serve", "dnn", "core", "sim", "batch"};
    return kNames[static_cast<std::size_t>(layer)];
}

void
Tracer::record(Phase phase, std::int64_t startNs, std::uint64_t work,
               std::uint64_t expanded, std::uint64_t pruned)
{
    Span s;
    s.phase = phase;
    s.timed = timed_;
    s.batch = batch_;
    s.startNs = startNs;
    s.endNs = now();
    s.work = work;
    s.expanded = expanded;
    s.pruned = pruned;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

void
Tracer::write(std::ostream &out) const
{
    for (const Span &s : spans_) {
        out << "{\"name\":\"" << phaseName(s.phase) << "\",\"layer\":\""
            << layerName(phaseLayer(s.phase)) << "\",\"batch\":" << s.batch
            << ",\"timed\":" << (s.timed ? "true" : "false")
            << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
            << ",\"work\":" << s.work;
        if (s.phase == Phase::kSearchDense || s.phase == Phase::kSearchAStar)
            out << ",\"expanded\":" << s.expanded
                << ",\"pruned\":" << s.pruned;
        out << "}\n";
    }
}

void
parseRequest(const std::string &line, ParsedRequest &req)
{
    const serve::JsonValue root = serve::JsonValue::parse(line);
    if (!root.isObject())
        util::fatal("request must be a JSON object");
    if (const serve::JsonValue *op = root.find("op"))
        req.op = op->asString();
    for (const auto &[key, value] : root.asObject()) {
        if (kReplicaFields.count(key) == 0)
            util::fatal("request field '" + key +
                        "' is not served by the traced replica");
        (void)value;
    }
    if (root.find("op") == nullptr)
        util::fatal("request needs an \"op\" field");
    if (const serve::JsonValue *v = root.find("model"))
        req.model = v->asString();
    if (const serve::JsonValue *v = root.find("levels"))
        req.levels = asSize(*v, "levels");
    if (const serve::JsonValue *v = root.find("batch"))
        req.batch = asSize(*v, "batch");
    if (const serve::JsonValue *v = root.find("topology"))
        req.topology = v->asString();
    if (const serve::JsonValue *v = root.find("strategy"))
        req.strategy = v->asString();
    if (const serve::JsonValue *v = root.find("faults")) {
        for (const auto &[key, list] : v->asObject()) {
            if (key != "nodes")
                util::fatal("the traced replica serves node faults only");
            for (const serve::JsonValue &pair : list.asArray()) {
                const serve::JsonValue::Array &p = pair.asArray();
                if (p.size() != 2)
                    util::fatal("request field 'faults.nodes' entries "
                                "must be [id, scale] pairs");
                req.faults.nodes.push_back(
                    {asSize(p[0], "nodes"), p[1].asNumber()});
            }
        }
    }
    if (const serve::JsonValue *v = root.find("plan")) {
        for (const serve::JsonValue &level : v->asArray())
            req.planBits.push_back(level.asString());
        req.hasPlan = true;
    }
    if (const serve::JsonValue *v = root.find("level")) {
        req.level = asSize(*v, "level");
        req.hasLevel = true;
    }
}

dnn::Network
buildNetwork(const ParsedRequest &req)
{
    if (req.model.empty())
        util::fatal("the traced replica needs a zoo \"model\"");
    return dnn::modelByName(req.model);
}

sim::SimConfig
buildConfig(const ParsedRequest &req)
{
    sim::SimConfig cfg;
    cfg.levels = req.levels;
    cfg.comm.batch = req.batch;
    if (req.topology == "htree")
        cfg.topology = sim::TopologyKind::kHTree;
    else if (req.topology == "torus")
        cfg.topology = sim::TopologyKind::kTorus;
    else
        util::fatal("the traced replica serves htree and torus only");
    cfg.faults = req.faults;
    return cfg;
}

struct TracedServer::Pending
{
    ParsedRequest req;
    std::optional<dnn::Network> network;
    sim::SimConfig config;
    std::string ctxHash;
    core::HierarchicalPlan evalPlan;
    bool done = false;
    bool errored = false;     //!< folded into ServeStats serially
    bool sharedBatch = false; //!< folded into ServeStats serially
    std::shared_ptr<serve::Session> session;
};

TracedServer::TracedServer(const serve::ServeOptions &options,
                           Tracer &tracer)
    : cache_(options.cacheDir, !options.noCache),
      sessions_(options.maxSessions, options.maxSessionBytes),
      tracer_(tracer)
{}

void
TracedServer::ensure(serve::Session &session)
{
    if (session.evaluator)
        return;
    const std::int64_t t0 = tracer_.now();
    session.ensure();
    tracer_.record(Phase::kBuild, t0);
}

core::HierarchicalPlan
TracedServer::hyparPlan(const ParsedRequest &req, const core::CommModel &model)
{
    const std::int64_t t0 = tracer_.now();
    core::HierarchicalPlan plan = core::makeHyparPlan(model, req.levels);
    tracer_.record(Phase::kHypar, t0);
    return plan;
}

core::HierarchicalResult
TracedServer::search(const ParsedRequest &req, const core::CommModel &model)
{
    // Default SearchOptions: engine auto, as the generators ask.
    const std::int64_t t0 = tracer_.now();
    core::HierarchicalResult result =
        core::OptimalPartitioner(model).partition(req.levels, {});
    const bool dense = req.levels <= core::OptimalPartitioner::kDenseMaxLevels;
    tracer_.record(dense ? Phase::kSearchDense : Phase::kSearchAStar, t0,
                   result.transitionsEvaluated, result.stats.expanded,
                   result.stats.pruned);
    return result;
}

void
TracedServer::runGroup(std::vector<Pending> &pending,
                       const std::vector<std::size_t> &members,
                       std::vector<std::string> &responses)
{
    serve::Session &session = *pending[members.front()].session;
    std::lock_guard<std::mutex> lock(session.mu);

    // Evaluates first, coalesced through one evaluateBatch.
    std::vector<std::size_t> co;
    for (const std::size_t i : members)
        if (pending[i].req.op == "evaluate")
            co.push_back(i);
    if (!co.empty()) {
        try {
            ensure(session);
            std::vector<core::HierarchicalPlan> plans;
            plans.reserve(co.size());
            for (const std::size_t i : co) {
                Pending &p = pending[i];
                if (!p.req.hasPlan)
                    p.evalPlan = hyparPlan(p.req, session.evaluator->model());
                plans.push_back(p.evalPlan);
            }
            const std::int64_t t0 = tracer_.now();
            const std::vector<sim::StepMetrics> metrics =
                session.evaluator->evaluateBatch(plans);
            tracer_.record(Phase::kEvaluateBatch, t0, plans.size());
            for (std::size_t k = 0; k < co.size(); ++k) {
                const std::size_t i = co[k];
                responses[i] = responseHead(pending[i].req, true) +
                               ",\"context_hash\":\"" + session.contextHash +
                               "\"" + ",\"batched\":" +
                               std::to_string(co.size()) +
                               ",\"steps\":1,\"metrics\":" +
                               metricsJson(metrics[k]) + "}";
                pending[i].done = true;
                pending[i].sharedBatch = co.size() > 1;
            }
        } catch (const std::exception &e) {
            for (const std::size_t i : co) {
                if (pending[i].done)
                    continue;
                responses[i] = errorResponse(pending[i].req, e.what());
                pending[i].errored = true;
                pending[i].done = true;
            }
        }
    }

    for (const std::size_t i : members) {
        Pending &p = pending[i];
        if (p.done)
            continue;
        try {
            if (p.req.op == "plan") {
                std::int64_t t0 = tracer_.now();
                const std::string hash = serve::planHash(
                    *p.network, p.config, p.req.strategy, {});
                tracer_.record(Phase::kHash, t0);
                t0 = tracer_.now();
                std::optional<core::HierarchicalResult> cached =
                    cache_.lookup(hash);
                tracer_.record(Phase::kCacheLookup, t0, cached ? 1 : 0);
                const char *outcome =
                    cached ? "hit" : (cache_.enabled() ? "miss" : "bypass");
                core::HierarchicalResult result;
                if (cached) {
                    result = std::move(*cached);
                } else {
                    ensure(session);
                    result = search(p.req, session.evaluator->model());
                    t0 = tracer_.now();
                    cache_.store(hash, result);
                    tracer_.record(Phase::kCacheStore, t0);
                }
                responses[i] = responseHead(p.req, true) +
                               ",\"context_hash\":\"" + p.ctxHash + "\"" +
                               ",\"plan_hash\":\"" + hash + "\"" +
                               ",\"cache\":\"" + outcome + "\"" +
                               ",\"plan\":" + planLevelsJson(result.plan) +
                               ",\"comm_bytes\":" +
                               serve::canonicalDouble(result.commBytes) +
                               ",\"search\":" + searchJson(result) + "}";
            } else {
                std::int64_t t0 = tracer_.now();
                const std::string hash = serve::sweepHash(
                    *p.network, p.config, p.req.strategy, {}, p.req.level);
                tracer_.record(Phase::kHash, t0);
                t0 = tracer_.now();
                std::optional<serve::SweepResult> cached =
                    cache_.lookupSweep(hash);
                tracer_.record(Phase::kCacheLookup, t0, cached ? 1 : 0);
                const char *outcome =
                    cached ? "hit" : (cache_.enabled() ? "miss" : "bypass");
                serve::SweepResult r;
                if (cached) {
                    r = std::move(*cached);
                } else {
                    ensure(session);
                    const core::HierarchicalPlan base =
                        hyparPlan(p.req, session.evaluator->model());
                    r.level = p.req.level;
                    t0 = tracer_.now();
                    session.evaluator->sweepNeighborhood(
                        base, p.req.level,
                        [&](std::uint64_t mask, const sim::StepMetrics &m) {
                            if (r.evaluated == 0 ||
                                m.stepSeconds < r.best.stepSeconds) {
                                r.bestMask = mask;
                                r.best = m;
                            }
                            ++r.evaluated;
                        });
                    tracer_.record(Phase::kSweep, t0, r.evaluated);
                    r.bestBits = core::toBitString(core::levelPlanFromMask(
                        r.bestMask, base.numLayers()));
                    t0 = tracer_.now();
                    cache_.storeSweep(hash, r);
                    tracer_.record(Phase::kCacheStore, t0);
                }
                responses[i] =
                    responseHead(p.req, true) + ",\"context_hash\":\"" +
                    p.ctxHash + "\"" + ",\"cache\":\"" + outcome + "\"" +
                    ",\"level\":" + std::to_string(r.level) +
                    ",\"evaluated\":" + std::to_string(r.evaluated) +
                    ",\"best_mask\":" + std::to_string(r.bestMask) +
                    ",\"best_bits\":\"" + r.bestBits +
                    "\",\"metrics\":" + metricsJson(r.best) + "}";
            }
        } catch (const std::exception &e) {
            responses[i] = errorResponse(p.req, e.what());
            p.errored = true;
        }
        p.done = true;
    }
}

std::vector<std::string>
TracedServer::processBatch(const std::vector<std::string> &lines)
{
    tracer_.beginBatch();
    const std::int64_t batchStart = tracer_.now();
    ++stats_.batches;
    const std::size_t n = lines.size();
    std::vector<Pending> pending(n);
    std::vector<std::string> responses(n);

    // Pass 1: parse and validate every request.
    for (std::size_t i = 0; i < n; ++i) {
        Pending &p = pending[i];
        std::int64_t t0 = tracer_.now();
        try {
            parseRequest(lines[i], p.req);
            if (!needsSession(p.req.op)) {
                if (p.req.op != "stats")
                    util::fatal("the traced replica does not serve op '" +
                                p.req.op + "'");
                tracer_.record(Phase::kParse, t0);
                continue;
            }
            tracer_.record(Phase::kParse, t0);
            t0 = tracer_.now();
            p.network = buildNetwork(p.req);
            tracer_.record(Phase::kNetwork, t0);
            t0 = tracer_.now();
            p.config = buildConfig(p.req);
            if (p.req.strategy != (p.req.op == "plan" ? "optimal" : "hypar"))
                util::fatal("the traced replica serves plan with strategy "
                            "optimal, evaluate and sweep with hypar");
            sim::validateFaults(p.config);
            if (p.req.op == "evaluate" && p.req.hasPlan) {
                p.evalPlan = decodePlanBits(p.req.planBits);
                if (p.evalPlan.numLevels() != p.req.levels)
                    util::fatal("request plan has " +
                                std::to_string(p.evalPlan.numLevels()) +
                                " levels but \"levels\" is " +
                                std::to_string(p.req.levels));
                core::validatePlan(p.evalPlan, *p.network);
            }
            if (p.req.op == "sweep" && !p.req.hasLevel)
                util::fatal("sweep needs a \"level\" field "
                            "(0-based hierarchy level)");
            tracer_.record(Phase::kValidate, t0);
            t0 = tracer_.now();
            p.ctxHash = serve::contextHash(*p.network, p.config);
            tracer_.record(Phase::kHash, t0);
        } catch (const std::exception &e) {
            responses[i] = errorResponse(p.req, e.what());
            ++stats_.errors;
            p.done = true;
        }
    }

    // Pass 2: reserve sessions in request order.
    for (std::size_t i = 0; i < n; ++i) {
        Pending &p = pending[i];
        if (p.done || !needsSession(p.req.op))
            continue;
        const std::int64_t t0 = tracer_.now();
        p.session = sessions_.reserve(*p.network, p.config, p.ctxHash);
        tracer_.record(Phase::kSession, t0);
    }

    // Pass 3: segments of session ops, split by `stats`; a segment's
    // context-hash groups fan out over the global pool as in
    // server.cc. The hand-off is no layer's call, so it stays in the
    // batch span's unattributed time.
    std::vector<std::size_t> segment;
    auto flushSegment = [&]() {
        if (segment.empty())
            return;
        std::map<std::string, std::vector<std::size_t>> groups;
        for (const std::size_t i : segment)
            groups[pending[i].ctxHash].push_back(i);
        std::vector<const std::vector<std::size_t> *> order;
        order.reserve(groups.size());
        for (const auto &[hash, members] : groups)
            order.push_back(&members);
        util::ThreadPool::global().parallelFor(
            0, order.size(), 1, [&](std::size_t b, std::size_t e) {
                for (std::size_t g = b; g < e; ++g)
                    runGroup(pending, *order[g], responses);
            });
        for (const std::size_t i : segment) {
            if (pending[i].errored)
                ++stats_.errors;
            if (pending[i].sharedBatch)
                ++stats_.coalesced;
        }
        segment.clear();
    };
    for (std::size_t i = 0; i < n; ++i) {
        Pending &p = pending[i];
        if (p.done)
            continue;
        if (needsSession(p.req.op)) {
            segment.push_back(i);
            continue;
        }
        flushSegment();
        const std::int64_t t0 = tracer_.now();
        const serve::PlanCacheStats &c = cache_.stats();
        responses[i] =
            responseHead(p.req, true) + ",\"cache\":{\"hits\":" +
            std::to_string(c.hits) + ",\"misses\":" + std::to_string(c.misses) +
            ",\"stores\":" + std::to_string(c.stores) +
            "},\"sessions\":{\"size\":" + std::to_string(sessions_.size()) +
            ",\"bytes\":" + std::to_string(sessions_.totalBytes()) +
            ",\"built\":" + std::to_string(sessions_.built()) +
            ",\"reused\":" + std::to_string(sessions_.reused()) +
            "},\"server\":{\"requests\":" + std::to_string(stats_.requests) +
            ",\"errors\":" + std::to_string(stats_.errors) +
            ",\"batches\":" + std::to_string(stats_.batches) +
            ",\"coalesced\":" + std::to_string(stats_.coalesced) + "}}";
        tracer_.record(Phase::kStats, t0);
    }
    flushSegment();

    const std::int64_t t0 = tracer_.now();
    sessions_.enforceBudget();
    tracer_.record(Phase::kSession, t0);
    stats_.requests += n;
    tracer_.record(Phase::kBatch, batchStart, n);
    return responses;
}

} // namespace perfbench
