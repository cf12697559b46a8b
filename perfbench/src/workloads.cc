#include "workloads.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "dnn/model_zoo.hh"

namespace perfbench {

namespace {

/** splitmix64: a fixed, portable stream (std distributions are
 *  implementation-defined, so they would not give the same inputs on
 *  every standard library). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); the modulo bias is below 2^-40 for the n
     *  used here. */
    std::size_t below(std::size_t n) { return next() % n; }

    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

std::size_t
layerCount(const std::string &model)
{
    return hypar::dnn::modelByName(model).layers().size();
}

/** Fields of one generated request, rendered in a fixed order. */
struct Fields
{
    std::string op;
    std::string model;
    std::size_t levels = 4;
    std::size_t batch = 256;
    std::string topology = "htree";
    std::string strategy;
    bool overlap = false;
    std::vector<std::size_t> halvedNodes; //!< nodes derated to scale 0.5
    std::vector<std::string> plan;
    std::optional<std::size_t> level;
};

std::string
render(const Fields &f)
{
    std::string s = "{\"op\":\"" + f.op + "\"";
    if (f.op == "stats")
        return s + "}";
    s += ",\"model\":\"" + f.model + "\"";
    s += ",\"levels\":" + std::to_string(f.levels);
    s += ",\"batch\":" + std::to_string(f.batch);
    s += ",\"topology\":\"" + f.topology + "\"";
    if (!f.strategy.empty())
        s += ",\"strategy\":\"" + f.strategy + "\"";
    if (f.overlap)
        s += ",\"overlap\":true";
    if (!f.halvedNodes.empty()) {
        s += ",\"faults\":{\"nodes\":[";
        for (std::size_t k = 0; k < f.halvedNodes.size(); ++k)
            s += (k > 0 ? ",[" : "[") + std::to_string(f.halvedNodes[k]) +
                 ",0.5]";
        s += "]}";
    }
    if (!f.plan.empty()) {
        s += ",\"plan\":[";
        for (std::size_t h = 0; h < f.plan.size(); ++h)
            s += (h > 0 ? ",\"" : "\"") + f.plan[h] + "\"";
        s += "]";
    }
    if (f.level)
        s += ",\"level\":" + std::to_string(*f.level);
    return s + "}";
}

Request
request(const Fields &f, const std::string &cache = "")
{
    Request r;
    r.line = render(f);
    r.op = f.op;
    r.cache = cache;
    r.certifiedExact = f.op == "plan" && f.strategy == "optimal";
    if (f.op == "sweep")
        r.masks = std::uint64_t{1} << layerCount(f.model);
    return r;
}

/**
 * One batch that calls every layer once (A* and dense search, a
 * coalesced evaluateBatch, Algorithm 2, an incremental sweep) on
 * contexts no timed request uses (batch 96 appears nowhere else), so
 * pool threads, SIMD dispatch and first-touch costs land in set-up.
 */
Batch
layerWarmup()
{
    Fields f;
    f.model = "AlexNet";
    f.batch = 96;
    Batch b;
    f.op = "plan";
    f.strategy = "optimal";
    f.levels = 11;
    b.push_back(request(f, "miss"));
    f.levels = 8;
    b.push_back(request(f, "miss"));
    f.op = "evaluate";
    f.levels = 4;
    f.strategy = "hypar";
    b.push_back(request(f));
    f.strategy.clear();
    const std::size_t layers = layerCount(f.model);
    f.plan.assign(f.levels, std::string(layers, '0'));
    b.push_back(request(f));
    f.plan.assign(f.levels, std::string(layers, '1'));
    b.push_back(request(f));
    f.plan.clear();
    f.op = "sweep";
    f.level = 0;
    b.push_back(request(f, "miss"));
    return b;
}

const std::array<const char *, 5> kVggModels = {"VGG-A", "VGG-B", "VGG-C",
                                                "VGG-D", "VGG-E"};
constexpr std::array<std::size_t, 3> kColdDepths = {10, 11, 12};

/**
 * Set-up shared by both workloads: the layer warm-up batch, then one
 * exact `plan` for every VGG model x depth in {10, 11, 12}, on batch
 * sizes (64..78) no timed request uses. Set-up is mostly search, the
 * work whose speed varies least with the host (README.md, "Noise").
 */
void
addSearchWarmup(Schedule &s)
{
    s.warmup.push_back(layerWarmup());
    std::size_t warmBatch = 64;
    for (const char *model : kVggModels)
        for (const std::size_t depth : kColdDepths) {
            Fields f;
            f.op = "plan";
            f.strategy = "optimal";
            f.model = model;
            f.levels = depth;
            f.batch = warmBatch++;
            s.warmup.push_back({request(f, "miss")});
        }
}

/**
 * cold_plan: one exact `plan` per batch, VGG-A..E at H in {10, 11, 12}
 * in equal thirds (blocks of 15 = every model x depth once, shuffled),
 * so kAuto runs dense at H = 10 and A* above. A distinct batch size
 * per request (plus a seeded topology and, for a third, a derated
 * node) makes every request a new context and a plan-cache miss.
 */
Schedule
coldPlan(std::uint64_t seed)
{
    Rng rng(seed);
    Schedule s;
    s.cyclic = false;
    s.digestBatches = 24;
    s.window = kVggModels.size() * kColdDepths.size();
    addSearchWarmup(s);

    constexpr std::size_t kFirstBatch = 128;
    constexpr std::size_t kRequests = 2048;
    std::vector<std::size_t> batches(kRequests);
    for (std::size_t k = 0; k < kRequests; ++k)
        batches[k] = kFirstBatch + k;
    rng.shuffle(batches);

    std::vector<std::pair<const char *, std::size_t>> block;
    for (const char *model : kVggModels)
        for (const std::size_t depth : kColdDepths)
            block.emplace_back(model, depth);
    std::size_t k = 0;
    while (k < kRequests) {
        rng.shuffle(block);
        for (const auto &[model, depth] : block) {
            if (k == kRequests)
                break;
            Fields f;
            f.op = "plan";
            f.strategy = "optimal";
            f.model = model;
            f.levels = depth;
            f.batch = batches[k++];
            f.topology = rng.below(2) == 0 ? "htree" : "torus";
            if (rng.below(3) == 0)
                f.halvedNodes.push_back(
                    rng.below(std::size_t{1} << depth));
            s.timed.push_back({request(f, "miss")});
        }
    }
    return s;
}

/**
 * warm_serve: 8 warm contexts (one per model at a fixed H in {4, 6, 8},
 * seeded batch and topology) — exactly the default session LRU capacity.
 * Every batch touches each context the same way: a `plan` cache hit and
 * two `evaluate`s coalesced into one evaluateBatch (two explicit plans
 * on even contexts, an explicit plan and Algorithm 2 on odd ones), in a
 * seeded order. Batches therefore cost alike, so p50 and p90 sit inside
 * one class of batch. Every 8th batch trades its last plan hit for a
 * `stats`.
 */
Schedule
warmServe(std::uint64_t seed)
{
    Rng rng(seed);
    Schedule s;
    s.digestBatches = 64;
    s.window = 32;
    addSearchWarmup(s);

    // Depths are fixed per model (larger nets shallower) so the cost of
    // the working set does not depend on the seed.
    const std::array<std::pair<const char *, std::size_t>, 8> kContexts = {{
        {"Lenet-c", 8}, {"Cifar-c", 8}, {"AlexNet", 6}, {"VGG-A", 6},
        {"VGG-B", 6}, {"VGG-C", 4}, {"VGG-D", 4}, {"VGG-E", 4}}};
    std::vector<Fields> contexts;
    for (const auto &[model, depth] : kContexts) {
        Fields f;
        f.model = model;
        f.levels = depth;
        f.batch = 128 + rng.below(896);
        f.topology = rng.below(2) == 0 ? "htree" : "torus";
        contexts.push_back(f);
    }

    auto plan = [&](std::size_t c, const char *cache) {
        Fields f = contexts[c];
        f.op = "plan";
        f.strategy = "optimal";
        return request(f, cache);
    };
    // Set-up fills the plan cache and builds all eight sessions.
    Batch fill;
    for (std::size_t c = 0; c < contexts.size(); ++c)
        fill.push_back(plan(c, "miss"));
    s.warmup.push_back(fill);

    auto explicitPlan = [&](const Fields &context) {
        Fields e = context;
        e.op = "evaluate";
        const std::size_t layers = layerCount(e.model);
        for (std::size_t h = 0; h < e.levels; ++h) {
            std::string bits(layers, '0');
            for (char &c : bits)
                c = rng.below(2) == 0 ? '0' : '1';
            e.plan.push_back(bits);
        }
        return request(e);
    };
    std::vector<std::size_t> order(contexts.size());
    for (std::size_t c = 0; c < order.size(); ++c)
        order[c] = c;
    auto makeBatch = [&](std::size_t b) {
        Batch batch;
        // stats goes last so it does not split the batch's session ops
        // into two segments.
        const bool stats = b % 8 == 7;
        rng.shuffle(order);
        for (std::size_t k = 0; k < order.size(); ++k) {
            const std::size_t c = order[k];
            if (!stats || k + 1 < order.size())
                batch.push_back(plan(c, "hit"));
            batch.push_back(explicitPlan(contexts[c]));
            if (c % 2 == 0) {
                batch.push_back(explicitPlan(contexts[c]));
            } else {
                Fields h = contexts[c];
                h.op = "evaluate";
                h.strategy = "hypar";
                batch.push_back(request(h));
            }
        }
        if (stats) {
            Fields f;
            f.op = "stats";
            batch.push_back(request(f));
        }
        return batch;
    };
    // Then about a tenth of a second of the same traffic, so timing
    // starts from steady state.
    constexpr std::size_t kWarmBatches = 64;
    for (std::size_t b = 0; b < kWarmBatches; ++b)
        s.warmup.push_back(makeBatch(b));

    constexpr std::size_t kPeriod = 256;
    for (std::size_t b = 0; b < kPeriod; ++b)
        s.timed.push_back(makeBatch(b));
    return s;
}

} // namespace

std::optional<Workload>
workloadFromName(std::string_view name)
{
    for (const Workload w : {Workload::kColdPlan, Workload::kWarmServe})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::kColdPlan:
        return "cold_plan";
    case Workload::kWarmServe:
        return "warm_serve";
    }
    return "?";
}

Schedule
makeSchedule(Workload workload, std::uint64_t seed)
{
    switch (workload) {
    case Workload::kColdPlan:
        return coldPlan(seed);
    case Workload::kWarmServe:
        return warmServe(seed);
    }
    return {};
}

std::string
transcript(const Schedule &schedule)
{
    std::string out;
    for (const auto *part : {&schedule.warmup, &schedule.timed})
        for (const Batch &batch : *part) {
            for (const Request &r : batch)
                out += r.line + "\n";
            out += "\n";
        }
    return out;
}

} // namespace perfbench
