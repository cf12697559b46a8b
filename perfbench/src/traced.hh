/**
 * @file
 * Traced replay of serve::Server::processBatch.
 *
 * TracedServer executes admission batches the way server.cc does —
 * pass 1 parse and validate, pass 2 reserve sessions in request order,
 * pass 3 fan the context-hash groups (coalesced evaluates first) out
 * over util::ThreadPool::global() — calling each layer's public
 * function itself and recording one in-memory span per call. It
 * handles only what the benchmark's generators send: `plan` with
 * strategy optimal, single-step `evaluate` (explicit plan or strategy
 * hypar), `sweep` and `stats`, on zoo models over htree/torus with
 * node faults; anything else is an in-band error. Its responses are
 * byte-identical to the server's for every op except `stats` (whose
 * latency histogram the replay does not keep); the benchmark checks
 * that, which is what ties the spans to the code `hyparc serve` runs.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/optimal_partitioner.hh"
#include "serve/plan_cache.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "sim/evaluator.hh"

namespace perfbench {

/** One span kind per layer call the replay times. */
enum class Phase : std::uint8_t {
    kBatch,         //!< one processBatch (parent of every other span)
    kParse,         //!< serve: JSON parse and field extraction
    kValidate,      //!< serve: config build, fault map and plan checks
    kNetwork,       //!< dnn: zoo network build
    kHash,          //!< serve: canonicalize + SHA-256 (context/plan/sweep)
    kSession,       //!< serve: session LRU reserve and byte budget
    kCacheLookup,   //!< serve: plan/sweep cache read
    kCacheStore,    //!< serve: plan/sweep cache write
    kStats,         //!< serve: the `stats` op
    kBuild,         //!< sim: cold Evaluator build (noc/arch inside)
    kSearchDense,   //!< core: OptimalPartitioner, dense engine
    kSearchAStar,   //!< core: OptimalPartitioner, A* engine
    kHypar,         //!< core: Algorithm 2
    kEvaluateBatch, //!< sim: Evaluator::evaluateBatch
    kSweep,         //!< sim: Evaluator::sweepNeighborhood
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kSweep) + 1;

/** Dotted name ("serve.parse", "core.search_astar", ...). */
const char *phaseName(Phase phase);

/** The repo module a phase's call belongs to (kNone for kBatch). */
enum class Layer : std::uint8_t { kServe, kDnn, kCore, kSim, kNone };

inline constexpr std::size_t kNumLayers = 4; //!< kNone excluded

Layer phaseLayer(Phase phase);
const char *layerName(Layer layer);

struct Span
{
    Phase phase = Phase::kBatch;
    bool timed = false;      //!< false for set-up spans
    std::uint32_t batch = 0; //!< id of the parent kBatch span's batch
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Work units: lines (batch), transitions (search), plans
     *  (evaluateBatch), masks (sweep), hits (cache lookup). */
    std::uint64_t work = 0;
    std::uint64_t expanded = 0; //!< search: SearchStats::expanded
    std::uint64_t pruned = 0;   //!< search: SearchStats::pruned
};

/** In-memory span log; written out only on request. record() may be
 *  called from pool threads; everything else from the caller's. */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    Tracer() : origin_(Clock::now()) {}

    /** Spans recorded from now on belong to the timed set. */
    void setTimed(bool timed) { timed_ = timed; }

    std::int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Record a span that started at `startNs` and ends now. */
    void record(Phase phase, std::int64_t startNs, std::uint64_t work = 0,
                std::uint64_t expanded = 0, std::uint64_t pruned = 0);

    void beginBatch() { ++batch_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** One JSON object per span, one per line. */
    void write(std::ostream &out) const;

  private:
    Clock::time_point origin_;
    std::mutex mu_; //!< guards spans_ while pool threads record
    std::vector<Span> spans_;
    std::uint32_t batch_ = 0;
    bool timed_ = false;
};

/** A request line parsed the way server.cc's pass 1 parses it. */
struct ParsedRequest
{
    std::string op;
    std::string model;
    std::size_t levels = 4;
    std::size_t batch = 256;
    std::string topology = "htree";
    std::string strategy = "hypar";
    hypar::arch::FaultMap faults;
    std::vector<std::string> planBits;
    bool hasPlan = false;
    std::size_t level = 0;
    bool hasLevel = false;
};

/** Parse one request line (fatal, as util::fatal, on bad input or on
 *  a field the generators never send). */
void parseRequest(const std::string &line, ParsedRequest &req);

hypar::dnn::Network buildNetwork(const ParsedRequest &req);
hypar::sim::SimConfig buildConfig(const ParsedRequest &req);

/** Serial, traced replica of serve::Server (see the file comment). */
class TracedServer
{
  public:
    TracedServer(const hypar::serve::ServeOptions &options, Tracer &tracer);

    /** One admission batch; responses in request order. */
    std::vector<std::string>
    processBatch(const std::vector<std::string> &lines);

    hypar::serve::SessionRegistry &sessions() { return sessions_; }

  private:
    struct Pending;
    void runGroup(std::vector<Pending> &pending,
                  const std::vector<std::size_t> &members,
                  std::vector<std::string> &responses);
    hypar::core::HierarchicalPlan
    hyparPlan(const ParsedRequest &req, const hypar::core::CommModel &model);
    hypar::core::HierarchicalResult
    search(const ParsedRequest &req, const hypar::core::CommModel &model);
    void ensure(hypar::serve::Session &session);

    hypar::serve::PlanCache cache_;
    hypar::serve::SessionRegistry sessions_;
    hypar::serve::ServeStats stats_;
    Tracer &tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
