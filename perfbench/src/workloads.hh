/**
 * @file
 * Seeded request generators for the serve-level benchmark.
 *
 * Each workload is a Schedule: admission batches of JSON request lines
 * for serve::Server::processBatch, split into a warm-up (run during
 * set-up, outside the timed set) and a timed stream. Every line
 * carries what its response must show, so the client can verify each
 * response without re-deriving the request. The same (workload, seed)
 * always yields byte-identical lines; the program under test only
 * ever sees those lines.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kColdPlan, kWarmServe };

/** "cold_plan" | "warm_serve"; nullopt otherwise. */
std::optional<Workload> workloadFromName(std::string_view name);
const char *workloadName(Workload workload);

/** One request line and what its response must show. */
struct Request
{
    std::string line;
    std::string op;
    /** Expected "cache" field ("hit" | "miss" | "bypass"); empty for
     *  ops whose response carries none. */
    std::string cache;
    bool certifiedExact = false; //!< expects "certified_exact":true
    std::uint64_t masks = 0;     //!< sweep: expected "evaluated" (2^L)
};

using Batch = std::vector<Request>;

struct Schedule
{
    std::vector<Batch> warmup;
    std::vector<Batch> timed;
    /** The timed stream may restart from its first batch when a run
     *  outlasts it (false for cold_plan: a replayed request would hit
     *  the cache). */
    bool cyclic = true;
    /** The first digestBatches timed batches feed the result digest;
     *  a run always completes at least this many. */
    std::size_t digestBatches = 0;
    /** Timed batches per throughput window. Every aligned window of
     *  this many batches holds the same mix of work. */
    std::size_t window = 1;

    /** Timed batch `i` of an unbounded run (wraps when cyclic). */
    const Batch &timedBatch(std::size_t i) const
    {
        return timed[i % timed.size()];
    }
    /** Whether a run may still issue timed batch `i`. */
    bool hasTimedBatch(std::size_t i) const
    {
        return cyclic || i < timed.size();
    }
};

/** The benchmark's default seed; result digests are recorded for it. */
inline constexpr std::uint64_t kDefaultSeed = 1;

Schedule makeSchedule(Workload workload, std::uint64_t seed);

/** Every line of a schedule, warm-up first, batches separated by a
 *  blank line (the `hyparc serve` framing). */
std::string transcript(const Schedule &schedule);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
