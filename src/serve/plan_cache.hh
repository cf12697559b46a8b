/**
 * @file
 * On-disk content-addressed plan cache for the serving tier.
 *
 * Entries live at `<dir>/<planHash>.json` — one JSON object with a
 * versioned header (`format`/`version`), the request's plan hash
 * echoed back (self-describing; detects a file renamed onto the wrong
 * key), and the full core::HierarchicalResult: the plan (one bit
 * string per level, layer 0 leftmost, '1' = mp — core::toBitString's
 * convention), commBytes as %.17g (round-trips binary64 exactly, so a
 * cache hit is bit-identical to the search that produced it), and the
 * SearchStats certificate.
 *
 * Robustness contract (pinned by tests/test_serve.cc):
 *
 *  - Writes are atomic: the entry is written to `<hash>.tmp` in the
 *    same directory and std::filesystem::rename'd into place, so a
 *    reader never observes a torn entry and a crashed writer leaves at
 *    worst a stale .tmp (ignored by lookups, removed by evict()).
 *  - A corrupt entry — truncated JSON, trailing garbage, wrong format
 *    string, wrong version, wrong hash, malformed plan — is
 *    *quarantined*: renamed to `<hash>.quarantine` (best effort) and
 *    reported as a miss, so the server re-plans and overwrites rather
 *    than crashing or looping on the bad file.
 *  - A disabled cache (--no-cache) never reads or writes the
 *    directory; lookups miss and stores are dropped.
 *
 * Sweep results are cached alongside plans with the same discipline:
 * entries live at `<dir>/<sweepHash>.sweep.json` (format tag
 * kSweepCacheFormat), store the argmin of the level sweep plus its
 * full StepMetrics with %.17g doubles, and share the quarantine /
 * atomic-rename / evict machinery. The hit/miss/store/quarantine
 * counters are shared across both entry kinds.
 *
 * Thread safety: every operation takes an internal mutex, so the
 * server's parallel request groups may look up and store
 * concurrently; counter totals still only make sense at the server's
 * serial points. Cross-*process* safety comes from the atomic rename
 * (concurrent servers may redundantly re-plan, never corrupt).
 */

#ifndef HYPAR_SERVE_PLAN_CACHE_HH
#define HYPAR_SERVE_PLAN_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>

#include "core/hierarchical_partitioner.hh"
#include "sim/metrics.hh"

namespace hypar::serve {

/** On-disk format version; bump on any layout or plan-key change, so
 *  entries keyed under an older key text quarantine instead of
 *  lingering as unreachable stale files. Version 5: the plan key has
 *  no engine line (one exact search answers every depth). */
inline constexpr int kPlanCacheVersion = 5;

/** Format tag every plan entry must carry. */
inline constexpr const char *kPlanCacheFormat = "hyparc-plan-cache";

/** Format tag every sweep entry must carry. */
inline constexpr const char *kSweepCacheFormat = "hyparc-sweep-cache";

/** Lookup/store counters (reported by the server's `stats` op). */
struct PlanCacheStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
    std::size_t quarantined = 0;
};

/** Cached outcome of a `sweep` op: the argmin over one level's masks.
 *  bestBits is stored (not recomputed) so a hit renders byte-identical
 *  responses without rebuilding the base plan. */
struct SweepResult
{
    std::size_t level = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t bestMask = 0;
    std::string bestBits;
    sim::StepMetrics best;
};

class PlanCache
{
  public:
    /**
     * A cache over `dir` (created lazily on first store). `enabled`
     * false (--no-cache) turns every operation into a no-op miss.
     */
    PlanCache(std::filesystem::path dir, bool enabled);

    /**
     * Default cache directory: $HYPARC_CACHE_DIR if set, else
     * $XDG_CACHE_HOME/hyparc/plans, else $HOME/.cache/hyparc/plans,
     * else ./.hyparc-cache/plans.
     */
    static std::filesystem::path defaultDir();

    /**
     * Fetch the entry for `planHash`. Returns the cached result on a
     * clean hit; nullopt on miss, disabled cache, or a quarantined
     * corrupt entry.
     */
    std::optional<core::HierarchicalResult>
    lookup(const std::string &planHash);

    /** Atomically persist `result` under `planHash` (no-op when
     *  disabled). Fatal when the directory cannot be created or the
     *  entry cannot be written. */
    void store(const std::string &planHash,
               const core::HierarchicalResult &result);

    /**
     * Fetch the sweep entry for `sweepHash` (same hit/miss/quarantine
     * semantics as lookup()).
     */
    std::optional<SweepResult> lookupSweep(const std::string &sweepHash);

    /** Atomically persist a sweep result under `sweepHash`. */
    void storeSweep(const std::string &sweepHash, const SweepResult &r);

    /** Delete every entry (including .tmp/.quarantine debris); returns
     *  the number of files removed. Works even when disabled — eviction
     *  is an explicit administrative request. */
    std::size_t evict();

    /** Serialize a result to the entry JSON (exposed for tests). */
    static std::string entryJson(const std::string &planHash,
                                 const core::HierarchicalResult &result);

    /** Same for a sweep entry. */
    static std::string sweepEntryJson(const std::string &sweepHash,
                                      const SweepResult &r);

    /** Counters; read at serial points only (no lock is taken). */
    const PlanCacheStats &stats() const { return stats_; }
    const std::filesystem::path &dir() const { return dir_; }
    bool enabled() const { return enabled_; }

  private:
    std::filesystem::path entryPath(const std::string &planHash) const;
    std::filesystem::path sweepPath(const std::string &sweepHash) const;
    void quarantine(const std::filesystem::path &path);
    void storeFile(const std::filesystem::path &tmp,
                   const std::filesystem::path &final,
                   const std::string &payload);

    std::filesystem::path dir_;
    bool enabled_;
    std::mutex mu_; //!< guards stats_ and the entry files
    PlanCacheStats stats_;
};

} // namespace hypar::serve

#endif // HYPAR_SERVE_PLAN_CACHE_HH
