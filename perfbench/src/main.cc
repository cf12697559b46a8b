/**
 * @file
 * Serve-level benchmark: workload client, verifier and metrics.
 *
 *   perfbench_serve --workload cold_plan|warm_serve
 *                   [--seed N] [--seconds S] [--trace 0|1]
 *                   [--work-dir DIR] [--spans FILE]
 *
 * One closed-loop client sends the workload's admission batches through
 * serve::Server::processBatch (the code `hyparc serve` runs), waiting
 * for each response before sending the next batch, and verifies every
 * response. With --trace 0 it prints the end-to-end metrics; with
 * --trace 1 it also replays the same requests through TracedServer and
 * prints the per-layer metrics from its spans. The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * The process pins itself to one CPU before anything creates the
 * global thread pool: unpinned, the pool's workers migrate and the
 * same request's latency swings by 2x between runs.
 */

#include <sched.h>
#include <unistd.h>
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simd_kernels.hh"
#include "serve/server.hh"
#include "traced.hh"
#include "util/thread_pool.hh"
#include "verify.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace perfbench;
using hypar::serve::Server;
using hypar::serve::ServeOptions;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-ups (and timed slices) per run; setup_s is the median. */
constexpr std::size_t kSetupRuns = 5;

/** throughput_rps is this quantile of the per-window rates (see
 *  sustainedRate). */
constexpr double kRateQuantile = 0.10;

/** Cap on timed batches (warm_serve sends about 1300 a second). */
constexpr std::size_t kMaxTimedBatches = std::size_t{1} << 18;

struct Args
{
    Workload workload = Workload::kColdPlan;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    fs::path workDir = ".bench_build/perfbench/work";
    std::string spansFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_serve: " << why
              << "\nusage: perfbench_serve --workload "
                 "cold_plan|warm_serve [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--spans FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const auto w = workloadFromName(value);
                if (!w)
                    usage("unknown workload '" + value + "'");
                args.workload = *w;
                haveWorkload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                if (!(args.seconds > 0))
                    usage("--seconds must be positive");
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--work-dir") {
                args.workDir = value;
            } else if (flag == "--spans") {
                args.spansFile = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": '" + value + "'");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return args;
}

/** The CPUs this process may use, lowest first. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return {};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

/** Pin the whole process (every thread created later inherits it) to
 *  the highest allowed CPU; returns it, or -1 when pinning failed. */
int
pinToOneCpu(const std::vector<int> &allowed)
{
    if (allowed.empty())
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed.back(), &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? allowed.back() : -1;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Peak resident set since the last resetPeakRss(), from VmHWM. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Return freed heap to the OS and restart the peak-RSS high-water mark
 * from the current resident set (Linux clear_refs "5"), so
 * peak_rss_mib covers the timed loop's working set and not memory the
 * repeated set-ups left in malloc's free lists.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile of unsorted samples. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Request lines per second of server time in consecutive windows of
 * `window` batches (equal work: see Schedule::window), reported at the
 * kRateQuantile quantile — the rate the server sustains in all but the
 * slowest tenth of the run. The host alternates between speeds about
 * 1.3 to 1.8x apart; its slower speed is steady from run to run while
 * its faster one is not, so a total or median rate moves with how long
 * the fast speed held (README.md, "Noise").
 */
double
sustainedRate(const std::vector<double> &latencyMs, std::size_t window,
              std::size_t linesPerBatch)
{
    std::vector<double> rates;
    for (std::size_t b = 0; b + window <= latencyMs.size(); b += window) {
        double ms = 0;
        for (std::size_t k = b; k < b + window; ++k)
            ms += latencyMs[k];
        rates.push_back(1e3 * static_cast<double>(window * linesPerBatch) /
                        ms);
    }
    return quantile(rates, kRateQuantile);
}

std::vector<std::string>
linesOf(const Batch &batch)
{
    std::vector<std::string> lines;
    lines.reserve(batch.size());
    for (const Request &r : batch)
        lines.push_back(r.line);
    return lines;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/** Verification tally: every response line is one attempted op. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void check(const Batch &batch, const std::vector<std::string> &responses,
               const char *where)
    {
        attempted += batch.size();
        if (responses.size() != batch.size()) {
            std::cerr << where << ": " << responses.size()
                      << " responses for " << batch.size() << " requests\n";
            failed += batch.size();
            return;
        }
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const std::string why = checkResponse(batch[k], responses[k]);
            if (why.empty())
                continue;
            ++failed;
            if (failed <= 5)
                std::cerr << where << ": " << why << "\n  request:  "
                          << batch[k].line << "\n  response: "
                          << responses[k].substr(0, 400) << "\n";
        }
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-phase totals over the traced replay. */
struct PhaseTotals
{
    std::size_t calls = 0;
    double ns = 0;
    double work = 0;
    std::size_t timedCalls = 0;
    double timedNs = 0;
    double timedWork = 0;
    double timedExpanded = 0;
    double timedPruned = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Total length of the union of [start, end) intervals. */
double
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> &intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto &[start, end] : intervals) {
        const std::int64_t from = std::max(start, reach);
        if (end > from)
            total += static_cast<double>(end - from);
        reach = std::max(reach, end);
    }
    return total;
}

struct TraceResult
{
    std::vector<Metric> metrics;
    std::size_t mismatches = 0;
};

/**
 * Replay the warm-up and the first `batches` timed batches through a
 * fresh TracedServer and turn its spans into the per-layer metrics.
 * `untracedKeys` holds responseKey of every untraced response, in
 * order; a traced response that differs counts as a mismatch.
 */
TraceResult
tracedRun(const Schedule &schedule, const ServeOptions &options,
          std::size_t batches, const std::vector<std::uint64_t> &untracedKeys,
          double untracedRps, Tally &tally, const std::string &spansFile)
{
    Tracer tracer;
    TracedServer server(options, tracer);
    TraceResult out;
    for (const Batch &batch : schedule.warmup)
        tally.check(batch, server.processBatch(linesOf(batch)),
                    "traced warm-up");

    tracer.setTimed(true);
    const std::size_t built0 = server.sessions().built();
    const std::size_t reused0 = server.sessions().reused();
    std::size_t lines = 0;
    std::size_t key = 0;
    double serverSeconds = 0;
    for (std::size_t i = 0; i < batches; ++i) {
        const Batch &batch = schedule.timedBatch(i);
        const std::vector<std::string> request = linesOf(batch);
        const auto t0 = Clock::now();
        const std::vector<std::string> responses =
            server.processBatch(request);
        serverSeconds += seconds(t0, Clock::now());
        tally.check(batch, responses, "traced");
        for (const std::string &r : responses)
            if (key >= untracedKeys.size() ||
                responseKey(r) != untracedKeys[key++])
                ++out.mismatches;
        lines += batch.size();
    }
    const double tracedRps = lines / serverSeconds;
    const double built =
        static_cast<double>(server.sessions().built() - built0);
    const double reused =
        static_cast<double>(server.sessions().reused() - reused0);

    std::array<PhaseTotals, kNumPhases> totals{};
    std::array<double, kNumLayers> layerNs{}; // timed, by Layer
    // Pool threads share one CPU, so a batch's child spans can overlap:
    // coverage counts the union of their intervals, once.
    double coveredNs = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const Span &s : tracer.spans()) {
        if (s.timed && s.phase == Phase::kBatch) {
            coveredNs += unionNs(children);
            children.clear();
        } else if (s.timed) {
            children.emplace_back(s.startNs, s.endNs);
        }
        PhaseTotals &t = totals[static_cast<std::size_t>(s.phase)];
        const double ns = static_cast<double>(s.endNs - s.startNs);
        ++t.calls;
        t.ns += ns;
        t.work += static_cast<double>(s.work);
        if (!s.timed)
            continue;
        ++t.timedCalls;
        t.timedNs += ns;
        t.timedWork += static_cast<double>(s.work);
        t.timedExpanded += static_cast<double>(s.expanded);
        t.timedPruned += static_cast<double>(s.pruned);
        const Layer layer = phaseLayer(s.phase);
        if (layer != Layer::kNone)
            layerNs[static_cast<std::size_t>(layer)] += ns;
    }
    auto at = [&](Phase p) -> const PhaseTotals & {
        return totals[static_cast<std::size_t>(p)];
    };

    // Mean duration of one call, over warm-up and timed calls alike.
    auto perCall = [&](Phase p, double scale) {
        return ratio(at(p).ns, static_cast<double>(at(p).calls)) / scale;
    };
    const PhaseTotals &dense = at(Phase::kSearchDense);
    const PhaseTotals &astar = at(Phase::kSearchAStar);
    const double searchNs = dense.ns + astar.ns;
    const double searchCalls = static_cast<double>(dense.calls + astar.calls);
    const double n = static_cast<double>(lines);
    const double batchNs = at(Phase::kBatch).timedNs;
    const PhaseTotals &lookup = at(Phase::kCacheLookup);
    auto share = [&](Layer l) {
        return ratio(layerNs[static_cast<std::size_t>(l)], batchNs);
    };

    out.metrics = {
        {"core.search_ms", ratio(searchNs, searchCalls) / 1e6, "ms"},
        {"core.search_dense_ms", perCall(Phase::kSearchDense, 1e6), "ms"},
        {"core.search_astar_ms", perCall(Phase::kSearchAStar, 1e6), "ms"},
        {"core.transitions_per_request",
         (dense.timedWork + astar.timedWork) / n, "count"},
        {"core.expanded_per_request",
         (dense.timedExpanded + astar.timedExpanded) / n, "count"},
        {"core.pruned_per_request",
         (dense.timedPruned + astar.timedPruned) / n, "count"},
        {"core.ns_per_transition", ratio(searchNs, dense.work + astar.work),
         "ns"},
        {"core.hypar_plan_us", perCall(Phase::kHypar, 1e3), "us"},
        {"sim.evaluator_build_ms", perCall(Phase::kBuild, 1e6), "ms"},
        {"sim.evaluate_batch_us", perCall(Phase::kEvaluateBatch, 1e3), "us"},
        {"sim.plans_per_batch_call",
         ratio(at(Phase::kEvaluateBatch).work,
               static_cast<double>(at(Phase::kEvaluateBatch).calls)),
         "count"},
        {"sim.sweep_ms", perCall(Phase::kSweep, 1e6), "ms"},
        {"sim.sweep_ns_per_mask",
         ratio(at(Phase::kSweep).ns, at(Phase::kSweep).work), "ns"},
        {"serve.parse_us", perCall(Phase::kParse, 1e3), "us"},
        {"serve.validate_us", perCall(Phase::kValidate, 1e3), "us"},
        {"serve.network_us", perCall(Phase::kNetwork, 1e3), "us"},
        {"serve.hash_us", perCall(Phase::kHash, 1e3), "us"},
        {"serve.cache_lookup_us", perCall(Phase::kCacheLookup, 1e3), "us"},
        {"serve.cache_hit_ratio",
         ratio(lookup.timedWork, static_cast<double>(lookup.timedCalls)),
         "ratio"},
        {"serve.cache_store_us", perCall(Phase::kCacheStore, 1e3), "us"},
        {"serve.cache_stores_per_request",
         static_cast<double>(at(Phase::kCacheStore).timedCalls) / n, "count"},
        {"serve.sessions_built_per_request", built / n, "count"},
        {"serve.session_reuse_ratio", ratio(reused, reused + built), "ratio"},
        {"serve.unattributed_us", (batchNs - coveredNs) / n / 1e3, "us"},
        {"trace.share_serve", share(Layer::kServe), "ratio"},
        {"trace.share_dnn", share(Layer::kDnn), "ratio"},
        {"trace.share_core", share(Layer::kCore), "ratio"},
        {"trace.share_sim", share(Layer::kSim), "ratio"},
        {"trace.coverage", ratio(coveredNs, batchNs), "ratio"},
        {"trace.overhead", ratio(tracedRps, untracedRps), "ratio"},
    };

    if (!spansFile.empty()) {
        std::ofstream file(spansFile);
        tracer.write(file);
        if (!file)
            std::cerr << "perfbench_serve: cannot write " << spansFile << "\n";
    }
    return out;
}

/** Comma-separated values, in order. */
std::string
joined(const std::vector<double> &values)
{
    std::ostringstream s;
    for (std::size_t k = 0; k < values.size(); ++k)
        s << (k > 0 ? "," : "") << values[k];
    return s.str();
}

std::string
jsonNumber(double v)
{
    std::ostringstream s;
    s.precision(17);
    s << v;
    return s.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Pin before anything touches util::ThreadPool::global(). With
    // every thread on one CPU, per-thread malloc arenas buy nothing and
    // make the resident set depend on which thread served which group
    // (10.9 to 12.8 MiB across seeds of warm_serve; 10.7 with one).
    const std::vector<int> allowed = allowedCpus();
    const int cpu = pinToOneCpu(allowed);
    mallopt(M_ARENA_MAX, 1);

    const Schedule schedule = makeSchedule(args.workload, args.seed);
    const fs::path runDir =
        args.workDir / (std::string(workloadName(args.workload)) + "-" +
                        std::to_string(::getpid()));
    ServeOptions options;
    options.cacheDir = runDir / "cache";

    int status = 0;
    try {
        Tally tally;
        std::vector<double> setupSeconds;
        std::unique_ptr<Server> server;
        auto setUp = [&]() {
            server.reset();
            malloc_trim(0);
            fs::remove_all(runDir);
            const auto t0 = Clock::now();
            server = std::make_unique<Server>(options);
            for (const Batch &batch : schedule.warmup) {
                std::ostringstream out;
                server->processBatch(linesOf(batch), out);
                tally.check(batch, splitLines(out.str()), "warm-up");
            }
            setupSeconds.push_back(seconds(t0, Clock::now()));
        };

        // Sized and written up front: a buffer that grew with the
        // batch count would make peak_rss_mib depend on the host's speed.
        std::vector<double> latencyMs(kMaxTimedBatches);
        std::vector<std::uint64_t> keys;
        std::vector<std::string> digestResponses;
        std::size_t lines = 0;
        std::size_t batches = 0;
        double wall = 0;
        double cpuSeconds = 0;
        double rss = 0;
        std::ostringstream out;
        // The timed loop runs in kSetupRuns equal slices, each on a
        // server fresh from its own set-up (an empty cache directory and
        // session registry). Set-ups spread over the run see the host's
        // speeds as the timed loop does, not only the seconds before it.
        // Within a slice, a closed loop: the next batch goes out when
        // the previous response is back. Verification and the digest
        // stay outside the latency window.
        for (std::size_t slice = 0; slice < kSetupRuns; ++slice) {
            setUp();
            if (slice == 0)
                std::cout
                    << "env workload=" << workloadName(args.workload)
                    << " seed=" << args.seed << " cpu_set="
                    << (cpu >= 0 ? std::to_string(cpu) : "unpinned")
                    << " nproc=" << allowed.size()
                    << " hardware_concurrency="
                    << std::thread::hardware_concurrency()
                    << " pool_parallelism="
                    << hypar::util::ThreadPool::global().parallelism()
                    << " kernels=" << hypar::core::simd::activeKernels().name
                    << " build=" << PERFBENCH_BUILD_TYPE << "\n";
            const double sliceEnd =
                args.seconds * static_cast<double>(slice + 1) / kSetupRuns;
            resetPeakRss();
            const double cpu0 = processCpuSeconds();
            const auto start = Clock::now();
            while (schedule.hasTimedBatch(batches) &&
                   batches < kMaxTimedBatches &&
                   (batches < schedule.digestBatches ||
                    wall + seconds(start, Clock::now()) < sliceEnd)) {
                const Batch &batch = schedule.timedBatch(batches);
                const std::vector<std::string> request = linesOf(batch);
                out.str("");
                const auto t0 = Clock::now();
                server->processBatch(request, out);
                latencyMs[batches] = 1e3 * seconds(t0, Clock::now());
                const std::vector<std::string> responses =
                    splitLines(out.str());
                tally.check(batch, responses, "timed");
                for (const std::string &r : responses) {
                    if (args.trace)
                        keys.push_back(responseKey(r));
                    if (batches < schedule.digestBatches)
                        digestResponses.push_back(r);
                }
                lines += batch.size();
                ++batches;
            }
            wall += seconds(start, Clock::now());
            cpuSeconds += processCpuSeconds() - cpu0;
            rss = std::max(rss, peakRssMiB());
        }
        server.reset();
        latencyMs.resize(batches);
        double serverMs = 0;
        for (const double ms : latencyMs)
            serverMs += ms;
        const double serverRps = 1e3 * static_cast<double>(lines) / serverMs;
        const std::size_t linesPerBatch = schedule.timedBatch(0).size();

        ResultDigest digest;
        for (const std::string &r : digestResponses)
            digest.add(r);
        const std::string digestHex = digest.hex();
        const std::string expected = expectedDigest(args.workload);
        std::cout << "digest " << digestHex << " over " << schedule.digestBatches
                  << " batches\n";
        if (args.seed == kDefaultSeed && digestHex != expected) {
            std::cerr << "perfbench_serve: result digest " << digestHex
                      << " differs from the recorded " << expected << "\n";
            ++tally.failed;
        }

        std::vector<Metric> metrics;
        if (!args.trace) {
            metrics = {
                {"throughput_rps",
                 sustainedRate(latencyMs, schedule.window, linesPerBatch),
                 "1/s"},
                {"latency_p90_ms", quantile(latencyMs, 0.90), "ms"},
                {"peak_rss_mib", rss, "MiB"},
                {"setup_s", quantile(setupSeconds, 0.5), "s"},
            };
        } else {
            fs::remove_all(runDir);
            TraceResult traced = tracedRun(schedule, options, batches, keys,
                                           serverRps, tally, args.spansFile);
            if (traced.mismatches > 0) {
                std::cerr << "perfbench_serve: " << traced.mismatches
                          << " traced responses differ from the server's\n";
                tally.failed += traced.mismatches;
            }
            metrics = std::move(traced.metrics);
        }
        // Reported but not gated (see README.md, "End-to-end metrics").
        std::cout << "samples batches=" << batches << " lines=" << lines
                  << " lines_per_batch=" << linesPerBatch
                  << " seconds=" << wall << " server_rps=" << serverRps
                  << " latency_p50_ms=" << quantile(latencyMs, 0.50)
                  << " setup_runs_s=" << joined(setupSeconds)
                  << " cpu_ms_per_request=" << 1e3 * cpuSeconds / lines
                  << "\n";
        for (const Metric &m : metrics)
            std::cout << "metric " << m.name << " " << m.value << " " << m.unit
                      << "\n";

        std::string json = "{\"correct\": " +
                           std::string(tally.failed == 0 ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(tally.attempted) +
                           ", \"failed\": " + std::to_string(tally.failed) +
                           ", \"metrics\": {";
        for (std::size_t k = 0; k < metrics.size(); ++k)
            json += (k > 0 ? ", \"" : "\"") + metrics[k].name +
                    "\": {\"value\": " + jsonNumber(metrics[k].value) +
                    ", \"unit\": \"" + metrics[k].unit + "\"}";
        json += "}}";
        std::cout << json << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_serve: " << e.what() << "\n";
        status = 1;
    }
    std::error_code ec;
    fs::remove_all(runDir, ec);
    return status;
}
