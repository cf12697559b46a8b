/**
 * @file
 * Generator tests for the serve-level benchmark: transcripts are a
 * pure function of (workload, seed), cold_plan never repeats a plan
 * request, every throughput window holds the same work, and warm_serve
 * fits the session LRU.
 *
 * Run: ctest --test-dir .bench_build/perfbench
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "serve/canonical.hh"
#include "serve/session.hh"
#include "traced.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

const Workload kAll[] = {Workload::kColdPlan, Workload::kWarmServe};

void
transcriptsAreSeedDeterministic()
{
    for (const Workload w : kAll) {
        const std::string name = workloadName(w);
        const std::string a = transcript(makeSchedule(w, 7));
        expect(a == transcript(makeSchedule(w, 7)),
               name + ": same seed, different transcript");
        expect(a != transcript(makeSchedule(w, 8)),
               name + ": different seeds, same transcript");
        expect(workloadFromName(name) == w, name + ": name round trip");
    }
}

template <typename Fn>
void
forEachRequest(const Schedule &s, bool timedOnly, Fn fn)
{
    if (!timedOnly)
        for (const Batch &b : s.warmup)
            for (const Request &r : b)
                fn(r);
    for (const Batch &b : s.timed)
        for (const Request &r : b)
            fn(r);
}

void
coldPlanHashesAreDistinct()
{
    const Schedule s = makeSchedule(Workload::kColdPlan, kDefaultSeed);
    std::set<std::string> hashes;
    std::size_t plans = 0;
    forEachRequest(s, false, [&](const Request &r) {
        if (r.op != "plan")
            return;
        ParsedRequest req;
        parseRequest(r.line, req);
        hashes.insert(hypar::serve::planHash(buildNetwork(req),
                                             buildConfig(req), req.strategy,
                                             {}));
        ++plans;
        expect(r.cache == "miss", "cold_plan request expects a hit: " +
                                      r.line);
    });
    expect(plans > 1000, "cold_plan has too few plan requests");
    expect(hashes.size() == plans, "cold_plan repeats a plan_hash");
    expect(!s.cyclic, "cold_plan must not replay its timed stream");
}

/** Every aligned window of Schedule::window timed batches holds the
 *  same mix of work (throughput_rps compares windows' rates): the same
 *  lines per op, and for cold_plan every model x depth once. */
void
windowsHoldEqualWork()
{
    for (const Workload w : kAll) {
        const std::string name = workloadName(w);
        const Schedule s = makeSchedule(w, kDefaultSeed);
        expect(s.window > 0 && s.window <= s.timed.size(),
               name + ": bad window");
        std::map<std::string, std::size_t> first;
        for (std::size_t b0 = 0; b0 + s.window <= s.timed.size();
             b0 += s.window) {
            std::map<std::string, std::size_t> mix;
            for (std::size_t b = b0; b < b0 + s.window; ++b)
                for (const Request &r : s.timed[b]) {
                    std::string key = r.op;
                    if (w == Workload::kColdPlan) {
                        ParsedRequest req;
                        parseRequest(r.line, req);
                        key += " " + req.model + " " +
                               std::to_string(req.levels);
                    }
                    ++mix[key];
                }
            if (b0 == 0)
                first = mix;
            expect(mix == first, name + ": the window at timed batch " +
                                     std::to_string(b0) +
                                     " holds a different mix");
        }
    }
}

void
warmServeFitsTheSessionLru()
{
    for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{42}}) {
        const Schedule s = makeSchedule(Workload::kWarmServe, seed);
        std::set<std::string> contexts;
        std::size_t lines = s.timed.front().size();
        forEachRequest(s, true, [&](const Request &r) {
            if (r.op == "stats")
                return;
            ParsedRequest req;
            parseRequest(r.line, req);
            contexts.insert(hypar::serve::contextHash(buildNetwork(req),
                                                      buildConfig(req)));
            if (r.op == "plan")
                expect(r.cache == "hit", "warm_serve plan expects a miss");
        });
        expect(contexts.size() <=
                   hypar::serve::SessionRegistry::kDefaultCapacity,
               "warm_serve working set exceeds the session LRU: " +
                   std::to_string(contexts.size()));
        for (const Batch &b : s.timed)
            expect(b.size() == lines, "warm_serve batch sizes differ");
    }
}

} // namespace

int
main()
{
    transcriptsAreSeedDeterministic();
    coldPlanHashesAreDistinct();
    windowsHoldEqualWork();
    warmServeFitsTheSessionLru();
    if (failures == 0)
        std::cout << "perfbench_test_workloads: all checks passed\n";
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
