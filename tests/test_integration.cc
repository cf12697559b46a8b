/**
 * @file
 * End-to-end integration tests: the full pipeline (model zoo ->
 * communication model -> Algorithm 2 -> training-step simulation, the
 * two-tape replay of the paper's event-driven model -> figures'
 * aggregate claims) exercised exactly the way the benchmark harness
 * drives it.
 */

#include <gtest/gtest.h>

#include "core/brute_force.hh"
#include "core/hierarchical_partitioner.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "sim/evaluator.hh"
#include "util/stats.hh"

using namespace hypar;

TEST(Integration, Figure6ShapeAcrossTheZoo)
{
    // Fig. 6's qualitative content: HyPar >= DP for every network;
    // MP < DP for all conv networks but > DP for SFC; the geometric
    // mean HyPar speedup is well above 1.
    std::vector<double> hypar_gains;
    for (const auto &net : dnn::allModels()) {
        const auto report = sim::compareStrategies(net, sim::SimConfig{});
        EXPECT_GE(report.hyparSpeedup(), 1.0 - 1e-9) << net.name();
        hypar_gains.push_back(report.hyparSpeedup());

        if (net.name() == "SFC") {
            EXPECT_GT(report.mpSpeedup(), 1.0);
        } else if (net.hasConv()) {
            EXPECT_LT(report.mpSpeedup(), 1.0) << net.name();
        }
    }
    EXPECT_GT(util::geomean(hypar_gains), 1.5);
}

TEST(Integration, Figure7EnergyShape)
{
    // Fig. 7: HyPar's energy efficiency >= 1 vs DP everywhere, and the
    // mean improvement is materially above 1.
    std::vector<double> effs;
    for (const auto &net : dnn::allModels()) {
        const auto report = sim::compareStrategies(net, sim::SimConfig{});
        EXPECT_GE(report.hyparEnergyEff(), 1.0 - 1e-9) << net.name();
        effs.push_back(report.hyparEnergyEff());
    }
    EXPECT_GT(util::geomean(effs), 1.1);
}

TEST(Integration, Figure11ScalabilityShape)
{
    // Fig. 11: HyPar beats DP at every array size, and DP's gain curve
    // flattens or declines at large arrays while HyPar keeps growing
    // far longer.
    dnn::Network vgg_a = dnn::makeVggA();

    sim::SimConfig solo;
    solo.levels = 0;
    const double t1 =
        sim::Evaluator(vgg_a, solo)
            .evaluate(core::Strategy::kDataParallel)
            .stepSeconds;

    std::vector<double> dp_gain, hp_gain;
    for (std::size_t levels = 1; levels <= 6; ++levels) {
        sim::SimConfig cfg;
        cfg.levels = levels;
        sim::Evaluator ev(vgg_a, cfg);
        dp_gain.push_back(
            t1 / ev.evaluate(core::Strategy::kDataParallel).stepSeconds);
        hp_gain.push_back(
            t1 / ev.evaluate(core::Strategy::kHypar).stepSeconds);
    }

    for (std::size_t i = 0; i < dp_gain.size(); ++i)
        EXPECT_GT(hp_gain[i], dp_gain[i]) << "levels " << (i + 1);

    // DP saturates: the 64-accelerator gain is no better than ~1.15x
    // its 16-accelerator gain, while HyPar still improves markedly.
    EXPECT_LT(dp_gain[5], dp_gain[3] * 1.15);
    EXPECT_GT(hp_gain[5], hp_gain[3] * 1.3);
}

TEST(Integration, Figure13HyparVsTrickOnIsolatedLayers)
{
    // Section 6.5.2's setup: single layers conv5 / fc3 of VGG-E under
    // batch 32 and 4096, hierarchy levels 2..4. HyPar must never lose
    // to the Trick, and must strictly beat it for fc3@b4096 (the case
    // the paper dissects: A(dW) == A(F), so dp's free dp-dp transition
    // should win, but the Trick hard-codes mp).
    dnn::Network conv5 = dnn::NetworkBuilder("conv5", {512, 14, 14})
                             .conv("conv5", 512, 3).pad(1)
                             .build();
    dnn::Network fc3 = dnn::NetworkBuilder("fc3", {4096, 1, 1})
                           .fc("fc3", 1000)
                           .build();

    for (std::size_t levels : {2u, 3u, 4u}) {
        for (std::size_t batch : {32u, 4096u}) {
            for (const auto *net : {&conv5, &fc3}) {
                sim::SimConfig cfg;
                cfg.levels = levels;
                cfg.comm.batch = batch;
                sim::Evaluator ev(*net, cfg);
                const auto trick =
                    ev.evaluate(core::Strategy::kOneWeirdTrick);
                const auto hypar = ev.evaluate(core::Strategy::kHypar);
                EXPECT_LE(hypar.stepSeconds,
                          trick.stepSeconds * (1 + 1e-9))
                    << net->name() << " b" << batch << " h" << levels;
            }
        }
    }

    sim::SimConfig cfg;
    cfg.levels = 4;
    cfg.comm.batch = 4096;
    sim::Evaluator ev(fc3, cfg);
    EXPECT_LT(ev.evaluate(core::Strategy::kHypar).stepSeconds,
              ev.evaluate(core::Strategy::kOneWeirdTrick).stepSeconds);
}

TEST(Integration, Fig9SweepPeakNearHyparForLenet)
{
    // Fig. 9/10: sweeping H1 and H4 of Lenet-c (H2/H3 fixed at HyPar's
    // choice), HyPar lands essentially at the performance peak. As in
    // the paper's own Fig. 10 (5.05x peak vs 4.97x HyPar), HyPar
    // optimizes total communication as a *proxy* for performance, so a
    // small gap to the swept optimum is expected; we bound it at 5%.
    dnn::Network lenet = dnn::makeLenetC();
    sim::SimConfig cfg;
    sim::Evaluator ev(lenet, cfg);
    const auto hypar_plan = ev.plan(core::Strategy::kHypar);
    const double hypar_time = ev.evaluate(hypar_plan).stepSeconds;

    double best_time = 1e100;
    core::sweepLevelMasks(
        hypar_plan, 0, [&](std::uint64_t, const auto &outer) {
            core::sweepLevelMasks(
                outer, 3, [&](std::uint64_t, const auto &plan) {
                    best_time =
                        std::min(best_time, ev.evaluate(plan).stepSeconds);
                });
        });

    EXPECT_LE(best_time, hypar_time * (1 + 1e-9)); // peak can't be worse
    EXPECT_LE(hypar_time, best_time * 1.05);       // ...but HyPar is close

    // And HyPar still clearly beats the default Data Parallelism.
    const double dp_time =
        ev.evaluate(core::Strategy::kDataParallel).stepSeconds;
    EXPECT_LT(hypar_time, dp_time);
}

TEST(Integration, BruteForceGlobalOptimumWithinReachOfGreedy)
{
    // On a small network where the full (2^L)^H space is enumerable,
    // the greedy hierarchical search lands within 5% of the global
    // optimum's communication (it is exactly optimal per level).
    dnn::Network lenet = dnn::makeLenetC();
    core::CommModel model(lenet, core::CommConfig{});
    const auto greedy =
        core::HierarchicalPartitioner(model).partition(3);
    const auto global = core::bruteForceHierarchical(model, 3);
    EXPECT_LE(global.commBytes, greedy.commBytes * (1 + 1e-12));
    EXPECT_LE(greedy.commBytes, global.commBytes * 1.05);
}
