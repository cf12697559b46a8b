/**
 * @file
 * Parameterized property suites (TEST_P) sweeping the model zoo,
 * hierarchy depths, batch sizes and scaling policies: the invariants
 * listed in docs/ARCHITECTURE.md, "Property suites", checked across the
 * whole configuration space.
 */

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "sim/evaluator.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::HierarchicalPartitioner;
using core::Parallelism;

// ---------------------------------------------------------------------
// Property: HyPar never loses to the uniform baselines, for any model,
// depth and batch size.
// ---------------------------------------------------------------------

using NetDepthBatch = std::tuple<std::string, std::size_t, std::size_t>;

class HyparDominance : public ::testing::TestWithParam<NetDepthBatch>
{};

TEST_P(HyparDominance, CommAtMostUniformBaselines)
{
    const auto &[name, levels, batch] = GetParam();
    dnn::Network net = dnn::modelByName(name);
    CommConfig cfg;
    cfg.batch = batch;
    CommModel model(net, cfg);

    const auto hypar = HierarchicalPartitioner(model).partition(levels);
    EXPECT_LE(hypar.commBytes,
              model.planBytes(core::makeDataParallelPlan(net, levels)));
    EXPECT_LE(hypar.commBytes,
              model.planBytes(core::makeModelParallelPlan(net, levels)));
    EXPECT_LE(hypar.commBytes,
              model.planBytes(core::makeOneWeirdTrickPlan(net, levels)));
}

TEST_P(HyparDominance, PlanShapeIsConsistent)
{
    const auto &[name, levels, batch] = GetParam();
    dnn::Network net = dnn::modelByName(name);
    CommConfig cfg;
    cfg.batch = batch;
    CommModel model(net, cfg);

    const auto result = HierarchicalPartitioner(model).partition(levels);
    EXPECT_EQ(result.plan.numLevels(), levels);
    EXPECT_EQ(result.plan.numLayers(), net.size());
    EXPECT_NO_THROW(core::validatePlan(result.plan, net));
    EXPECT_GE(result.commBytes, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, HyparDominance,
    ::testing::Combine(
        ::testing::Values("SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet",
                          "VGG-A", "VGG-E"),
        ::testing::Values(1u, 2u, 3u, 4u, 6u),
        ::testing::Values(32u, 256u, 4096u)),
    [](const auto &info) {
        auto name = std::get<0>(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name + "_H" + std::to_string(std::get<1>(info.param)) +
               "_B" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Property: Algorithm 1 is exactly optimal on random networks across
// batch sizes (checked against exhaustive enumeration).
// ---------------------------------------------------------------------

class PairwiseOptimality
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t>>
{};

TEST_P(PairwiseOptimality, MatchesBruteForce)
{
    const auto &[seed, batch] = GetParam();
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> width(4, 512);
    std::uniform_int_distribution<int> coin(0, 1);

    // Mixed conv/fc random network: conv prefix, fc suffix.
    dnn::NetworkBuilder b("rand", {3, 32, 32});
    const int convs = 1 + coin(rng) + coin(rng);
    for (int i = 0; i < convs; ++i)
        b.conv("c" + std::to_string(i), 8 + 8 * static_cast<std::size_t>(
                                                 coin(rng)), 3).pad(1);
    const int fcs = 1 + coin(rng) + coin(rng);
    for (int i = 0; i < fcs; ++i)
        b.fc("f" + std::to_string(i), width(rng));
    dnn::Network net = b.build();

    CommConfig cfg;
    cfg.batch = batch;
    CommModel model(net, cfg);
    core::History hist(net.size());
    const auto dp = core::PairwisePartitioner(model).partition(hist);
    const auto bf = core::bruteForcePairwise(model, hist);
    EXPECT_DOUBLE_EQ(dp.commBytes, bf.commBytes);
}

INSTANTIATE_TEST_SUITE_P(
    RandomNets, PairwiseOptimality,
    ::testing::Combine(::testing::Range(std::uint32_t{1},
                                        std::uint32_t{16}),
                       ::testing::Values(16u, 256u)));

// ---------------------------------------------------------------------
// Property: communication is monotone in batch size for feature-bound
// plans and invariant for gradient-bound plans.
// ---------------------------------------------------------------------

class BatchMonotonicity : public ::testing::TestWithParam<std::string>
{};

TEST_P(BatchMonotonicity, DpCommBatchInvariantMpCommGrows)
{
    dnn::Network net = dnn::modelByName(GetParam());
    CommConfig small;
    small.batch = 32;
    CommConfig big;
    big.batch = 512;
    CommModel m_small(net, small);
    CommModel m_big(net, big);

    const auto dp = core::makeDataParallelPlan(net, 4);
    const auto mp = core::makeModelParallelPlan(net, 4);

    // dp exchanges gradients only: batch independent.
    EXPECT_DOUBLE_EQ(m_small.planBytes(dp), m_big.planBytes(dp));
    // mp exchanges activations/errors: strictly growing with batch.
    EXPECT_LT(m_small.planBytes(mp), m_big.planBytes(mp));
}

INSTANTIATE_TEST_SUITE_P(Zoo, BatchMonotonicity,
                         ::testing::Values("SFC", "Lenet-c", "AlexNet",
                                           "VGG-A"),
                         [](const auto &info) {
                             auto name = info.param;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// ---------------------------------------------------------------------
// Property: simulated communication equals the analytic model for every
// strategy / depth combination (simulator conservation law).
// ---------------------------------------------------------------------

using StrategyDepth = std::tuple<std::string, std::size_t>;

class SimulatorConservation
    : public ::testing::TestWithParam<StrategyDepth>
{};

TEST_P(SimulatorConservation, CommBytesMatchAnalytic)
{
    const auto &[name, levels] = GetParam();
    dnn::Network net = dnn::modelByName(name);
    sim::SimConfig cfg;
    cfg.levels = levels;
    sim::Evaluator ev(net, cfg);

    for (auto strategy :
         {core::Strategy::kDataParallel, core::Strategy::kModelParallel,
          core::Strategy::kHypar}) {
        const auto plan = ev.plan(strategy);
        const auto metrics = ev.evaluate(plan);
        EXPECT_NEAR(metrics.commBytes, ev.commBytes(plan),
                    1e-6 * std::max(1.0, metrics.commBytes))
            << core::toString(strategy);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ZooDepths, SimulatorConservation,
    ::testing::Combine(::testing::Values("SFC", "Lenet-c", "AlexNet",
                                         "VGG-A"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto &info) {
        auto name = std::get<0>(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name + "_H" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Property: the all-dp closed form holds for every depth.
// ---------------------------------------------------------------------

class DpClosedForm : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(DpClosedForm, TotalIsTwoPowHMinusOneTimesGradients)
{
    const std::size_t levels = GetParam();
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const double expect =
            (std::pow(2.0, static_cast<double>(levels)) - 1.0) * 2.0 *
            4.0 * static_cast<double>(net.totalParamElems());
        EXPECT_DOUBLE_EQ(
            model.planBytes(core::makeDataParallelPlan(net, levels)),
            expect)
            << net.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, DpClosedForm,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u));
