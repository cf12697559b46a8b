/**
 * @file
 * Golden tests against the absolute numbers printed in the paper.
 * These pin the model interpretation documented in docs/ARCHITECTURE.md,
 * "Model interpretation":
 *
 *  - Fig. 8 Data Parallelism column: total communication of the all-dp
 *    plan on 16 accelerators equals (2^4 - 1) * 2 * 4B * params, which
 *    reproduces SFC 16.9 GB, Lenet-c 0.0517 GB, VGG-A 15.9 GB and
 *    VGG-B 16.0 GB to three significant digits.
 *  - Fig. 5(a): HyPar turns SFC's fc1 to data parallelism at H3 (and
 *    only there); every other (layer, level) stays model parallel.
 *  - Fig. 5(b): SCONV is data parallel everywhere, so HyPar's total
 *    communication equals Data Parallelism's (Fig. 8: 0.0121 GB both).
 */

#include <gtest/gtest.h>

#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/model_zoo.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::Parallelism;

namespace {

/** Paper setup: batch 256, fp32, H = 4 (sixteen accelerators). */
constexpr std::size_t kLevels = 4;

double
dataParallelBytes(const dnn::Network &net)
{
    CommModel model(net, CommConfig{});
    const auto plan = core::makeDataParallelPlan(net, kLevels);
    return model.planBytes(plan);
}

} // namespace

TEST(PaperNumbers, Fig8DataParallelSfc)
{
    // Paper: 16.9 GB.
    const double gb = dataParallelBytes(dnn::makeSfc()) / 1e9;
    EXPECT_NEAR(gb, 16.9, 0.05);
}

TEST(PaperNumbers, Fig8DataParallelLenet)
{
    // Paper: 0.0517 GB.
    const double gb = dataParallelBytes(dnn::makeLenetC()) / 1e9;
    EXPECT_NEAR(gb, 0.0517, 0.0002);
}

TEST(PaperNumbers, Fig8DataParallelVggA)
{
    // Paper: 15.9 GB.
    const double gb = dataParallelBytes(dnn::makeVggA()) / 1e9;
    EXPECT_NEAR(gb, 15.9, 0.1);
}

TEST(PaperNumbers, Fig8DataParallelVggB)
{
    // Paper: 16.0 GB.
    const double gb = dataParallelBytes(dnn::makeVggB()) / 1e9;
    EXPECT_NEAR(gb, 16.0, 0.1);
}

TEST(PaperNumbers, DataParallelClosedForm)
{
    // All-dp communication is exactly (2^H - 1) * 2 * wordBytes * params
    // for any network: gradients are exchanged whole at every level.
    for (const auto &net : dnn::allModels()) {
        const double expect = 15.0 * 2.0 * 4.0 *
                              static_cast<double>(net.totalParamElems());
        EXPECT_DOUBLE_EQ(dataParallelBytes(net), expect) << net.name();
    }
}

TEST(PaperNumbers, Fig5aSfcFc1FlipsToDpAtH3Only)
{
    dnn::Network sfc = dnn::makeSfc();
    CommModel model(sfc, CommConfig{});
    const auto result =
        core::HierarchicalPartitioner(model).partition(kLevels);

    ASSERT_EQ(result.plan.numLevels(), kLevels);
    ASSERT_EQ(result.plan.numLayers(), 4u);

    for (std::size_t h = 0; h < kLevels; ++h) {
        for (std::size_t l = 0; l < 4; ++l) {
            const bool is_fc1_h3 = (h == 2 && l == 0);
            const Parallelism expect =
                is_fc1_h3 ? Parallelism::kData : Parallelism::kModel;
            EXPECT_EQ(result.plan.levels[h][l], expect)
                << "layer " << l << " level H" << (h + 1);
        }
    }
}

TEST(PaperNumbers, Fig5bSconvAllDataParallel)
{
    dnn::Network sconv = dnn::makeSconv();
    CommModel model(sconv, CommConfig{});
    const auto result =
        core::HierarchicalPartitioner(model).partition(kLevels);

    for (const auto &level : result.plan.levels)
        for (Parallelism p : level)
            EXPECT_EQ(p, Parallelism::kData);

    // Fig. 8: SCONV's HyPar communication equals Data Parallelism's.
    EXPECT_DOUBLE_EQ(result.commBytes, dataParallelBytes(sconv));
}

TEST(PaperNumbers, Fig5LargeNetsConvDpFcMpAtTopLevel)
{
    // Section 6.2.1: for the large-scale networks the convolutional
    // layers are usually data parallel and the fully-connected layers
    // model parallel. At the top hierarchy level this holds exactly.
    for (const auto &name : {"AlexNet", "VGG-A", "VGG-E"}) {
        dnn::Network net = dnn::modelByName(name);
        CommModel model(net, CommConfig{});
        const auto result =
            core::HierarchicalPartitioner(model).partition(kLevels);
        for (std::size_t l = 0; l < net.size(); ++l) {
            const Parallelism expect = net.layer(l).isConv()
                                           ? Parallelism::kData
                                           : Parallelism::kModel;
            EXPECT_EQ(result.plan.levels[0][l], expect)
                << name << " layer " << net.layer(l).name;
        }
    }
}

TEST(PaperNumbers, HyparBeatsOrMatchesDefaultsEverywhere)
{
    // Section 6.2.4's headline: HyPar's total communication is never
    // worse than default Data or Model Parallelism on any of the ten
    // networks (equality only for SCONV vs DP).
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto hypar =
            core::HierarchicalPartitioner(model).partition(kLevels);
        const double dp = model.planBytes(
            core::makeDataParallelPlan(net, kLevels));
        const double mp = model.planBytes(
            core::makeModelParallelPlan(net, kLevels));
        EXPECT_LE(hypar.commBytes, dp) << net.name();
        EXPECT_LE(hypar.commBytes, mp) << net.name();
    }
}

TEST(PaperNumbers, HyparBeatsOrMatchesOneWeirdTrick)
{
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto hypar =
            core::HierarchicalPartitioner(model).partition(kLevels);
        const double owt = model.planBytes(
            core::makeOneWeirdTrickPlan(net, kLevels));
        EXPECT_LE(hypar.commBytes, owt) << net.name();
    }
}

TEST(PaperNumbers, ModelParallelWorstForConvNets)
{
    // Section 6.2.4: MP communication is roughly an order of magnitude
    // above DP for the conv-heavy ImageNet networks...
    for (const auto &name : {"AlexNet", "VGG-A", "VGG-E"}) {
        dnn::Network net = dnn::modelByName(name);
        CommModel model(net, CommConfig{});
        const double dp = model.planBytes(
            core::makeDataParallelPlan(net, kLevels));
        const double mp = model.planBytes(
            core::makeModelParallelPlan(net, kLevels));
        EXPECT_GT(mp, 2.0 * dp) << name;
    }

    // ...but *lower* than DP for the all-fc extreme case SFC.
    dnn::Network sfc = dnn::makeSfc();
    CommModel model(sfc, CommConfig{});
    EXPECT_LT(model.planBytes(core::makeModelParallelPlan(sfc, kLevels)),
              model.planBytes(core::makeDataParallelPlan(sfc, kLevels)));
}

TEST(PaperNumbers, ZooParameterCounts)
{
    // Reference parameter counts (no biases, Section 2 conventions).
    EXPECT_EQ(dnn::makeSfc().totalParamElems(), 140722176u);
    EXPECT_EQ(dnn::makeLenetC().totalParamElems(), 430500u);
    EXPECT_EQ(dnn::makeVggA().totalParamElems(), 132851392u);
    EXPECT_EQ(dnn::makeVggB().totalParamElems(), 133035712u);
    EXPECT_EQ(dnn::makeVggD().totalParamElems(), 138344128u);
    EXPECT_EQ(dnn::makeVggE().totalParamElems(), 143652544u);
}
