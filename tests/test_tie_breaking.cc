/**
 * @file
 * The library-wide deterministic tie-breaking rule (core/tie_break.hh):
 * on exact cost ties every search prefers the dp-heavier candidate, and
 * all engines — Algorithm 1, the joint DP, the flat enumerator —
 * agree with each other and with themselves across repeated runs and
 * thread schedules.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/optimal_partitioner.hh"
#include "core/pairwise_partitioner.hh"
#include "core/tie_break.hh"
#include "dnn/builder.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::History;
using core::Parallelism;

namespace {

/**
 * A network whose dp and mp intra costs tie *exactly*: one fc layer
 * with fan-in I run at batch B = I makes A(dW) = I*O = A(F^out)/B * B.
 */
dnn::Network
tiedNet()
{
    return dnn::NetworkBuilder("tied", {24, 1, 1}).fc("fc", 7).build();
}

CommConfig
tiedConfig()
{
    CommConfig cfg;
    cfg.batch = 24; // == fan-in => weight bytes == raw output bytes
    return cfg;
}

} // namespace

TEST(TieBreaking, BetterPrefersLowerCostThenLowerIndex)
{
    EXPECT_TRUE(core::better(1.0, 9, 2.0, 0));
    EXPECT_FALSE(core::better(2.0, 0, 1.0, 9));
    EXPECT_TRUE(core::better(1.0, 3, 1.0, 4));
    EXPECT_FALSE(core::better(1.0, 4, 1.0, 3));
    EXPECT_FALSE(core::better(1.0, 3, 1.0, 3));
}

TEST(TieBreaking, ExactTieResolvesTowardDataParallel)
{
    const dnn::Network net = tiedNet();
    const CommModel model(net, tiedConfig());

    // The two single-layer choices cost exactly the same...
    const History empty(1);
    ASSERT_EQ(model.intraBytes(0, Parallelism::kData, empty),
              model.intraBytes(0, Parallelism::kModel, empty));

    // ...and every engine must resolve the tie to dp.
    const auto pairwise = core::PairwisePartitioner(model).partition();
    EXPECT_EQ(pairwise.plan,
              core::LevelPlan{Parallelism::kData});

    const auto brute = core::bruteForcePairwise(model, empty);
    EXPECT_EQ(brute.plan, core::LevelPlan{Parallelism::kData});

    const auto h1 = core::OptimalPartitioner(model).partition(1);
    EXPECT_EQ(h1.plan.levels[0], core::LevelPlan{Parallelism::kData});

    // At H = 3 every level vector containing at least one mp split ties
    // exactly (one full-size exchange plus halved lower levels); the
    // rule picks the numerically smallest tied state, 001 = mp only at
    // the top level, dp below.
    const auto h3 = core::OptimalPartitioner(model).partition(3);
    EXPECT_EQ(h3.plan.levels[0], core::LevelPlan{Parallelism::kModel});
    EXPECT_EQ(h3.plan.levels[1], core::LevelPlan{Parallelism::kData});
    EXPECT_EQ(h3.plan.levels[2], core::LevelPlan{Parallelism::kData});
}

TEST(TieBreaking, EnginesAgreeOnSingleLevelPlans)
{
    // Algorithm 1, the H=1 joint DP and the exhaustive enumerators all
    // optimize the same objective under the same tie-break rule, so
    // their plans must be identical bit for bit.
    std::mt19937 rng(42);
    std::uniform_int_distribution<std::size_t> widths(1, 256);
    std::uniform_int_distribution<int> layers(2, 8);
    for (int trial = 0; trial < 50; ++trial) {
        dnn::NetworkBuilder b("net", {widths(rng), 1, 1});
        const int n = layers(rng);
        for (int l = 0; l < n; ++l)
            b.fc("fc" + std::to_string(l), widths(rng));
        const dnn::Network net = b.build();

        CommConfig cfg;
        cfg.batch = widths(rng);
        const CommModel model(net, cfg);
        const History empty(net.size());

        const auto pairwise =
            core::PairwisePartitioner(model).partition();
        const auto optimal = core::OptimalPartitioner(model).partition(1);
        const auto brute = core::bruteForcePairwise(model, empty);

        EXPECT_EQ(pairwise.plan, optimal.plan.levels[0])
            << "trial " << trial;
        EXPECT_EQ(pairwise.plan, brute.plan) << "trial " << trial;
        EXPECT_EQ(pairwise.commBytes, optimal.commBytes)
            << "trial " << trial;
        EXPECT_EQ(pairwise.commBytes, brute.commBytes)
            << "trial " << trial;
    }
}

TEST(TieBreaking, RepeatedRunsAreDeterministic)
{
    // The optimized DP fans out over the global thread pool; its result
    // must not depend on scheduling.
    dnn::NetworkBuilder b("deep", {64, 1, 1});
    for (int l = 0; l < 12; ++l)
        b.fc("fc" + std::to_string(l), l % 2 ? 512 : 64);
    const dnn::Network net = b.build();
    const CommModel model(net, CommConfig{});
    const core::OptimalPartitioner partitioner(model);

    const auto first = partitioner.partition(6);
    for (int run = 0; run < 5; ++run) {
        const auto again = partitioner.partition(6);
        EXPECT_EQ(first.commBytes, again.commBytes) << "run " << run;
        EXPECT_EQ(first.plan, again.plan) << "run " << run;
    }
}
