/**
 * @file
 * Tests for the exact joint partitioner: global optimality (equals
 * exhaustive search on tiny instances), dominance over the greedy
 * Algorithm 2, and cost-accounting consistency with CommModel.
 */

#include <gtest/gtest.h>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "util/logging.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::HierarchicalPartitioner;
using core::OptimalPartitioner;

namespace {

/** Eight alternating fc layers: long enough for the bound to prune,
 *  short enough for the reference DP at H = 10 (about a second). */
dnn::Network
deep8()
{
    dnn::NetworkBuilder b("deep8", {256, 1, 1});
    for (int l = 0; l < 8; ++l)
        b.fc("fc" + std::to_string(l), l % 2 ? 512 : 128);
    return b.build();
}

} // namespace

TEST(OptimalPartitioner, MatchesExhaustiveSearchOnTinyNets)
{
    const std::vector<dnn::Network> nets = {
        dnn::NetworkBuilder("t1", {128, 1, 1})
            .fc("a", 512)
            .fc("b", 64)
            .build(),
        dnn::NetworkBuilder("t2", {20, 12, 12})
            .conv("a", 50, 5)
            .fc("b", 10)
            .build(),
    };
    for (const auto &net : nets) {
        CommConfig cfg;
        cfg.batch = 32;
        CommModel model(net, cfg);
        for (std::size_t levels : {1u, 2u, 3u}) {
            const auto brute =
                core::bruteForceHierarchical(model, levels);
            const OptimalPartitioner opt(model);
            const auto exact = opt.partition(levels);
            const auto reference = opt.partitionReference(levels);
            EXPECT_DOUBLE_EQ(exact.commBytes, brute.commBytes)
                << net.name() << " H=" << levels;
            EXPECT_EQ(exact.commBytes, reference.commBytes)
                << net.name() << " H=" << levels;
            EXPECT_EQ(exact.plan, reference.plan)
                << net.name() << " H=" << levels;
        }
    }
}

TEST(OptimalPartitioner, AStarBitIdenticalToReferenceAtH10)
{
    // A* must reproduce the exhaustive reference DP bit for bit at
    // H = 10, with far fewer relaxations than its 4^H * (L-1).
    const dnn::Network net = deep8();
    CommModel model(net, CommConfig{});
    OptimalPartitioner opt(model);

    const auto reference = opt.partitionReference(10);
    const auto as = opt.partition(10);
    EXPECT_EQ(as.commBytes, reference.commBytes);
    EXPECT_EQ(as.plan, reference.plan);
    EXPECT_TRUE(as.stats.certifiedExact);
    // The suffix bound must actually prune: every node is either
    // expanded or pruned, and a healthy bound kills most of them.
    EXPECT_EQ(as.stats.expanded + as.stats.pruned,
              std::uint64_t{1 << 10} * model.numLayers());
    EXPECT_GT(as.stats.pruned, 0u);
    const std::uint64_t exhaustive =
        (std::uint64_t{1} << 20) * (model.numLayers() - 1);
    EXPECT_EQ(reference.transitionsEvaluated, exhaustive);
    EXPECT_LT(as.transitionsEvaluated, exhaustive);
}

TEST(OptimalPartitioner, AStarPrunesPastH10)
{
    // Exactness at these depths is pinned against the naive DP in
    // test_equivalence_random; here the search must certify, stay
    // deterministic and skip most of the 4^H * (L-1) relaxations.
    const dnn::Network net = deep8();
    CommModel model(net, CommConfig{});
    OptimalPartitioner opt(model);

    const auto exact = opt.partition(12);
    EXPECT_TRUE(exact.stats.certifiedExact);
    EXPECT_LT(exact.transitionsEvaluated,
              (std::uint64_t{1} << 24) * (model.numLayers() - 1));
    const auto again = opt.partition(12);
    EXPECT_EQ(again.commBytes, exact.commBytes);
    EXPECT_EQ(again.plan, exact.plan);
    EXPECT_EQ(again.transitionsEvaluated, exact.transitionsEvaluated);
    EXPECT_EQ(again.stats.expanded, exact.stats.expanded);
    EXPECT_EQ(again.stats.pruned, exact.stats.pruned);
    EXPECT_EQ(again.stats.widthUsed, exact.stats.widthUsed);
}

TEST(OptimalPartitioner, CostEqualsPlanReplay)
{
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto exact = OptimalPartitioner(model).partition(4);
        EXPECT_NEAR(exact.commBytes, model.planBytes(exact.plan),
                    1e-6 * std::max(1.0, exact.commBytes))
            << net.name();
    }
}

TEST(OptimalPartitioner, NeverWorseThanGreedyAlgorithm2)
{
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        for (std::size_t levels : {1u, 2u, 4u, 6u}) {
            const auto exact =
                OptimalPartitioner(model).partition(levels);
            const auto greedy =
                HierarchicalPartitioner(model).partition(levels);
            EXPECT_LE(exact.commBytes,
                      greedy.commBytes * (1 + 1e-12))
                << net.name() << " H=" << levels;
        }
    }
}

TEST(OptimalPartitioner, GreedyGapIsSmallOnTheZoo)
{
    // Empirical claim backing the paper's greedy design: the exact
    // optimum buys at most a few percent over Algorithm 2 on real
    // networks.
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto exact = OptimalPartitioner(model).partition(4);
        const auto greedy = HierarchicalPartitioner(model).partition(4);
        EXPECT_GE(exact.commBytes, 0.90 * greedy.commBytes)
            << net.name();
    }
}

TEST(OptimalPartitioner, SingleLevelEqualsAlgorithm1)
{
    // With one level there is nothing to be greedy about: both
    // partitioners solve the same chain problem exactly.
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto exact = OptimalPartitioner(model).partition(1);
        const auto greedy = HierarchicalPartitioner(model).partition(1);
        EXPECT_DOUBLE_EQ(exact.commBytes, greedy.commBytes)
            << net.name();
    }
}

TEST(OptimalPartitioner, ZeroLevels)
{
    dnn::Network net = dnn::makeLenetC();
    CommModel model(net, CommConfig{});
    const auto result = OptimalPartitioner(model).partition(0);
    EXPECT_DOUBLE_EQ(result.commBytes, 0.0);
    EXPECT_EQ(result.plan.numLevels(), 0u);
}

TEST(OptimalPartitioner, IntraCostMatchesManualExpansion)
{
    // fc 70->100, B=32: level vector "dp then mp" (bit0=0, bit1=1).
    dnn::Network net = dnn::NetworkBuilder("fc", {70, 1, 1})
                           .fc("fc", 100)
                           .build();
    CommConfig cfg;
    cfg.batch = 32;
    CommModel model(net, cfg);
    OptimalPartitioner opt(model);

    // Level 0 dp: 2*70*100*4 = 56000. Level 1 mp beneath one dp:
    // batch halved -> 2*16*100*4 = 12800, weighted by 2 pairs.
    EXPECT_DOUBLE_EQ(opt.intraCost(0, 0b10, 2),
                     56000.0 + 2.0 * 12800.0);
    // All-dp over 2 levels: gradients unscaled at both levels.
    EXPECT_DOUBLE_EQ(opt.intraCost(0, 0b00, 2), 56000.0 * 3.0);
}

TEST(OptimalPartitioner, SearchStatsAreDeterministicAndConsistent)
{
    const dnn::Network net = dnn::makeAlexNet();
    CommModel model(net, CommConfig{});
    OptimalPartitioner opt(model);
    const std::size_t levels = 6;
    const std::uint64_t states = 1u << levels;
    const std::uint64_t nodes = states * net.size();

    // The exhaustive reference relaxes every transition and skips
    // nothing.
    const auto reference = opt.partitionReference(levels);
    EXPECT_TRUE(reference.stats.certifiedExact);
    EXPECT_EQ(reference.stats.expanded, nodes);
    EXPECT_EQ(reference.stats.pruned, 0u);
    EXPECT_EQ(reference.stats.widthUsed, states);
    EXPECT_EQ(reference.transitionsEvaluated,
              states * states * (net.size() - 1));
    // partition() hands H <= 2 to the reference, counters included.
    const auto shallow = opt.partition(2);
    EXPECT_EQ(shallow.transitionsEvaluated, 16u * (net.size() - 1));
    EXPECT_EQ(shallow.stats.expanded, 4u * net.size());

    const auto astar = opt.partition(levels);
    EXPECT_TRUE(astar.stats.certifiedExact);
    EXPECT_EQ(astar.stats.expanded + astar.stats.pruned, nodes);
    EXPECT_GE(astar.stats.widthUsed, 1u);
    EXPECT_LE(astar.stats.widthUsed, states);
    // Stats are deterministic: a second identical search agrees.
    const auto again = opt.partition(levels);
    EXPECT_EQ(again.stats.expanded, astar.stats.expanded);
    EXPECT_EQ(again.stats.pruned, astar.stats.pruned);
    EXPECT_EQ(again.stats.widthUsed, astar.stats.widthUsed);
    EXPECT_EQ(again.transitionsEvaluated, astar.transitionsEvaluated);

    // The greedy Algorithm 2 carries no certificate.
    const auto greedy = HierarchicalPartitioner(model).partition(levels);
    EXPECT_FALSE(greedy.stats.certifiedExact);
}

TEST(OptimalPartitioner, RejectsAbsurdDepth)
{
    dnn::Network net = dnn::makeLenetC();
    CommModel model(net, CommConfig{});
    const OptimalPartitioner opt(model);

    // Past the old 4^H ceiling of H = 10 the search still answers...
    EXPECT_NO_THROW((void)opt.partition(11));

    // ...and both the search and the reference oracle stop at H = 16.
    EXPECT_THROW((void)opt.partition(17), util::FatalError);
    EXPECT_THROW((void)opt.partitionReference(17), util::FatalError);
}
