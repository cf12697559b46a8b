/**
 * @file
 * Tests for the exact joint partitioner: global optimality (equals
 * exhaustive search on tiny instances), dominance over the greedy
 * Algorithm 2, cost-accounting consistency with CommModel, and the
 * search's tables and work counters pinned bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

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

TEST(OptimalPartitioner, IntraTableIsBitIdenticalToIntraCost)
{
    // The level-bit expansion must add the same products in the same
    // level-ascending order as intraCost: compared as bit patterns,
    // over every (layer, state), for pristine, degraded and unscaled
    // models.
    CommConfig degraded;
    degraded.levelPenalties = {1.0, 1.5, 1.0, 4.0, 1.0, 1.0,
                               2.0, 1.0, 1.0, 1.25, 1.0, 3.0};
    CommConfig unscaled;
    unscaled.scaling = CommConfig::Scaling::kNone;
    for (const dnn::Network &net : dnn::allModels()) {
        for (const CommConfig &cfg : {CommConfig{}, degraded, unscaled}) {
            const CommModel model(net, cfg);
            const OptimalPartitioner opt(model);
            for (std::size_t levels = 1; levels <= 12; ++levels) {
                const std::vector<double> intra =
                    core::intraTable(model, levels);
                const std::size_t states = std::size_t{1} << levels;
                ASSERT_EQ(intra.size(), net.size() * states);
                std::size_t mismatches = 0;
                for (std::size_t l = 0; l < net.size(); ++l)
                    for (std::size_t s = 0; s < states; ++s)
                        mismatches +=
                            std::bit_cast<std::uint64_t>(
                                intra[l * states + s]) !=
                            std::bit_cast<std::uint64_t>(opt.intraCost(
                                l, static_cast<std::uint32_t>(s), levels));
                EXPECT_EQ(mismatches, 0u)
                    << net.name() << " H = " << levels;
            }
        }
    }
}

TEST(OptimalPartitioner, SearchCountersMatchRecordedGoldens)
{
    // The search's work counters and exact cost, recorded before the
    // suffix bound's and intra table's sums became level-bit
    // expansions. An exact search with a looser bound still returns
    // the optimum, so only these counters would show it: a bound or
    // table change must leave every one of them unchanged.
    struct Golden
    {
        const char *model;
        std::size_t levels;
        std::uint64_t transitions;
        std::uint64_t expanded;
        std::uint64_t pruned;
        std::size_t width;
        double commBytes;
    };
    const Golden goldens[] = {
        {"VGG-A", 10, 674158u, 757u, 10507u, 330u, 0x1.3ec0f14p+35},
        {"VGG-A", 11, 1467903u, 2962u, 19566u, 780u, 0x1.e2ddf14p+35},
        {"VGG-A", 12, 2962327u, 3499u, 41557u, 1507u, 0x1.630bf8ap+36},
        {"VGG-B", 10, 805232u, 759u, 12553u, 330u, 0x1.49fe214p+35},
        {"VGG-B", 11, 1730049u, 2964u, 23660u, 780u, 0x1.f95b214p+35},
        {"VGG-B", 12, 3486617u, 3501u, 49747u, 1507u, 0x1.798a90ap+36},
        {"VGG-C", 10, 994483u, 585u, 15799u, 120u, 0x1.6a35214p+35},
        {"VGG-C", 11, 2064275u, 2291u, 30477u, 495u, 0x1.179210ap+36},
        {"VGG-C", 12, 4108663u, 3546u, 61990u, 1287u, 0x1.a31810ap+36},
        {"VGG-D", 10, 1008445u, 980u, 15404u, 375u, 0x1.cf51214p+35},
        {"VGG-D", 11, 2176574u, 3819u, 28949u, 787u, 0x1.638710ap+36},
        {"VGG-D", 12, 4371600u, 4801u, 60735u, 1507u, 0x1.06fa085p+37},
        {"VGG-E", 10, 1227441u, 1402u, 18054u, 375u, 0x1.2a5210ap+36},
        {"VGG-E", 11, 2630126u, 5076u, 33836u, 957u, 0x1.ca6090ap+36},
        {"VGG-E", 12, 5594131u, 7606u, 70218u, 1507u, 0x1.512ec85p+37},
    };
    const auto expectGolden = [](const core::HierarchicalResult &r,
                                 const Golden &g) {
        SCOPED_TRACE(std::string(g.model) + " H = " +
                     std::to_string(g.levels));
        EXPECT_EQ(r.transitionsEvaluated, g.transitions);
        EXPECT_EQ(r.stats.expanded, g.expanded);
        EXPECT_EQ(r.stats.pruned, g.pruned);
        EXPECT_EQ(r.stats.widthUsed, g.width);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.commBytes),
                  std::bit_cast<std::uint64_t>(g.commBytes));
    };
    for (const Golden &g : goldens) {
        const dnn::Network net = dnn::modelByName(g.model);
        const CommModel model(net, CommConfig{});
        expectGolden(OptimalPartitioner(model).partition(g.levels), g);
    }

    // A degraded array: per-level penalties reweight every level.
    CommConfig degraded;
    degraded.levelPenalties = {1.0, 1.5, 1.0, 4.0, 1.0, 1.0,
                               2.0, 1.0, 1.0, 1.25, 1.0};
    const dnn::Network net = dnn::makeVggC();
    const CommModel model(net, degraded);
    expectGolden(OptimalPartitioner(model).partition(11),
                 {"VGG-C degraded", 11, 1971761u, 769u, 31999u, 319u,
                  0x1.2afe27p+36});
}
