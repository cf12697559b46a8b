/**
 * @file
 * Randomized equivalence tests for the table-driven searches: the
 * joint A* search (OptimalPartitioner::partition) and the
 * table-driven Algorithm 1 (PairwisePartitioner::partition) must return
 * *bit-identical* costs and plans to the naive seed implementations,
 * which are kept as *Reference oracles, and to the flat enumeration
 * oracles of core/brute_force.hh where those are affordable.
 *
 * "Bit-identical" is EXPECT_EQ on doubles — no ULP tolerance. The
 * optimized paths are constructed to replay the oracles' exact
 * floating-point operation order, and these tests enforce that across
 * 100+ random networks, histories, batch sizes, word widths, exchange
 * factors and scaling modes.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/optimal_partitioner.hh"
#include "core/pairwise_partitioner.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::History;
using core::LevelPlan;
using core::Parallelism;

namespace {

/** Random conv/fc chain with 2..10 weighted layers. */
dnn::Network
randomNetwork(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> convs(0, 2);
    std::uniform_int_distribution<int> fcs(2, 8);
    std::uniform_int_distribution<std::size_t> channels(1, 64);
    std::uniform_int_distribution<std::size_t> widths(1, 512);

    const int num_convs = convs(rng);
    dnn::NetworkBuilder b("rand",
                          num_convs > 0
                              ? dnn::SampleShape{3, 16, 16}
                              : dnn::SampleShape{widths(rng), 1, 1});
    for (int c = 0; c < num_convs; ++c)
        b.conv("conv" + std::to_string(c), channels(rng), 3);
    const int num_fcs = fcs(rng);
    for (int f = 0; f < num_fcs; ++f)
        b.fc("fc" + std::to_string(f), widths(rng));
    return b.build();
}

/** Random chain of exactly `layers` weighted layers (an optional conv
 *  head, then fc layers): short enough for the naive O(L * 4^H * H)
 *  oracle past H = 10. */
dnn::Network
randomShortChain(std::mt19937 &rng, int layers)
{
    std::uniform_int_distribution<std::size_t> channels(1, 64);
    std::uniform_int_distribution<std::size_t> widths(1, 512);
    std::bernoulli_distribution coin(0.5);

    const bool conv_head = coin(rng);
    dnn::NetworkBuilder b("short", conv_head
                                       ? dnn::SampleShape{3, 16, 16}
                                       : dnn::SampleShape{widths(rng), 1, 1});
    int l = 0;
    if (conv_head)
        b.conv("conv" + std::to_string(l++), channels(rng), 3);
    for (; l < layers; ++l)
        b.fc("fc" + std::to_string(l), widths(rng));
    return b.build();
}

CommConfig
randomConfig(std::mt19937 &rng)
{
    std::uniform_int_distribution<std::size_t> batch(1, 512);
    std::uniform_int_distribution<int> word(0, 2);
    std::bernoulli_distribution coin(0.5);

    CommConfig cfg;
    cfg.batch = batch(rng);
    cfg.wordBytes = std::array<double, 3>{1.0, 2.0, 4.0}[word(rng)];
    cfg.exchangeFactor = coin(rng) ? 2.0 : 1.0;
    cfg.scaling = coin(rng) ? CommConfig::Scaling::kPartitioned
                            : CommConfig::Scaling::kNone;
    return cfg;
}

History
randomHistory(std::size_t layers, std::mt19937 &rng)
{
    std::uniform_int_distribution<int> depth(0, 4);
    std::bernoulli_distribution coin(0.5);
    History hist(layers);
    const int d = depth(rng);
    for (int i = 0; i < d; ++i) {
        LevelPlan plan(layers, Parallelism::kData);
        for (auto &p : plan)
            if (coin(rng))
                p = Parallelism::kModel;
        hist.push(plan);
    }
    return hist;
}

} // namespace

TEST(EquivalenceRandom, CommModelTablesMatchReferenceFormulas)
{
    std::mt19937 rng(101);
    for (int trial = 0; trial < 100; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const History hist = randomHistory(net.size(), rng);

        core::PairTables tables;
        model.fillPairTables(hist, tables);

        for (std::size_t l = 0; l < net.size(); ++l) {
            for (auto p : {Parallelism::kData, Parallelism::kModel}) {
                const double cached = model.intraBytes(l, p, hist);
                EXPECT_EQ(cached,
                          model.intraBytesReference(l, p, hist))
                    << "trial " << trial << " layer " << l;
                EXPECT_EQ(cached,
                          tables.intra[2 * l + static_cast<int>(p)]);
            }
            if (l + 1 == net.size())
                continue;
            for (auto prev : {Parallelism::kData, Parallelism::kModel}) {
                for (auto cur :
                     {Parallelism::kData, Parallelism::kModel}) {
                    const double cached =
                        model.interBytes(l, prev, cur, hist);
                    EXPECT_EQ(cached, model.interBytesReference(
                                          l, prev, cur, hist))
                        << "trial " << trial << " layer " << l;
                    EXPECT_EQ(cached,
                              tables.inter[4 * l +
                                           2 * static_cast<int>(prev) +
                                           static_cast<int>(cur)]);
                    // Count-based API agrees exactly too.
                    EXPECT_EQ(cached,
                              model.interBytesAt(l, prev, cur,
                                                 hist.dpCount(l),
                                                 hist.dpCount(l + 1)));
                }
            }
        }
    }
}

TEST(EquivalenceRandom, PairwisePartitionerMatchesReference)
{
    std::mt19937 rng(202);
    for (int trial = 0; trial < 150; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const History hist = randomHistory(net.size(), rng);

        const core::PairwisePartitioner partitioner(model);
        const auto fast = partitioner.partition(hist);
        const auto ref = partitioner.partitionReference(hist);
        EXPECT_EQ(fast.commBytes, ref.commBytes) << "trial " << trial;
        EXPECT_EQ(fast.plan, ref.plan) << "trial " << trial;
    }
}

TEST(EquivalenceRandom, EnumeratorMatchesAlgorithm1)
{
    std::mt19937 rng(303);
    for (int trial = 0; trial < 120; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const History hist = randomHistory(net.size(), rng);

        // The enumerated optimum is exactly what Algorithm 1 finds.
        const auto brute = core::bruteForcePairwise(model, hist);
        const auto dp = core::PairwisePartitioner(model).partition(hist);
        EXPECT_EQ(brute.commBytes, dp.commBytes) << "trial " << trial;
        EXPECT_EQ(brute.plan, dp.plan) << "trial " << trial;
    }
}

TEST(EquivalenceRandom, OptimalPartitionerMatchesReference)
{
    std::mt19937 rng(404);
    std::uniform_int_distribution<std::size_t> levels(1, 4);
    for (int trial = 0; trial < 100; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = levels(rng);
        const auto fast = partitioner.partition(h);
        const auto ref = partitioner.partitionReference(h);
        EXPECT_EQ(fast.commBytes, ref.commBytes)
            << "trial " << trial << " H=" << h;
        EXPECT_EQ(fast.plan, ref.plan) << "trial " << trial << " H=" << h;
    }
}

TEST(EquivalenceRandom, AStarMatchesReferenceAtDepths3To8)
{
    // A* prunes against its admissible suffix bound and must still
    // reproduce the exhaustive reference DP bit for bit across random
    // networks, depths past its H <= 2 hand-off, and model configs.
    std::mt19937 rng(606);
    std::uniform_int_distribution<std::size_t> levels(3, 8);
    for (int trial = 0; trial < 60; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = levels(rng);
        const auto ref = partitioner.partitionReference(h);
        const auto as = partitioner.partition(h);
        EXPECT_EQ(as.commBytes, ref.commBytes)
            << "trial " << trial << " H=" << h;
        EXPECT_EQ(as.plan, ref.plan) << "trial " << trial << " H=" << h;
        EXPECT_TRUE(as.stats.certifiedExact)
            << "trial " << trial << " H=" << h;
    }
}

TEST(EquivalenceRandom, AStarMatchesReferencePastH10)
{
    // Above H = 10 too, the naive joint DP, which shares no table,
    // bound or scan with A*, is the oracle. It costs O(L * 4^H * H),
    // so the chains stay short.
    std::mt19937 rng(909);
    for (const int layers : {2, 3, 4}) {
        const dnn::Network net = randomShortChain(rng, layers);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const auto as = partitioner.partition(11);
        const auto ref = partitioner.partitionReference(11);
        EXPECT_EQ(as.commBytes, ref.commBytes) << "L=" << layers;
        EXPECT_EQ(as.plan, ref.plan) << "L=" << layers;
        EXPECT_TRUE(as.stats.certifiedExact);
    }
}

TEST(EquivalenceRandom, JointDpMatchesReferenceAndFlatOracle)
{
    // The joint search agrees bit for bit with the naive reference DP
    // at H = 2-3 on networks big enough to exercise real pruning, and
    // the reference with exhaustive enumeration where the flat oracle
    // stays cheap (it rescores (2^L)^H plans, ~0.4 s at 21 plan bits).
    std::mt19937 rng(808);
    for (int trial = 0; trial < 25; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = net.size() <= 8 ? 3 : 2;
        const auto ref = partitioner.partitionReference(h);
        const auto exact = partitioner.partition(h);
        EXPECT_EQ(exact.commBytes, ref.commBytes)
            << "trial " << trial << " L=" << net.size() << " H=" << h;
        EXPECT_EQ(exact.plan, ref.plan)
            << "trial " << trial << " L=" << net.size() << " H=" << h;

        if (net.size() * h > 20)
            continue;
        const auto brute = core::bruteForceHierarchical(model, h);
        EXPECT_DOUBLE_EQ(ref.commBytes, brute.commBytes)
            << "trial " << trial << " L=" << net.size() << " H=" << h;
    }
}
