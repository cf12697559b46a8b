/**
 * @file
 * Differential net for the DAG generalization. Three invariants:
 *
 *  1. *Randomized DAG exactness*: on seed-deterministic series-parallel
 *     DAGs (tests/support/sp_dag_gen.hh) the search must agree bit
 *     for bit — plans AND costs, EXPECT_EQ on doubles — with
 *     the flat enumeration oracle (bruteForceHierarchical), and the DP
 *     total must equal planBytes of the returned plan exactly. The
 *     generator keeps every coefficient dyadic precisely so this can be
 *     equality, not closeness.
 *
 *  2. *Chain degeneracy*: every zoo model rebuilt through the DAG
 *     constructor with explicit chain edges must report isChain() and
 *     produce byte-identical plans, costs, step metrics and batch
 *     evaluations (1/2/8 threads) — the DAG machinery must be
 *     invisible on chains.
 *
 *  3. *Fixture end-to-end*: the ResNet-block / Inception-branch zoo
 *     fixtures solve exactly against the oracle and simulate through
 *     the topological task order; the DAG sweep fallback visits every
 *     mask in ascending order with per-mask-simulate metrics.
 *
 * Registered in the CI sanitizer job by name (like
 * test_faults_differential), so every trial also runs under
 * ASan + UBSan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/optimal_partitioner.hh"
#include "core/series_parallel.hh"
#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "dnn/network.hh"
#include "sim/evaluator.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

#include "support/sp_dag_gen.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;

namespace {

/** Rebuild a network through the DAG constructor with every chain edge
 *  spelled out explicitly. */
dnn::Network
rebuildAsExplicitDag(const dnn::Network &net)
{
    std::vector<std::vector<std::size_t>> preds(net.size());
    for (std::size_t l = 1; l < net.size(); ++l)
        preds[l] = {l - 1};
    return dnn::Network(net.name(), net.inputShape(), net.layers(),
                        std::move(preds));
}

void
expectSameMetrics(const sim::StepMetrics &a, const sim::StepMetrics &b,
                  const std::string &what)
{
    EXPECT_EQ(a.stepSeconds, b.stepSeconds) << what;
    EXPECT_EQ(a.computeBusySeconds, b.computeBusySeconds) << what;
    EXPECT_EQ(a.networkBusySeconds, b.networkBusySeconds) << what;
    EXPECT_EQ(a.commBytes, b.commBytes) << what;
    EXPECT_EQ(a.energy.totalJ(), b.energy.totalJ()) << what;
}

} // namespace

TEST(DagDifferential, GeneratorIsSeedDeterministic)
{
    for (std::uint64_t seed : {1ULL, 17ULL, 424242ULL}) {
        const dnn::Network a = tests::makeRandomSpDag(seed);
        const dnn::Network b = tests::makeRandomSpDag(seed);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(a.describe(), b.describe());
        for (std::size_t l = 0; l < a.size(); ++l)
            EXPECT_EQ(a.preds(l), b.preds(l));
    }
}

TEST(DagDifferential, GeneratorMakesSeriesParallelNonChains)
{
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const dnn::Network net = tests::makeRandomSpDag(seed);
        EXPECT_FALSE(net.isChain()) << "seed " << seed;
        EXPECT_GE(net.size(), 3u) << "seed " << seed;
        EXPECT_LE(net.size(), 9u) << "seed " << seed;
        std::string reason;
        EXPECT_TRUE(core::isSeriesParallel(net, &reason))
            << "seed " << seed << ": " << reason;
    }
}

TEST(DagDifferential, RandomizedDagSearchMatchesOracleBitForBit)
{
    // The acceptance bar: >= 25 randomized series-parallel DAGs, the
    // search bit-identical to the flat enumeration oracle in both plan
    // and cost.
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const dnn::Network net = tests::makeRandomSpDag(seed);
        // Deeper hierarchy on the smaller nets; capped at 21 plan bits
        // so the 2^(H*L) oracle stays fast under the sanitizer job.
        const std::size_t h = net.size() <= 7 ? 3 : 2;
        ASSERT_LE(net.size() * h, 24u) << "seed " << seed;
        const CommConfig cfg = tests::makeRandomSpConfig(seed, h);
        const CommModel model(net, cfg);
        const core::OptimalPartitioner partitioner(model);

        const auto oracle = core::bruteForceHierarchical(model, h);
        const auto got = partitioner.partition(h);
        EXPECT_EQ(got.plan, oracle.plan) << "seed " << seed;
        EXPECT_EQ(got.commBytes, oracle.commBytes) << "seed " << seed;
        EXPECT_EQ(got.commBytes, model.planBytes(got.plan))
            << "seed " << seed;
        EXPECT_TRUE(got.stats.certifiedExact) << "seed " << seed;
    }
}

TEST(DagDifferential, ZooChainsAreBitIdenticalThroughDagApi)
{
    // Rebuilding any paper chain through the DAG constructor must be
    // a no-op: same wiring, same plans, same costs.
    for (const dnn::Network &net : dnn::allModels()) {
        const dnn::Network dag = rebuildAsExplicitDag(net);
        EXPECT_TRUE(dag.isChain()) << net.name();
        EXPECT_EQ(dag.numEdges(), net.size() - 1) << net.name();
        EXPECT_EQ(dag.describe(), net.describe()) << net.name();

        const CommModel a(net, CommConfig{});
        const CommModel b(dag, CommConfig{});
        const core::OptimalPartitioner pa(a);
        const core::OptimalPartitioner pb(b);
        const auto ra = pa.partition(3);
        const auto rb = pb.partition(3);
        EXPECT_EQ(ra.plan, rb.plan) << net.name();
        EXPECT_EQ(ra.commBytes, rb.commBytes) << net.name();
    }
}

TEST(DagDifferential, ZooChainSimulationsAreBitIdenticalThroughDagApi)
{
    // Same network, same simulator output — including the batched
    // evaluation path at 1, 2 and 8 threads.
    util::ThreadPool pool1(0), pool2(1), pool8(7);
    util::ThreadPool *pools[] = {&pool1, &pool2, &pool8};

    for (const dnn::Network &net : dnn::allModels()) {
        const dnn::Network dag = rebuildAsExplicitDag(net);
        const sim::SimConfig cfg;
        const sim::Evaluator ea(net, cfg);
        const sim::Evaluator eb(dag, cfg);

        const auto plan_a = ea.plan(core::Strategy::kHypar);
        const auto plan_b = eb.plan(core::Strategy::kHypar);
        EXPECT_EQ(plan_a, plan_b) << net.name();
        EXPECT_EQ(ea.commBytes(plan_a), eb.commBytes(plan_a))
            << net.name();
        expectSameMetrics(ea.evaluate(plan_a), eb.evaluate(plan_a),
                          net.name());

        const std::vector<core::HierarchicalPlan> plans = {
            core::makeDataParallelPlan(net, cfg.levels),
            core::makeModelParallelPlan(net, cfg.levels), plan_a};
        const auto want = ea.evaluateBatch(plans);
        for (util::ThreadPool *pool : pools) {
            const auto got = eb.evaluateBatch(plans, *pool);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                expectSameMetrics(got[i], want[i],
                                  net.name() + " plan " +
                                      std::to_string(i));
        }
    }
}

TEST(DagDifferential, ZooDagFixturesSolveExactly)
{
    // The named fixtures resolve through modelByName, are genuine
    // series-parallel DAGs, and solve bit-identically to the oracle.
    for (const char *name : {"ResNet-block", "Inception-branch"}) {
        const dnn::Network net = dnn::modelByName(name);
        EXPECT_FALSE(net.isChain()) << name;
        std::string reason;
        EXPECT_TRUE(core::isSeriesParallel(net, &reason))
            << name << ": " << reason;

        const std::size_t h = 3;
        ASSERT_LE(net.size() * h, 24u) << name;
        const CommModel model(net, CommConfig{});
        const core::OptimalPartitioner partitioner(model);
        const auto oracle = core::bruteForceHierarchical(model, h);
        const auto got = partitioner.partition(h);
        EXPECT_EQ(got.plan, oracle.plan) << name;
        EXPECT_EQ(got.commBytes, oracle.commBytes) << name;
    }
}

TEST(DagDifferential, DagSimulationAndSweepFallback)
{
    // End-to-end on a DAG: the optimal plan simulates through the
    // topological task order, and the sweep fallback visits all 2^L
    // masks ascending with metrics equal to per-mask evaluation.
    sim::SimConfig cfg;
    cfg.levels = 2;
    const dnn::Network net = dnn::makeResNetBlock();
    const sim::Evaluator ev(net, cfg);

    const auto result =
        core::OptimalPartitioner(ev.model()).partition(cfg.levels);
    const auto metrics = ev.evaluate(result.plan);
    EXPECT_GT(metrics.stepSeconds, 0.0);
    EXPECT_GT(metrics.energy.totalJ(), 0.0);
    EXPECT_GT(metrics.commBytes, 0.0); // joins move bytes on edges

    const std::size_t L = net.size();
    std::uint64_t expected_mask = 0;
    ev.sweepNeighborhood(
        result.plan, 1,
        [&](std::uint64_t mask, const sim::StepMetrics &got) {
            EXPECT_EQ(mask, expected_mask++);
            core::HierarchicalPlan plan = result.plan;
            plan.levels[1] = core::levelPlanFromMask(mask, L);
            expectSameMetrics(got, ev.evaluate(plan),
                              "mask " + std::to_string(mask));
        });
    EXPECT_EQ(expected_mask, std::uint64_t{1} << L);
}

TEST(DagDifferential, NonSeriesParallelIsDetectedAndRejected)
{
    // The Wheatstone bridge is the canonical DAG that is *not*
    // two-terminal series-parallel: no series or parallel reduction
    // applies anywhere. The predicate must say so, and the joint
    // search must refuse with the decomposition's stuck-state reason.
    dnn::NetworkBuilder b("bridge", dnn::SampleShape{8, 1, 1});
    b.fc("n0", 8);
    b.fc("n1", 8).edge("n0", "n1");
    b.fc("n2", 8).edge("n0", "n2").edge("n1", "n2");
    b.fc("n3", 8).edge("n1", "n3").edge("n2", "n3");
    const dnn::Network net = b.build();
    EXPECT_FALSE(net.isChain());

    std::string reason;
    EXPECT_FALSE(core::isSeriesParallel(net, &reason));
    EXPECT_NE(reason.find("not two-terminal series-parallel"),
              std::string::npos)
        << reason;

    const CommModel model(net, CommConfig{});
    try {
        core::OptimalPartitioner(model).partition(2);
        FAIL() << "expected FatalError";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "not two-terminal series-parallel"),
                  std::string::npos)
            << e.what();
    }
}
