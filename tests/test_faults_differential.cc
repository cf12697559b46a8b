/**
 * @file
 * Differential suite for the fault model. Two invariants anchor it:
 *
 *  1. *Pristine bit-identity*: an empty fault map — or an explicit
 *     all-1.0 one — must leave every layer of the stack bit-identical
 *     to a build without the fault field: CommModel totals, every
 *     search's plan and cost, topology exchange times, and
 *     simulated step metrics. EXPECT_EQ on doubles, no tolerance.
 *
 *  2. *Degraded exactness*: with non-trivial level penalties the
 *     joint search must still agree bit for bit with the naive
 *     reference DP, and with the flat enumeration
 *     oracle where it is affordable — the penalty is a uniform
 *     per-level weight, so every exactness/dominance/admissibility
 *     argument carries over, and this suite is the empirical check.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <sstream>

#include "arch/fault_map.hh"
#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "sim/evaluator.hh"
#include "sim/robust.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace hypar;
using arch::FaultMap;
using core::CommConfig;
using core::CommModel;

namespace {

/** Random conv/fc chain with 2..10 weighted layers (the idiom shared
 *  with test_equivalence_random.cc). */
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

/** Random per-level penalties in [1, 4) — positive, finite, non-1. */
std::vector<double>
randomPenalties(std::size_t levels, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> p(1.0, 4.0);
    std::vector<double> out(levels);
    for (auto &v : out)
        v = p(rng);
    return out;
}

} // namespace

TEST(FaultsDifferential, LevelWeightsArePristineExact)
{
    const dnn::Network net = dnn::makeLenetC();

    // No penalties, all-1.0 penalties, and the historical pairs *= 2.0
    // accumulation all produce the exact same weights.
    const CommModel plain(net, CommConfig{});
    CommConfig ones_cfg;
    ones_cfg.levelPenalties.assign(8, 1.0);
    const CommModel ones(net, ones_cfg);
    double pairs = 1.0;
    for (std::size_t h = 0; h < 8; ++h) {
        EXPECT_EQ(plain.levelWeight(h), pairs);
        EXPECT_EQ(plain.levelWeight(h), std::ldexp(1.0, (int)h));
        EXPECT_EQ(ones.levelWeight(h), pairs);
        EXPECT_EQ(plain.levelPenalty(h), 1.0);
        pairs *= 2.0;
    }

    // And the weighted consumers agree bit for bit.
    const auto plan = core::makeHyparPlan(plain, 4);
    EXPECT_EQ(plain.planBytes(plan), ones.planBytes(plan));

    // Invalid penalties are rejected up front.
    CommConfig bad;
    bad.levelPenalties = {1.0, 0.0};
    EXPECT_THROW(CommModel(net, bad), util::FatalError);
    bad.levelPenalties = {std::nan("")};
    EXPECT_THROW(CommModel(net, bad), util::FatalError);
}

TEST(FaultsDifferential, AllOnesFaultMapIsBitIdenticalEndToEnd)
{
    // An explicit "everything healthy" map must change nothing, for
    // every topology: same plans, same costs, same step metrics.
    const dnn::Network net = dnn::makeLenetC();
    FaultMap ones;
    ones.nodes = {{0, 1.0}, {5, 1.0}};
    for (const auto kind :
         {sim::TopologyKind::kHTree, sim::TopologyKind::kTorus,
          sim::TopologyKind::kMesh}) {
        sim::SimConfig pristine;
        pristine.topology = kind;
        sim::SimConfig mapped = pristine;
        mapped.faults = ones;
        // All links listed healthy too — except on the mesh, which
        // has no link-level fault model and rejects link entries
        // outright (MeshRejectsLinkFaultEntries below).
        const auto topo =
            sim::makeTopology(kind, pristine.levels, pristine.noc);
        if (topo->supportsLinkFaults())
            for (std::size_t l = 0; l < topo->numLinks(); ++l)
                mapped.faults.links.push_back({l, 1.0});

        const sim::Evaluator a(net, pristine);
        const sim::Evaluator b(net, mapped);
        const auto plan_a = a.plan(core::Strategy::kHypar);
        const auto plan_b = b.plan(core::Strategy::kHypar);
        EXPECT_EQ(plan_a, plan_b);
        EXPECT_EQ(a.commBytes(plan_a), b.commBytes(plan_a));
        const auto ma = a.evaluate(plan_a);
        const auto mb = b.evaluate(plan_a);
        EXPECT_EQ(ma.stepSeconds, mb.stepSeconds);
        EXPECT_EQ(ma.energy.totalJ(), mb.energy.totalJ());
        for (std::size_t h = 0; h < pristine.levels; ++h) {
            EXPECT_EQ(a.topology().exchangeSeconds(h, 12345.0),
                      b.topology().exchangeSeconds(h, 12345.0))
                << "level " << h;
        }
    }
}

TEST(FaultsDifferential, SearchStaysExactOnDegradedCostTables)
{
    // Randomized equivalence on *degraded* models: the search agrees
    // bit for bit with the naive reference DP at every size, and the
    // reference with the flat hierarchical oracle up to 20 plan bits,
    // under random per-level penalties.
    std::mt19937 rng(2024);
    for (int trial = 0; trial < 25; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const std::size_t h = net.size() <= 8 ? 3 : 2;
        CommConfig cfg = randomConfig(rng);
        cfg.levelPenalties = randomPenalties(h, rng);
        const CommModel model(net, cfg);
        const core::OptimalPartitioner partitioner(model);

        const auto ref = partitioner.partitionReference(h);
        const auto result = partitioner.partition(h);
        EXPECT_EQ(result.commBytes, ref.commBytes) << "trial " << trial;
        EXPECT_EQ(result.plan, ref.plan) << "trial " << trial;
        // planBytes weights each level's *sum* while the DP weights
        // per-layer terms; with non-power-of-two penalties those
        // roundings differ by ULPs, so the cross-check is relative.
        EXPECT_NEAR(model.planBytes(result.plan), result.commBytes,
                    1e-12 * result.commBytes)
            << "trial " << trial;

        if (net.size() * h <= 20) {
            const auto brute = core::bruteForceHierarchical(model, h);
            EXPECT_DOUBLE_EQ(ref.commBytes, brute.commBytes)
                << "trial " << trial << " L=" << net.size()
                << " H=" << h;
        }

        // Greedy Algorithm 2's reported total equals planBytes of its
        // own plan on the degraded model, up to the same ULP-level
        // reassociation.
        const auto greedy =
            core::HierarchicalPartitioner(model).partition(h);
        EXPECT_NEAR(greedy.commBytes, model.planBytes(greedy.plan),
                    1e-12 * greedy.commBytes)
            << "trial " << trial;
    }
}

TEST(FaultsDifferential, DegradedArraysAreNeverFasterAndReplanHelps)
{
    const dnn::Network net = dnn::makeLenetC();
    sim::SimConfig pristine;
    const sim::Evaluator base(net, pristine);
    const auto base_plan = base.plan(core::Strategy::kHypar);
    const double healthy = base.evaluate(base_plan).stepSeconds;
    const std::size_t nodes = base.topology().numNodes();
    const std::size_t links = base.topology().numLinks();

    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        sim::SimConfig degraded = pristine;
        degraded.faults =
            arch::sampleFaultMap(0.25, nodes, links, seed);
        const sim::Evaluator ev(net, degraded);

        // Slowest-member semantics: faults never speed a step up.
        const double stale = ev.evaluate(base_plan).stepSeconds;
        EXPECT_GE(stale, healthy) << "seed " << seed;

        // Re-planning on the degraded cost tables can only lower the
        // *communication* total below the stale plan's (the search is
        // exact over the same degraded objective).
        const auto replanned =
            core::OptimalPartitioner(ev.model()).partition(
                degraded.levels);
        EXPECT_LE(replanned.commBytes, ev.commBytes(base_plan))
            << "seed " << seed;
    }
}

TEST(FaultsDifferential, DeadLinkOnLoadedRouteIsRejected)
{
    const dnn::Network net = dnn::makeLenetC();

    // H-tree: killing the root trunk makes level 0 unusable.
    sim::SimConfig htree;
    htree.faults.links = {{0, 0.0}};
    EXPECT_THROW(sim::Evaluator(net, htree), util::FatalError);

    // Torus: every horizontal central-cut link carries level-0 flows;
    // kill them all and the level has no surviving route.
    sim::SimConfig torus;
    torus.topology = sim::TopologyKind::kTorus;
    const auto topo = sim::makeTopology(sim::TopologyKind::kTorus,
                                        torus.levels, torus.noc);
    for (std::size_t id = 0; id < topo->numLinks(); ++id)
        torus.faults.links.push_back({id, 0.0});
    EXPECT_THROW(sim::Evaluator(net, torus), util::FatalError);

    // A throttled (but alive) trunk is fine and slows level 0 down.
    sim::SimConfig slow;
    slow.faults.links = {{0, 0.5}};
    const sim::Evaluator ev(net, slow);
    EXPECT_DOUBLE_EQ(ev.topology().levelPenalty(0), 2.0);
    EXPECT_DOUBLE_EQ(ev.topology().levelPenalty(1), 1.0);
}

TEST(FaultsDifferential, MeshRejectsLinkFaultEntries)
{
    // The mesh inherits the torus link id space, where the wrap links
    // exist but carry no traffic — a per-link map against it is
    // partially meaningless, so link entries are rejected up front
    // with the source line when the map came from a file.
    const dnn::Network net = dnn::makeLenetC();
    std::istringstream text("# degraded array\n"
                            "node 3 0.5\n"
                            "link 7 0.0\n");
    sim::SimConfig mesh;
    mesh.topology = sim::TopologyKind::kMesh;
    mesh.faults = arch::parseFaultMap(text);
    try {
        sim::Evaluator ev(net, mesh);
        FAIL() << "mesh link fault entry should be fatal";
    } catch (const util::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fault map line 3"), std::string::npos)
            << what;
        EXPECT_NE(what.find("Mesh"), std::string::npos) << what;
    }

    // Programmatic maps (no source line) are rejected too, with the
    // plain prefix.
    sim::SimConfig prog = mesh;
    prog.faults = arch::FaultMap{};
    prog.faults.links = {{0, 0.5}};
    EXPECT_THROW(sim::Evaluator(net, prog), util::FatalError);

    // Node-only maps stay valid on the mesh, and the samplers draw
    // node faults only for it — end to end, robust planning on a mesh
    // cannot trip the rejection.
    sim::SimConfig nodes_only = mesh;
    nodes_only.faults = arch::FaultMap{};
    nodes_only.faults.nodes = {{1, 0.0}};
    const sim::Evaluator ok(net, nodes_only);
    EXPECT_GT(ok.evaluate(ok.plan(core::Strategy::kHypar)).stepSeconds,
              0.0);

    sim::SimConfig clean_mesh;
    clean_mesh.topology = sim::TopologyKind::kMesh;
    sim::RobustOptions ropts;
    ropts.rate = 0.5;
    ropts.samples = 3;
    const auto robust = sim::robustPlan(net, clean_mesh, ropts);
    for (const auto &m : robust.sampleMaps)
        EXPECT_TRUE(m.links.empty());
}

TEST(FaultsDifferential, EvaluatorBatchCarriesTheComputeDerating)
{
    // evaluateBatch's cloned simulators must price compute with the
    // same fault derating as evaluate() (a dropped computeScale here
    // would silently split the two paths).
    const dnn::Network net = dnn::makeLenetC();
    sim::SimConfig cfg;
    cfg.faults.nodes = {{3, 0.5}};
    const sim::Evaluator ev(net, cfg);
    const auto plan = ev.plan(core::Strategy::kHypar);
    const std::vector<core::HierarchicalPlan> plans = {plan, plan};
    const auto batch = ev.evaluateBatch(
        std::span<const core::HierarchicalPlan>(plans));
    const auto single = ev.evaluate(plan);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].stepSeconds, single.stepSeconds);
    EXPECT_EQ(batch[1].stepSeconds, single.stepSeconds);
}

TEST(FaultsDifferential, RobustPlanIsThreadCountInvariant)
{
    const dnn::Network net = dnn::makeLenetC();
    sim::SimConfig cfg;
    sim::RobustOptions opts;
    opts.rate = 0.2;
    opts.samples = 5;
    opts.seed = 11;

    util::ThreadPool serial(1);
    util::ThreadPool wide(4);
    const auto a = sim::robustPlan(net, cfg, opts, serial);
    const auto b = sim::robustPlan(net, cfg, opts, wide);

    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.winner, b.winner);
    EXPECT_EQ(a.expectedStepSeconds, b.expectedStepSeconds);
    EXPECT_EQ(a.pristineExpectedStepSeconds,
              b.pristineExpectedStepSeconds);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t c = 0; c < a.candidates.size(); ++c) {
        EXPECT_EQ(a.candidates[c].plan, b.candidates[c].plan);
        EXPECT_EQ(a.candidates[c].sampleStepSeconds,
                  b.candidates[c].sampleStepSeconds);
    }
    ASSERT_EQ(a.sampleMaps.size(), opts.samples);
    EXPECT_EQ(a.sampleMaps[0] == b.sampleMaps[0], true);

    // The winner can only improve on the pristine-optimal plan.
    EXPECT_LE(a.expectedStepSeconds, a.pristineExpectedStepSeconds);

    // Degenerate options are rejected.
    sim::RobustOptions zero;
    zero.samples = 0;
    EXPECT_THROW(sim::robustPlan(net, cfg, zero), util::FatalError);
}
