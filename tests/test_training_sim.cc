/**
 * @file
 * Tests for the training-step simulator: conservation laws (simulated
 * communication equals the analytic model), monotonicity, phase
 * accounting, trace recording and the gradient-overlap option.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "noc/htree.hh"
#include "sim/evaluator.hh"
#include "sim/training_sim.hh"
#include "util/logging.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::Parallelism;
using sim::SimOptions;
using sim::TrainingSimulator;

namespace {

struct Rig
{
    explicit Rig(const dnn::Network &n, std::size_t levels = 4,
                 SimOptions opts = {})
        : net(n), model(net, CommConfig{}),
          topo(levels, noc::TopologyConfig{}),
          simulator(model, arch::AcceleratorConfig{},
                    arch::EnergyModel{}, topo, opts)
    {}

    dnn::Network net;
    CommModel model;
    noc::HTreeTopology topo;
    TrainingSimulator simulator;
};

/**
 * Every StepMetrics field as C99 hex floats (exact bits), in
 * declaration order: stepSeconds, computeBusySeconds,
 * networkBusySeconds, commBytes, phases (forward, backward, gradient),
 * energy (computeJ, sramJ, dramJ, commJ).
 */
std::string
hexMetrics(const sim::StepMetrics &m)
{
    const double fields[] = {
        m.stepSeconds,      m.computeBusySeconds, m.networkBusySeconds,
        m.commBytes,        m.phases.forward,     m.phases.backward,
        m.phases.gradient,  m.energy.computeJ,    m.energy.sramJ,
        m.energy.dramJ,     m.energy.commJ};
    std::string out;
    for (const double v : fields) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%a", v);
        if (!out.empty())
            out += ' ';
        out += buf;
    }
    return out;
}

/** One pinned simulate() result (H = 4, default configs). */
struct GoldenStep
{
    const char *model;
    const char *topology; //!< "htree" or "torus"
    core::Strategy strategy;
    bool overlap;
    const char *metrics; //!< hexMetrics() of the result
};

// Recorded from the discrete-event simulator the two-tape replay
// replaced; any change to the step model or its float operation order
// shows up here. Recorded on x86-64, where the default flags emit no
// fused multiply-add; a target that fuses a * b + c may differ in the
// last bits.
const GoldenStep kGoldenSteps[] = {
    {"Lenet-c", "htree", core::Strategy::kHypar, false,
     "0x1.12acba452979cp-6 0x1.2b52d17cd9acdp-8 0x1.8fb00bcbe61dp-7 "
     "0x1.2981ep+24 0x1.08c962a08d392p-8 0x1.9eda03a55f58ep-9 "
     "0x1.393e4250b480ap-7 0x1.fcf2feeed90d9p-8 0x1.3b247f776aabep-7 "
     "0x1.f050fc9a0974p-7 0x1.ec209e89da102p-8"},
    {"Lenet-c", "htree", core::Strategy::kHypar, true,
     "0x1.0f7e55663afaap-6 0x1.2b52d17cd9acdp-8 0x1.8fb00bcbe61dp-7 "
     "0x1.2981ep+24 0x1.08c962a08d392p-8 0x1.9eda03a55f58ep-9 "
     "0x1.393e4250b480ap-7 0x1.fcf2feeed90d9p-8 0x1.3b247f776aabep-7 "
     "0x1.f050fc9a0974p-7 0x1.ec209e89da102p-8"},
    {"Lenet-c", "htree", core::Strategy::kDataParallel, false,
     "0x1.2dfaecb976154p-5 0x1.2b52d17cd9acdp-8 0x1.08909289dadfbp-5 "
     "0x1.8a227p+25 0x1.9a9a3625bc3dcp-10 0x1.7816d9a7ee37dp-10 "
     "0x1.1565643b08c19p-5 0x1.fd6c67ca4e1e3p-8 0x1.3d8807063fc65p-7 "
     "0x1.eaa415ceea4d7p-6 0x1.3dcb4540da6e6p-6"},
    {"Lenet-c", "htree", core::Strategy::kDataParallel, true,
     "0x1.2c63ba49fed5bp-5 0x1.2b52d17cd9acdp-8 0x1.08909289dadfbp-5 "
     "0x1.8a227p+25 0x1.9a9a3625bc3dcp-10 0x1.7816d9a7ee37dp-10 "
     "0x1.1565643b08c19p-5 0x1.fd6c67ca4e1e3p-8 0x1.3d8807063fc65p-7 "
     "0x1.eaa415ceea4d7p-6 0x1.3dcb4540da6e6p-6"},
    {"Lenet-c", "htree", core::Strategy::kModelParallel, false,
     "0x1.593760de0b203p-2 0x1.2b52d17cd9acdp-8 0x1.548a159817b96p-2 "
     "0x1.fb6cp+28 0x1.2d0bcca868cfdp-2 0x1.5487cffbe4a0bp-5 "
     "0x1.9a9a3625bc3dcp-10 0x1.0240f26d811c1p-7 0x1.3a8b9d93b5653p-7 "
     "0x1.7e01b312776p-4 0x1.99237a480d929p-3"},
    {"Lenet-c", "htree", core::Strategy::kModelParallel, true,
     "0x1.593760de0b203p-2 0x1.2b52d17cd9acdp-8 0x1.548a159817b96p-2 "
     "0x1.fb6cp+28 0x1.2d0bcca868cfdp-2 0x1.5487cffbe4a0bp-5 "
     "0x1.9a9a3625bc3dcp-10 0x1.0240f26d811c1p-7 0x1.3a8b9d93b5653p-7 "
     "0x1.7e01b312776p-4 0x1.99237a480d929p-3"},
    {"Lenet-c", "torus", core::Strategy::kHypar, false,
     "0x1.524f6783bb85dp-6 0x1.2b52d17cd9acdp-8 0x1.077ab324851a9p-6 "
     "0x1.2981ep+24 0x1.442b387e7abfbp-8 0x1.ea1cf816b5dd6p-9 "
     "0x1.8801f4c28c346p-7 0x1.fcf2feeed90d9p-8 0x1.3b247f776aabep-7 "
     "0x1.f050fc9a0974p-7 0x1.b3dd9e4673a22p-8"},
    {"Lenet-c", "torus", core::Strategy::kHypar, true,
     "0x1.4f076cd1918adp-6 0x1.2b52d17cd9acdp-8 0x1.077ab324851a9p-6 "
     "0x1.2981ep+24 0x1.442b387e7abfbp-8 0x1.ea1cf816b5dd6p-9 "
     "0x1.8801f4c28c346p-7 0x1.fcf2feeed90d9p-8 0x1.3b247f776aabep-7 "
     "0x1.f050fc9a0974p-7 0x1.b3dd9e4673a22p-8"},
    {"Lenet-c", "torus", core::Strategy::kDataParallel, false,
     "0x1.62d58a295e04bp-5 0x1.2b52d17cd9acdp-8 0x1.3d6b2ff9c2cf2p-5 "
     "0x1.8a227p+25 0x1.9a9a3625bc3dcp-10 0x1.7816d9a7ee37dp-10 "
     "0x1.4a4001aaf0b11p-5 0x1.fd6c67ca4e1e3p-8 0x1.3d8807063fc65p-7 "
     "0x1.eaa415ceea4d7p-6 0x1.1f19174a96c98p-6"},
    {"Lenet-c", "torus", core::Strategy::kDataParallel, true,
     "0x1.61318cd049074p-5 0x1.2b52d17cd9acdp-8 0x1.3d6b2ff9c2cf2p-5 "
     "0x1.8a227p+25 0x1.9a9a3625bc3dcp-10 0x1.7816d9a7ee37dp-10 "
     "0x1.4a4001aaf0b11p-5 0x1.fd6c67ca4e1e3p-8 0x1.3d8807063fc65p-7 "
     "0x1.eaa415ceea4d7p-6 0x1.1f19174a96c98p-6"},
    {"Lenet-c", "torus", core::Strategy::kModelParallel, false,
     "0x1.9d4fb136e907dp-2 0x1.2b52d17cd9acdp-8 0x1.98a265f0f5a1p-2 "
     "0x1.fb6cp+28 0x1.68ed59f69a8c1p-2 0x1.963de85145fc2p-5 "
     "0x1.9a9a3625bc3dcp-10 0x1.0240f26d811c1p-7 0x1.3a8b9d93b5653p-7 "
     "0x1.7e01b312776p-4 0x1.719e98a6e95a3p-3"},
    {"Lenet-c", "torus", core::Strategy::kModelParallel, true,
     "0x1.9d4fb136e907dp-2 0x1.2b52d17cd9acdp-8 0x1.98a265f0f5a1p-2 "
     "0x1.fb6cp+28 0x1.68ed59f69a8c1p-2 0x1.963de85145fc2p-5 "
     "0x1.9a9a3625bc3dcp-10 0x1.0240f26d811c1p-7 0x1.3a8b9d93b5653p-7 "
     "0x1.7e01b312776p-4 0x1.719e98a6e95a3p-3"},
    {"VGG-A", "htree", core::Strategy::kHypar, false,
     "0x1.38631943b7a95p+3 0x1.1537e461adb3cp+3 0x1.1959a7104fae7p+0 "
     "0x1.a33ba8p+30 0x1.8dbc44d634c15p+1 0x1.88497ad69937ap+1 "
     "0x1.cb86a56210ad4p+1 0x1.ac799836d3bdcp+4 0x1.eea9a5b1221cfp+4 "
     "0x1.60accee4aeddap+2 0x1.52ad32fa77105p-1"},
    {"VGG-A", "htree", core::Strategy::kHypar, true,
     "0x1.26783ff4536afp+3 0x1.1537e461adb3cp+3 0x1.1959a7104fae7p+0 "
     "0x1.a33ba8p+30 0x1.8dbc44d634c15p+1 0x1.88497ad69937ap+1 "
     "0x1.cb86a56210ad4p+1 0x1.ac799836d3bdcp+4 0x1.eea9a5b1221cfp+4 "
     "0x1.60accee4aeddap+2 0x1.52ad32fa77105p-1"},
    {"VGG-A", "htree", core::Strategy::kDataParallel, false,
     "0x1.2a07fbd9cd07cp+4 0x1.1537e461adb3cp+3 0x1.3ed81351ec5bcp+3 "
     "0x1.db1d15p+33 0x1.7308a226f2c9ep+1 0x1.6ece4d38d13b2p+1 "
     "0x1.9b9a3bdba90e4p+3 0x1.ac86aa963a4bp+4 0x1.ef1b968866f21p+4 "
     "0x1.6c11f5f08d695p+3 0x1.7f1690e3e3d79p+2"},
    {"VGG-A", "htree", core::Strategy::kDataParallel, true,
     "0x1.21128f321ae88p+4 0x1.1537e461adb3cp+3 0x1.3ed81351ec5bcp+3 "
     "0x1.db1d15p+33 0x1.7308a226f2c9ep+1 0x1.6ece4d38d13b2p+1 "
     "0x1.9b9a3bdba90e4p+3 0x1.ac86aa963a4bp+4 0x1.ef1b968866f21p+4 "
     "0x1.6c11f5f08d695p+3 0x1.7f1690e3e3d79p+2"},
    {"VGG-A", "htree", core::Strategy::kModelParallel, false,
     "0x1.656d7ae96f089p+7 0x1.1537e461adb3cp+3 0x1.5419fca3542d6p+7 "
     "0x1.faca66p+37 0x1.234f878a7e234p+7 0x1.e28e86b2a8d0ep+4 "
     "0x1.7308a226f2c9ep+1 0x1.ad72b95a490bap+4 0x1.eea9a5b1221cfp+4 "
     "0x1.9f6a3ea643a24p+5 0x1.98a12d4c35a6p+6"},
    {"VGG-A", "htree", core::Strategy::kModelParallel, true,
     "0x1.656d7ae96f089p+7 0x1.1537e461adb3cp+3 0x1.5419fca3542d6p+7 "
     "0x1.faca66p+37 0x1.234f878a7e234p+7 0x1.e28e86b2a8d0ep+4 "
     "0x1.7308a226f2c9ep+1 0x1.ad72b95a490bap+4 0x1.eea9a5b1221cfp+4 "
     "0x1.9f6a3ea643a24p+5 0x1.98a12d4c35a6p+6"},
    {"VGG-A", "torus", core::Strategy::kHypar, false,
     "0x1.3fba70581b8ecp+3 0x1.1537e461adb3cp+3 0x1.54145fb36ed7ep+0 "
     "0x1.a33ba8p+30 0x1.944ed7149046ap+1 0x1.8d61f04357d1dp+1 "
     "0x1.dd38fa0886222p+1 0x1.ac799836d3bdcp+4 0x1.eea9a5b1221cfp+4 "
     "0x1.60accee4aeddap+2 0x1.3181b747328adp-1"},
    {"VGG-A", "torus", core::Strategy::kHypar, true,
     "0x1.2cc8b42b07066p+3 0x1.1537e461adb3cp+3 0x1.54145fb36ed7ep+0 "
     "0x1.a33ba8p+30 0x1.944ed7149046ap+1 0x1.8d61f04357d1dp+1 "
     "0x1.dd38fa0886222p+1 0x1.ac799836d3bdcp+4 0x1.eea9a5b1221cfp+4 "
     "0x1.60accee4aeddap+2 0x1.3181b747328adp-1"},
    {"VGG-A", "torus", core::Strategy::kDataParallel, false,
     "0x1.49ea4f6bc56d5p+4 0x1.1537e461adb3cp+3 0x1.7e9cba75dd26fp+3 "
     "0x1.db1d15p+33 0x1.7308a226f2c9ep+1 0x1.6ece4d38d13b2p+1 "
     "0x1.db5ee2ff99d95p+3 0x1.ac86aa963a4bp+4 0x1.ef1b968866f21p+4 "
     "0x1.6c11f5f08d695p+3 0x1.5a15d7423dd5bp+2"},
    {"VGG-A", "torus", core::Strategy::kDataParallel, true,
     "0x1.407171553b293p+4 0x1.1537e461adb3cp+3 0x1.7e9cba75dd26fp+3 "
     "0x1.db1d15p+33 0x1.7308a226f2c9ep+1 0x1.6ece4d38d13b2p+1 "
     "0x1.db5ee2ff99d95p+3 0x1.ac86aa963a4bp+4 0x1.ef1b968866f21p+4 "
     "0x1.6c11f5f08d695p+3 0x1.5a15d7423dd5bp+2"},
    {"VGG-A", "torus", core::Strategy::kModelParallel, false,
     "0x1.a972a87c24582p+7 0x1.1537e461adb3cp+3 0x1.981f2a36097cdp+7 "
     "0x1.faca66p+37 0x1.5c69cc58e44dbp+7 0x1.1cf2e66a90fbcp+5 "
     "0x1.7308a226f2c9ep+1 0x1.ad72b95a490bap+4 0x1.eea9a5b1221cfp+4 "
     "0x1.9f6a3ea643a24p+5 0x1.7128e1a64d8edp+6"},
    {"VGG-A", "torus", core::Strategy::kModelParallel, true,
     "0x1.a972a87c24582p+7 0x1.1537e461adb3cp+3 0x1.981f2a36097cdp+7 "
     "0x1.faca66p+37 0x1.5c69cc58e44dbp+7 0x1.1cf2e66a90fbcp+5 "
     "0x1.7308a226f2c9ep+1 0x1.ad72b95a490bap+4 0x1.eea9a5b1221cfp+4 "
     "0x1.9f6a3ea643a24p+5 0x1.7128e1a64d8edp+6"},
};

} // namespace

TEST(TrainingSim, SimulatedCommEqualsAnalyticModel)
{
    // Conservation: the simulator's communicated bytes must equal
    // CommModel::planBytes for every strategy and network.
    for (const auto &net : dnn::allModels()) {
        Rig rig(net);
        for (auto strategy :
             {core::Strategy::kDataParallel, core::Strategy::kModelParallel,
              core::Strategy::kOneWeirdTrick, core::Strategy::kHypar}) {
            const auto plan = core::makePlan(strategy, rig.model, 4);
            const auto metrics = rig.simulator.simulate(plan);
            EXPECT_NEAR(metrics.commBytes, rig.model.planBytes(plan),
                        1e-6 * std::max(1.0, metrics.commBytes))
                << net.name() << " " << core::toString(strategy);
        }
    }
}

TEST(TrainingSim, StepCoversComputeAndNetwork)
{
    Rig rig(dnn::makeAlexNet());
    const auto plan =
        core::makeDataParallelPlan(rig.net, 4);
    const auto m = rig.simulator.simulate(plan);
    EXPECT_GT(m.stepSeconds, 0.0);
    EXPECT_GT(m.computeBusySeconds, 0.0);
    EXPECT_GT(m.networkBusySeconds, 0.0);
    // Serialized execution: step = compute + network exactly.
    EXPECT_NEAR(m.stepSeconds, m.computeBusySeconds + m.networkBusySeconds,
                1e-9 * m.stepSeconds);
    // Phase times partition the step.
    EXPECT_NEAR(m.phases.total(), m.stepSeconds, 1e-9 * m.stepSeconds);
}

TEST(TrainingSim, DeterministicAcrossRuns)
{
    Rig rig(dnn::makeVggA());
    const auto plan = core::makeHyparPlan(rig.model, 4);
    const auto a = rig.simulator.simulate(plan);
    const auto b = rig.simulator.simulate(plan);
    EXPECT_DOUBLE_EQ(a.stepSeconds, b.stepSeconds);
    EXPECT_DOUBLE_EQ(a.energy.totalJ(), b.energy.totalJ());
    EXPECT_DOUBLE_EQ(a.commBytes, b.commBytes);
}

TEST(TrainingSim, HyparNeverSlowerThanDefaults)
{
    // Same compute, strictly less communication over the same levels:
    // HyPar's simulated step must beat or match DP and MP everywhere.
    for (const auto &net : dnn::allModels()) {
        Rig rig(net);
        const auto dp = rig.simulator.simulate(
            core::makeDataParallelPlan(net, 4));
        const auto mp = rig.simulator.simulate(
            core::makeModelParallelPlan(net, 4));
        const auto hp =
            rig.simulator.simulate(core::makeHyparPlan(rig.model, 4));
        EXPECT_LE(hp.stepSeconds, dp.stepSeconds * (1 + 1e-9))
            << net.name();
        EXPECT_LE(hp.stepSeconds, mp.stepSeconds * (1 + 1e-9))
            << net.name();
    }
}

TEST(TrainingSim, EnergyBreakdownAllPositive)
{
    Rig rig(dnn::makeLenetC());
    const auto m = rig.simulator.simulate(
        core::makeDataParallelPlan(rig.net, 4));
    EXPECT_GT(m.energy.computeJ, 0.0);
    EXPECT_GT(m.energy.sramJ, 0.0);
    EXPECT_GT(m.energy.dramJ, 0.0);
    EXPECT_GT(m.energy.commJ, 0.0);
    EXPECT_DOUBLE_EQ(m.energy.totalJ(),
                     m.energy.computeJ + m.energy.sramJ + m.energy.dramJ +
                         m.energy.commJ);
}

TEST(TrainingSim, GradOverlapNeverHurts)
{
    for (const auto &name : {"AlexNet", "VGG-A", "SFC"}) {
        dnn::Network net = dnn::modelByName(name);
        SimOptions overlap;
        overlap.overlapGradComm = true;
        Rig sync(net, 4);
        Rig async(net, 4, overlap);
        const auto plan = core::makeDataParallelPlan(net, 4);
        const auto t_sync = sync.simulator.simulate(plan).stepSeconds;
        const auto t_async = async.simulator.simulate(plan).stepSeconds;
        EXPECT_LE(t_async, t_sync * (1 + 1e-9)) << name;
        EXPECT_GT(t_async, 0.0);
    }
}

TEST(TrainingSim, TraceRecordsTasksInOrder)
{
    SimOptions opts;
    opts.recordTrace = true;
    Rig rig(dnn::makeLenetC(), 2, opts);
    const auto plan = core::makeDataParallelPlan(rig.net, 2);
    const auto m = rig.simulator.simulate(plan);
    const auto &trace = rig.simulator.lastTrace();
    ASSERT_FALSE(trace.empty());

    // First task is layer 0's forward compute; last ends at step end.
    EXPECT_EQ(trace.front().label, "fwd:conv1");
    double max_end = 0.0;
    for (const auto &e : trace) {
        EXPECT_LE(e.start, e.end);
        max_end = std::max(max_end, e.end);
    }
    EXPECT_DOUBLE_EQ(max_end, m.stepSeconds);

    // Backward skips layer 0: no bwd:conv1 entry.
    for (const auto &e : trace)
        EXPECT_NE(e.label, "bwd:conv1");
}

TEST(TrainingSim, SteadyStateEqualsSingleStepWithoutOverlap)
{
    // Without gradient overlap the steps serialize perfectly, so the
    // steady-state cadence equals the single-step latency.
    Rig rig(dnn::makeAlexNet());
    const auto plan = core::makeDataParallelPlan(rig.net, 4);
    const auto one = rig.simulator.simulate(plan);
    const auto steady = rig.simulator.simulateSteadyState(plan, 4);
    EXPECT_NEAR(steady.stepSeconds, one.stepSeconds,
                1e-9 * one.stepSeconds);
    // Totals cover all four steps.
    EXPECT_NEAR(steady.commBytes, 4.0 * one.commBytes,
                1e-6 * steady.commBytes);
    EXPECT_NEAR(steady.energy.totalJ(), 4.0 * one.energy.totalJ(),
                1e-6 * steady.energy.totalJ());
}

TEST(TrainingSim, SteadyStateOverlapPipelinesGradients)
{
    // With overlap, tail gradient reductions drain under the next
    // step's forward: the steady-state cadence is at most the
    // single-step latency and at least the busier of the two
    // resources.
    SimOptions overlap;
    overlap.overlapGradComm = true;
    Rig rig(dnn::makeVggA(), 4, overlap);
    const auto plan = core::makeDataParallelPlan(rig.net, 4);

    const auto one = rig.simulator.simulate(plan);
    const auto steady = rig.simulator.simulateSteadyState(plan, 5);
    EXPECT_LE(steady.stepSeconds, one.stepSeconds * (1 + 1e-9));
    EXPECT_GT(steady.stepSeconds, 0.0);

    // It can never beat the per-step network drain (the interconnect
    // is the bottleneck resource for DP VGG-A).
    const double net_per_step = steady.networkBusySeconds / 5.0;
    EXPECT_GE(steady.stepSeconds, net_per_step * (1 - 1e-9));
}

TEST(TrainingSim, SteadyStateMatchesReplicatedTapeReplay)
{
    // The multi-step trace is the single-step task list replayed
    // `steps` times on tapes that run on across step boundaries: step
    // 0's entries equal simulate()'s trace bit for bit (the tapes start
    // empty either way), every step repeats step 0's labels, and the
    // cadence is the spacing of the per-step maximum ends. Exact
    // comparisons, no tolerance.
    for (const bool overlap : {false, true}) {
        SimOptions opts;
        opts.overlapGradComm = overlap;
        opts.recordTrace = true;
        for (const auto &name : {"Lenet-c", "AlexNet", "VGG-A"}) {
            Rig rig(dnn::modelByName(name), 4, opts);
            const auto plan = core::makeDataParallelPlan(rig.net, 4);
            (void)rig.simulator.simulate(plan);
            const std::vector<sim::TraceEntry> one =
                rig.simulator.lastTrace();
            const std::size_t steps = 5;
            const auto steady =
                rig.simulator.simulateSteadyState(plan, steps);
            const auto &trace = rig.simulator.lastTrace();

            ASSERT_FALSE(one.empty());
            ASSERT_EQ(trace.size(), steps * one.size())
                << name << " overlap=" << overlap;
            std::vector<double> finish(steps, 0.0);
            for (std::size_t s = 0; s < steps; ++s) {
                for (std::size_t i = 0; i < one.size(); ++i) {
                    const sim::TraceEntry &e = trace[s * one.size() + i];
                    EXPECT_EQ(e.label, one[i].label) << s << " " << i;
                    if (s == 0) {
                        EXPECT_EQ(e.start, one[i].start) << i;
                        EXPECT_EQ(e.end, one[i].end) << i;
                    }
                    finish[s] = std::max(finish[s], e.end);
                }
            }
            const double ref =
                (finish[steps - 1] - finish[0]) /
                static_cast<double>(steps - 1);
            EXPECT_EQ(steady.stepSeconds, ref)
                << name << " overlap=" << overlap;
        }
    }
}

TEST(TrainingSim, SteadyStateTotalsScaleExactly)
{
    // Per-step accounting is built once and scaled, so the multi-step
    // totals are exact multiples of the single-step metrics (the old
    // replicate-the-task-list path re-summed them with different
    // rounding; the contract is now exact).
    Rig rig(dnn::makeAlexNet());
    const auto plan = core::makeDataParallelPlan(rig.net, 4);
    const auto one = rig.simulator.simulate(plan);
    const auto steady = rig.simulator.simulateSteadyState(plan, 7);
    EXPECT_DOUBLE_EQ(steady.commBytes, 7.0 * one.commBytes);
    EXPECT_DOUBLE_EQ(steady.energy.computeJ, 7.0 * one.energy.computeJ);
    EXPECT_DOUBLE_EQ(steady.energy.sramJ, 7.0 * one.energy.sramJ);
    EXPECT_DOUBLE_EQ(steady.energy.dramJ, 7.0 * one.energy.dramJ);
    EXPECT_DOUBLE_EQ(steady.energy.commJ, 7.0 * one.energy.commJ);

    // steps == 1 stays the verbatim event-queue path: field-for-field
    // identical to simulate().
    const auto single = rig.simulator.simulateSteadyState(plan, 1);
    EXPECT_EQ(single, one);
}

TEST(TrainingSim, SteadyStateRejectsZeroSteps)
{
    Rig rig(dnn::makeLenetC());
    const auto plan = core::makeDataParallelPlan(rig.net, 4);
    EXPECT_THROW((void)rig.simulator.simulateSteadyState(plan, 0),
                 util::FatalError);
}

TEST(TrainingSim, RejectsMismatchedPlanDepth)
{
    Rig rig(dnn::makeLenetC(), 4);
    const auto plan = core::makeDataParallelPlan(rig.net, 2);
    EXPECT_THROW((void)rig.simulator.simulate(plan), util::FatalError);
}

TEST(TrainingSim, SamplesPerSecond)
{
    Rig rig(dnn::makeLenetC());
    const auto m = rig.simulator.simulate(
        core::makeDataParallelPlan(rig.net, 4));
    EXPECT_NEAR(m.samplesPerSec(256), 256.0 / m.stepSeconds, 1e-9);
    const std::string s = m.summary();
    EXPECT_NE(s.find("step"), std::string::npos);
    EXPECT_NE(s.find("comm"), std::string::npos);
}

TEST(TrainingSim, GoldenStepMetricsArePinnedBitForBit)
{
    for (const GoldenStep &g : kGoldenSteps) {
        const dnn::Network net = dnn::modelByName(g.model);
        const CommModel model(net, CommConfig{});
        const auto topo = sim::makeTopology(
            std::string(g.topology) == "htree" ? sim::TopologyKind::kHTree
                                               : sim::TopologyKind::kTorus,
            4, noc::TopologyConfig{});
        SimOptions opts;
        opts.overlapGradComm = g.overlap;
        const TrainingSimulator simulator(model, arch::AcceleratorConfig{},
                                          arch::EnergyModel{}, *topo,
                                          opts);
        const auto plan = core::makePlan(g.strategy, model, 4);
        EXPECT_EQ(hexMetrics(simulator.simulate(plan)), g.metrics)
            << g.model << " " << g.topology << " "
            << core::toString(g.strategy) << " overlap=" << g.overlap;
    }
}
