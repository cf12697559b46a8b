/**
 * @file
 * Unit tests for the two-tape replay of a training step (serial tape:
 * compute and synchronous exchanges; network tape: the overlapped
 * gradient reductions), read through the per-task trace simulate()
 * records: on hand-computable networks every task's start must follow
 * the tape rules exactly, and the sweep's variant replay must emit the
 * same trace as a direct simulate() of each mask's plan.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "noc/htree.hh"
#include "sim/training_sim.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::HierarchicalPlan;
using core::Parallelism;
using sim::SimOptions;
using sim::TraceEntry;
using sim::TrainingSimulator;

namespace {

struct Rig
{
    explicit Rig(const dnn::Network &n, std::size_t levels = 2,
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

/** A tiny two-fc-layer network (both layers hand-traceable). */
dnn::Network
twoLayerNet()
{
    dnn::NetworkBuilder b("two", {16, 1, 1});
    b.fc("fc1", 64).fc("fc2", 32);
    return b.build();
}

/** Three layers so a dp-mp boundary exists mid-network. */
dnn::Network
threeLayerNet()
{
    dnn::NetworkBuilder b("three", {16, 1, 1});
    b.fc("fc1", 64).fc("fc2", 128).fc("fc3", 32);
    return b.build();
}

/** True for an overlapped gradient reduction's trace label. */
bool
isGradx(const TraceEntry &e)
{
    return e.label.rfind("gradx:", 0) == 0;
}

/** True for a compute task's trace label. */
bool
isCompute(const TraceEntry &e)
{
    for (const char *tag : {"fwd:", "bwd:", "grad:"})
        if (e.label.rfind(tag, 0) == 0)
            return true;
    return false;
}

} // namespace

// Without overlap every task rides the serial tape: the trace is one
// unbroken chain from 0, and the step ends with its last task.
TEST(OverlapSchedule, DegeneratesToSerialChainWithoutOverlap)
{
    SimOptions opts;
    opts.recordTrace = true;
    Rig rig(twoLayerNet(), 2, opts);
    const auto plan = core::makeDataParallelPlan(rig.net, 2);
    const auto metrics = rig.simulator.simulate(plan);
    const auto &t = rig.simulator.lastTrace();

    ASSERT_FALSE(t.empty());
    EXPECT_EQ(t[0].start, 0.0);
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_EQ(t[i].start, t[i - 1].end) << i;
    EXPECT_EQ(metrics.stepSeconds, t.back().end);
}

// Hand-computable all-dp two-layer case at H = 1: the task list is
// fwd0 fwd1 bwd1 grad0 gradx0 grad1 gradx1 (dp-dp boundaries move no
// tensors), and the gradient reductions ride the network tape:
//
//   gradx0 starts when grad0 ends (the network was idle);
//   grad1  starts when grad0 ends too (gradx0 does not block compute);
//   gradx1 starts when both the network (gradx0) and its data (grad1)
//          are ready;
//   the step ends when the later tape drains.
TEST(OverlapSchedule, HandComputedTwoLayerAllDp)
{
    SimOptions opts;
    opts.overlapGradComm = true;
    opts.recordTrace = true;
    Rig rig(twoLayerNet(), 1, opts);
    const auto plan = core::makeDataParallelPlan(rig.net, 1);
    const auto metrics = rig.simulator.simulate(plan);
    const auto &t = rig.simulator.lastTrace();

    ASSERT_EQ(t.size(), 7u);
    const char *labels[] = {"fwd:fc1",  "fwd:fc2",        "bwd:fc2",
                            "grad:fc1", "gradx:fc1@H1",   "grad:fc2",
                            "gradx:fc2@H1"};
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i].label, labels[i]) << i;

    // The serial chain up to grad0.
    EXPECT_EQ(t[0].start, 0.0);
    for (const std::size_t i : {1u, 2u, 3u})
        EXPECT_EQ(t[i].start, t[i - 1].end) << i;

    EXPECT_EQ(t[4].start, t[3].end);
    EXPECT_EQ(t[5].start, t[3].end);
    EXPECT_EQ(t[6].start, std::max(t[4].end, t[5].end));
    EXPECT_EQ(metrics.stepSeconds, std::max(t[5].end, t[6].end));

    // Overlap hides the first reduction under grad1's compute.
    EXPECT_LT(t[5].start, t[4].end);
}

// With overlap on, the network tape carries exactly the gradient
// reductions: the task list is the one the serial schedule runs, a
// reduction never starts before its data (the last compute) or before
// the last synchronous exchange ends, and a synchronous exchange waits
// for every earlier task, the overlapped ones included.
TEST(OverlapSchedule, NetworkTapeCarriesExactlyTheGradientReductions)
{
    SimOptions serial_opts;
    serial_opts.recordTrace = true;
    SimOptions opts = serial_opts;
    opts.overlapGradComm = true;
    Rig serial_rig(dnn::makeLenetC(), 4, serial_opts);
    Rig rig(dnn::makeLenetC(), 4, opts);
    const auto plan = core::makeHyparPlan(rig.model, 4);
    (void)serial_rig.simulator.simulate(plan);
    const auto metrics = rig.simulator.simulate(plan);
    const auto &serial = serial_rig.simulator.lastTrace();
    const auto &t = rig.simulator.lastTrace();

    ASSERT_EQ(t.size(), serial.size());
    double last_compute_end = 0.0;
    double last_sync_end = 0.0;
    double max_end = 0.0;
    std::size_t async_count = 0;
    std::size_t sync_exchanges = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i].label, serial[i].label) << i;
        if (isGradx(t[i])) {
            ++async_count;
            EXPECT_GE(t[i].start, last_compute_end) << i;
            EXPECT_GE(t[i].start, last_sync_end) << i;
        } else if (isCompute(t[i])) {
            last_compute_end = t[i].end;
        } else {
            ++sync_exchanges;
            EXPECT_GE(t[i].start, max_end) << i;
            last_sync_end = t[i].end;
        }
        max_end = std::max(max_end, t[i].end);
    }
    EXPECT_GT(async_count, 0u);
    EXPECT_GT(sync_exchanges, 0u);
    EXPECT_EQ(metrics.stepSeconds, max_end);
}

// Tracing sweeps replay the variant tables too (the fallback to
// per-mask simulate() is gone): for every mask, the metrics AND the
// full per-task trace — start, end, label — must equal a direct
// simulate() of the substituted plan, in both overlap modes.
TEST(OverlapSchedule, SweepRecordTraceMatchesPerMaskSimulate)
{
    for (const bool overlap : {false, true}) {
        SimOptions opts;
        opts.overlapGradComm = overlap;
        opts.recordTrace = true;
        Rig rig(threeLayerNet(), 2, opts);
        Rig oracle(threeLayerNet(), 2, opts);
        const auto base = core::makeDataParallelPlan(rig.net, 2);

        for (std::size_t level = 0; level < 2; ++level) {
            std::uint64_t visited = 0;
            rig.simulator.sweepNeighborhood(
                base, level,
                [&](std::uint64_t mask, const sim::StepMetrics &m) {
                    EXPECT_EQ(mask, visited++);
                    HierarchicalPlan plan = base;
                    plan.levels[level] =
                        core::levelPlanFromMask(mask, rig.net.size());
                    const auto ref = oracle.simulator.simulate(plan);
                    EXPECT_EQ(m.stepSeconds, ref.stepSeconds);
                    EXPECT_EQ(m.commBytes, ref.commBytes);

                    const auto &got = rig.simulator.lastTrace();
                    const auto &want = oracle.simulator.lastTrace();
                    ASSERT_EQ(got.size(), want.size())
                        << "overlap " << overlap << " level " << level
                        << " mask " << mask;
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        EXPECT_EQ(got[i].start, want[i].start) << i;
                        EXPECT_EQ(got[i].end, want[i].end) << i;
                        EXPECT_EQ(got[i].label, want[i].label) << i;
                    }
                });
            EXPECT_EQ(visited, std::uint64_t{1} << rig.net.size());
        }
    }
}

// After a tracing sweep, lastTrace() holds the final mask's trace —
// identical to tracing the substituted plan directly.
TEST(OverlapSchedule, SweepRecordTraceKeepsLastMaskTrace)
{
    SimOptions opts;
    opts.overlapGradComm = true;
    opts.recordTrace = true;
    Rig rig(twoLayerNet(), 2, opts);
    const auto base = core::makeDataParallelPlan(rig.net, 2);

    std::size_t visited = 0;
    rig.simulator.sweepNeighborhood(
        base, 1, [&](std::uint64_t, const sim::StepMetrics &) {
            ++visited;
        });
    ASSERT_EQ(visited, std::size_t{1} << rig.net.size());
    const auto swept_trace = rig.simulator.lastTrace();

    HierarchicalPlan last = base;
    last.levels[1] = core::levelPlanFromMask(
        (std::uint64_t{1} << rig.net.size()) - 1, rig.net.size());
    (void)rig.simulator.simulate(last);
    const auto &direct = rig.simulator.lastTrace();

    ASSERT_EQ(swept_trace.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(swept_trace[i].start, direct[i].start) << i;
        EXPECT_EQ(swept_trace[i].end, direct[i].end) << i;
        EXPECT_EQ(swept_trace[i].label, direct[i].label) << i;
    }
}
