/**
 * @file
 * Ablation studies for the model's design choices (not a paper figure;
 * supports docs/ARCHITECTURE.md, "Fidelity notes"):
 *
 *  1. Hierarchical scaling policy: Partitioned (physical) vs None
 *     (every level sees full tensors) — effect on HyPar's plan and
 *     total communication.
 *  2. Exchange factor 2 (both peers fetch) vs 1 (one-directional).
 *  3. Gradient-communication overlap on/off in the simulator.
 *  4. Link-bandwidth sensitivity of the HyPar speedup.
 */

#include "bench_common.hh"

#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;

namespace {

void
scalingAblation()
{
    bench::banner("Ablation 1: hierarchical scaling policy",
                  "docs/ARCHITECTURE.md, Model interpretation");
    util::Table t({"network", "HyPar comm (Partitioned)",
                   "HyPar comm (None)", "plans differ?"});
    for (const auto &name : {"SFC", "AlexNet", "VGG-A"}) {
        dnn::Network net = dnn::modelByName(name);

        CommConfig part_cfg;
        CommModel part(net, part_cfg);
        const auto rp = core::HierarchicalPartitioner(part).partition(4);

        CommConfig none_cfg;
        none_cfg.scaling = CommConfig::Scaling::kNone;
        CommModel none(net, none_cfg);
        const auto rn = core::HierarchicalPartitioner(none).partition(4);

        t.addRow({name, util::formatBytes(rp.commBytes),
                  util::formatBytes(rn.commBytes),
                  rp.plan == rn.plan ? "no" : "yes"});
    }
    t.print(std::cout);
    std::cout << "\nUnder 'None' every level repeats the top-level "
                 "choice; SFC's fc1@H3 dp flip\n(Fig. 5(a)) only "
                 "appears under the Partitioned policy.\n";
}

void
exchangeFactorAblation()
{
    bench::banner("Ablation 2: exchange factor (2 = both peers fetch)",
                  "Section 3.4's 56 KB example");
    util::Table t({"network", "DP comm (factor 2)", "DP comm (factor 1)"});
    for (const auto &name : {"Lenet-c", "VGG-A"}) {
        dnn::Network net = dnn::modelByName(name);
        CommConfig two;
        CommConfig one;
        one.exchangeFactor = 1.0;
        const auto plan = core::makeDataParallelPlan(net, 4);
        t.addRow({name,
                  util::formatBytes(CommModel(net, two).planBytes(plan)),
                  util::formatBytes(CommModel(net, one).planBytes(plan))});
    }
    t.print(std::cout);
    std::cout << "\nFactor 2 is what matches the paper's Fig. 8 DP "
                 "column (e.g. VGG-A 15.9 GB).\n";
}

void
overlapAblation()
{
    bench::banner("Ablation 3: gradient-communication overlap",
                  "simulator option (off in the paper)");
    util::Table t({"network", "DP step (sync)", "DP step (overlap)",
                   "speedup"});
    for (const auto &name : {"AlexNet", "VGG-A", "SFC"}) {
        dnn::Network net = dnn::modelByName(name);
        sim::SimConfig sync_cfg = bench::paperConfig();
        sim::SimConfig overlap_cfg = bench::paperConfig();
        overlap_cfg.options.overlapGradComm = true;

        const double t_sync =
            sim::Evaluator(net, sync_cfg)
                .evaluate(core::Strategy::kDataParallel)
                .stepSeconds;
        const double t_over =
            sim::Evaluator(net, overlap_cfg)
                .evaluate(core::Strategy::kDataParallel)
                .stepSeconds;
        t.addRow({name, util::formatSeconds(t_sync),
                  util::formatSeconds(t_over),
                  bench::ratio(t_sync / t_over)});
    }
    t.print(std::cout);
}

void
bandwidthSensitivity()
{
    bench::banner("Ablation 4: link-bandwidth sensitivity (VGG-A)",
                  "HyPar speedup vs root bisection");
    util::Table t({"root bisection", "leaf link", "HyPar speedup vs DP"});
    for (const double gbits : {3.2, 6.4, 12.8, 25.6, 51.2}) {
        sim::SimConfig cfg = bench::paperConfig();
        cfg.noc.rootBisection = util::gbitsPerSec(gbits);
        cfg.noc.linkBandwidth = util::gbitsPerSec(gbits / 8.0);
        const auto report =
            sim::compareStrategies(dnn::makeVggA(), cfg);
        t.addRow({bench::sig3(gbits) + " Gb/s",
                  bench::sig3(gbits / 8.0 * 1000.0) + " Mb/s",
                  bench::ratio(report.hyparSpeedup())});
    }
    t.print(std::cout);
    std::cout << "\nThe slower the interconnect, the more HyPar's "
                 "communication savings matter.\n";
}

void
greedyVsOptimal()
{
    bench::banner("Ablation 5: greedy Algorithm 2 vs exact joint optimum",
                  "extension beyond the paper");
    util::Table t({"network", "greedy comm", "optimal comm",
                   "greedy overhead"});
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto greedy =
            core::HierarchicalPartitioner(model).partition(4);
        const auto exact = core::OptimalPartitioner(model).partition(4);
        t.addRow({net.name(), util::formatBytes(greedy.commBytes),
                  util::formatBytes(exact.commBytes),
                  bench::ratio(100.0 * (greedy.commBytes -
                                        exact.commBytes) /
                               exact.commBytes) + "%"});
    }
    t.print(std::cout);
    std::cout << "\nThe exact joint DP over all (2^H)^L assignments "
                 "(O(L*4^H)) confirms the paper's greedy\nlevel-by-level "
                 "search is near-optimal on real networks.\n";
}

void
topologyTriple()
{
    bench::banner("Ablation 6: H-tree vs torus vs mesh (VGG-A, HyPar)",
                  "mesh is our added design point");
    util::Table t({"topology", "step time", "speedup vs DP on H-tree"});
    sim::SimConfig tree_cfg = bench::paperConfig();
    const double dp_time =
        sim::Evaluator(dnn::makeVggA(), tree_cfg)
            .evaluate(core::Strategy::kDataParallel)
            .stepSeconds;
    for (auto kind : {sim::TopologyKind::kHTree, sim::TopologyKind::kTorus,
                      sim::TopologyKind::kMesh}) {
        sim::SimConfig cfg = bench::paperConfig();
        cfg.topology = kind;
        sim::Evaluator ev(dnn::makeVggA(), cfg);
        const auto m = ev.evaluate(core::Strategy::kHypar);
        t.addRow({ev.topology().name(),
                  util::formatSeconds(m.stepSeconds),
                  bench::ratio(dp_time / m.stepSeconds)});
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    scalingAblation();
    exchangeFactorAblation();
    overlapAblation();
    bandwidthSensitivity();
    greedyVsOptimal();
    topologyTriple();
    return 0;
}
