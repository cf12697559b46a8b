#include "sim/robust.hh"

#include <algorithm>
#include <memory>

#include "core/optimal_partitioner.hh"
#include "util/logging.hh"

namespace hypar::sim {

RobustResult
robustPlan(const dnn::Network &network, const SimConfig &config,
           const RobustOptions &options, util::ThreadPool &pool)
{
    if (options.samples == 0)
        util::fatal("robustPlan: need at least one fault-map sample");

    // The pristine array anchors the candidate pool and supplies the
    // component counts the sampler needs.
    SimConfig pristine = config;
    pristine.faults = arch::FaultMap{};
    Evaluator base(network, pristine);
    const std::size_t num_nodes = base.topology().numNodes();
    // Topologies without a link-level fault model (mesh) sample node
    // faults only; link entries would be rejected downstream.
    const std::size_t num_links = base.topology().supportsLinkFaults()
                                      ? base.topology().numLinks()
                                      : 0;

    RobustResult result;
    result.sampleMaps.reserve(options.samples);
    for (std::size_t k = 0; k < options.samples; ++k)
        result.sampleMaps.push_back(
            arch::sampleFaultMap(options.rate, num_nodes, num_links,
                                 arch::mixSeed(options.seed, k)));

    // Candidate pool: the pristine optimum first, then each sample's
    // exact re-planned optimum, deduplicated in discovery order so the
    // tie-break below is well defined.
    std::vector<core::HierarchicalPlan> plans;
    auto add_candidate = [&](core::HierarchicalPlan plan) {
        if (std::find(plans.begin(), plans.end(), plan) == plans.end())
            plans.push_back(std::move(plan));
    };
    add_candidate(core::OptimalPartitioner(base.model())
                      .partition(pristine.levels)
                      .plan);

    // Every sampled degraded array gets its own evaluator; kept alive
    // so the scoring pass below reuses the built models and topologies.
    std::vector<std::unique_ptr<Evaluator>> sample_evs;
    sample_evs.reserve(options.samples);
    for (const arch::FaultMap &map : result.sampleMaps) {
        SimConfig degraded = pristine;
        degraded.faults = map;
        auto ev = std::make_unique<Evaluator>(network, degraded);
        add_candidate(core::OptimalPartitioner(ev->model())
                          .partition(pristine.levels)
                          .plan);
        sample_evs.push_back(std::move(ev));
    }

    // Score: every candidate on every sampled array. evaluateBatch is
    // bit-identical at any thread count, and the mean accumulates in
    // fixed sample order, so the whole search is too.
    result.candidates.resize(plans.size());
    for (std::size_t c = 0; c < plans.size(); ++c) {
        result.candidates[c].plan = plans[c];
        result.candidates[c].sampleStepSeconds.resize(options.samples);
    }
    for (std::size_t k = 0; k < options.samples; ++k) {
        const std::vector<StepMetrics> metrics =
            sample_evs[k]->evaluateBatch(
                std::span<const core::HierarchicalPlan>(plans), pool);
        for (std::size_t c = 0; c < plans.size(); ++c)
            result.candidates[c].sampleStepSeconds[k] =
                metrics[c].stepSeconds;
    }
    for (RobustCandidate &cand : result.candidates) {
        double sum = 0.0;
        for (const double s : cand.sampleStepSeconds)
            sum += s;
        cand.expectedStepSeconds =
            sum / static_cast<double>(options.samples);
    }

    // Argmin expected cost; ties toward the earliest candidate.
    std::size_t best = 0;
    for (std::size_t c = 1; c < result.candidates.size(); ++c) {
        if (result.candidates[c].expectedStepSeconds <
            result.candidates[best].expectedStepSeconds)
            best = c;
    }
    result.winner = best;
    result.plan = result.candidates[best].plan;
    result.expectedStepSeconds =
        result.candidates[best].expectedStepSeconds;
    result.pristineExpectedStepSeconds =
        result.candidates[0].expectedStepSeconds;
    return result;
}

RobustResult
robustPlan(const dnn::Network &network, const SimConfig &config,
           const RobustOptions &options)
{
    return robustPlan(network, config, options,
                      util::ThreadPool::global());
}

} // namespace hypar::sim
