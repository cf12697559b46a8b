#include "sim/training_sim.hh"

#include <algorithm>
#include <cmath>

#include "core/brute_force.hh"
#include "core/level_bits.hh"
#include "util/logging.hh"

namespace hypar::sim {

namespace {

constexpr int kFwd = 0;
constexpr int kBwd = 1;
constexpr int kGrad = 2;

/** Accumulate a duration into the right phase bucket. */
void
addPhaseSeconds(TimeBreakdown &phases, int phase, double seconds)
{
    switch (phase) {
      case kFwd:
        phases.forward += seconds;
        break;
      case kBwd:
        phases.backward += seconds;
        break;
      default:
        phases.gradient += seconds;
        break;
    }
}

/**
 * The two tapes of a step replay, and the one place their update rules
 * are written. The serial tape is the lockstep chain: compute tasks and
 * synchronous exchanges advance it. The network tape is the
 * interconnect's occupancy: an overlapped gradient reduction starts
 * once its data is ready (serial) and the interconnect is idle
 * (network), and advances only the network tape; a synchronous
 * exchange also holds the interconnect, so it waits for the network
 * tape and leaves both tapes at its end. Both tapes only grow and every
 * task ends at the new value of one of them, so the latest task end is
 * finish().
 */
struct Tapes
{
    struct Span
    {
        double start = 0.0;
        double end = 0.0;
    };

    double serial = 0.0;
    double network = 0.0;

    Span
    compute(double seconds)
    {
        const double start = serial;
        serial = start + seconds;
        return {start, serial};
    }

    Span
    syncExchange(double seconds)
    {
        const double start = std::max(serial, network);
        serial = start + seconds;
        network = serial;
        return {start, serial};
    }

    Span
    asyncExchange(double seconds)
    {
        const double start = std::max(network, serial);
        network = start + seconds;
        return {start, network};
    }

    double finish() const { return std::max(serial, network); }
};

} // namespace

TrainingSimulator::TrainingSimulator(const core::CommModel &model,
                                     const arch::AcceleratorConfig &acc,
                                     const arch::EnergyModel &energy,
                                     const noc::Topology &topo,
                                     const SimOptions &options)
    : model_(&model), acc_(acc), energy_(energy), topo_(&topo),
      options_(options), mapper_(acc)
{
    arch::validateAcceleratorConfig(acc_);
    if (!(options_.computeScale > 0.0) ||
        !std::isfinite(options_.computeScale))
        util::fatal("TrainingSimulator: SimOptions::computeScale must "
                    "be positive and finite");
}

void
TrainingSimulator::addExchange(std::vector<Task> &tasks, std::size_t level,
                               double pair_bytes, bool async, int phase,
                               const char *tag,
                               const std::string &layer_name,
                               StepMetrics &metrics) const
{
    if (pair_bytes <= 0.0)
        return;

    Task t;
    t.kind = Task::Kind::kExchange;
    t.seconds = topo_->exchangeSeconds(level, pair_bytes);
    t.globalBytes = pair_bytes * std::ldexp(1.0, static_cast<int>(level));
    t.async = async;
    t.phase = phase;
    // Labels only feed the trace; skipping them keeps the hot sweep and
    // batch paths free of per-task string allocations.
    if (options_.recordTrace)
        t.label = std::string(tag) + ":" + layer_name + "@H" +
                  std::to_string(level + 1);
    metrics.commBytes += t.globalBytes;

    // Remote word: DRAM read at the producer, link traversal, DRAM
    // write at the consumer; reductions additionally pay one fp32 add
    // per received word (counted as compute energy).
    const double words = t.globalBytes / model_->config().wordBytes;
    metrics.energy.commJ +=
        words * 2.0 * energy_.dramWordJ +
        energy_.linkEnergy(words, topo_->exchangeHops(level));
    metrics.energy.computeJ += words * energy_.addJ;

    tasks.push_back(std::move(t));
}

std::vector<TrainingSimulator::Task>
TrainingSimulator::buildTasks(const core::HierarchicalPlan &plan,
                              StepMetrics &metrics) const
{
    const dnn::Network &net = model_->network();
    const core::CommConfig &comm = model_->config();
    const std::size_t num_layers = net.size();
    const std::size_t levels = plan.numLevels();
    const double num_accs = std::ldexp(1.0, static_cast<int>(levels));
    const double batch = static_cast<double>(comm.batch);

    core::validatePlan(plan, net);
    if (levels != topo_->levels())
        util::fatal("TrainingSimulator: plan depth does not match the "
                    "topology");

    // Per-layer level-vector columns: bit h of col[l] set = layer l
    // runs model-parallel at level h. All the dp/mp counts the scaling
    // needs are functions of a layer's own column (core::dpAbove).
    HYPAR_ASSERT(levels < 32, "plan depth exceeds the 32-bit column");
    std::vector<std::uint32_t> col(num_layers, 0);
    for (std::size_t h = 0; h < levels; ++h)
        for (std::size_t l = 0; l < num_layers; ++l)
            if (plan.levels[h][l] == core::Parallelism::kModel)
                col[l] |= std::uint32_t{1} << h;

    // Per-layer shard geometry after all H splits.
    std::vector<double> batch_shard(num_layers);
    std::vector<double> weight_shard(num_layers);
    std::vector<double> in_shard(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        const auto d = static_cast<int>(core::dpAbove(col[l], levels));
        const auto m = static_cast<int>(levels) - d;
        batch_shard[l] = batch * std::ldexp(1.0, -d);
        weight_shard[l] = static_cast<double>(
                              net.layer(l).weightElems()) *
                          std::ldexp(1.0, -m);
        in_shard[l] = static_cast<double>(
                          net.layer(l).inElemsPerSample()) *
                      std::ldexp(1.0, -m);
    }

    std::vector<Task> tasks;

    // Emit one compute task (PE time overlapped with DRAM streaming).
    auto add_compute = [&](std::size_t l, int phase, double macs,
                           double dram_bytes, const char *tag) {
        const dnn::Layer &layer = net.layer(l);
        const auto map_batch = static_cast<std::size_t>(
            std::max(1.0, std::floor(batch_shard[l])));
        const double pe_sec = mapper_.phaseSeconds(layer, map_batch, macs);
        const double dram_sec = dram_bytes / acc_.dramBandwidth;

        Task t;
        t.kind = Task::Kind::kCompute;
        // Slowest-surviving-node derating (1.0 pristine, exact).
        t.seconds = std::max(pe_sec, dram_sec) * options_.computeScale;
        t.phase = phase;
        if (options_.recordTrace)
            t.label = std::string(tag) + ":" + layer.name;
        metrics.computeBusySeconds += t.seconds;

        const arch::Mapping mapping = mapper_.map(layer, map_batch);
        metrics.energy.computeJ +=
            num_accs * energy_.computeEnergy(macs);
        metrics.energy.sramJ += num_accs * energy_.sramEnergy(
            macs * mapping.sramWordsPerMac);
        metrics.energy.dramJ += num_accs * energy_.dramEnergy(
            dram_bytes / comm.wordBytes);
        tasks.push_back(std::move(t));
    };

    // Per-accelerator MACs of one phase of layer l: every hierarchy
    // level halves either the batch or the input channels.
    auto shard_macs = [&](std::size_t l) {
        return net.layer(l).fwdMacsPerSample() * batch / num_accs;
    };

    // --- forward -------------------------------------------------------
    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double out_elems =
            static_cast<double>(layer.outRawElemsPerSample()) *
            batch_shard[l];
        const double dram_bytes =
            (in_shard[l] * batch_shard[l] + weight_shard[l] + out_elems) *
            comm.wordBytes;
        add_compute(l, kFwd, shard_macs(l), dram_bytes, "fwd");

        for (std::size_t h = 0; h < levels; ++h) {
            if (plan.levels[h][l] == core::Parallelism::kModel) {
                const unsigned dp = core::dpAbove(col[l], h);
                addExchange(tasks, h,
                            model_->intraBytesAt(
                                l, core::Parallelism::kModel, dp,
                                static_cast<unsigned>(h) - dp),
                            false, kFwd, "psum", layer.name, metrics);
            }
            // Forward boundary exchanges: one per outgoing DAG edge,
            // destinations ascending. On a chain this is exactly the
            // old single l -> l+1 term.
            for (const std::size_t w : net.succs(l)) {
                addExchange(tasks, h,
                            model_->interBytesFAt(
                                l, plan.levels[h][l],
                                plan.levels[h][w],
                                core::dpAbove(col[l], h)),
                            false, kFwd, "featx", layer.name, metrics);
            }
        }
    }

    // --- error backward (layer 0 needs no input error) ------------------
    for (std::size_t l = num_layers; l-- > 1;) {
        const dnn::Layer &layer = net.layer(l);
        const double out_elems =
            static_cast<double>(layer.outRawElemsPerSample()) *
            batch_shard[l];
        const double dram_bytes =
            (out_elems + weight_shard[l] + in_shard[l] * batch_shard[l]) *
            comm.wordBytes;
        add_compute(l, kBwd, shard_macs(l), dram_bytes, "bwd");

        // The incoming edges u -> l move E_l during backward (its
        // batch dimension follows layer l's upper dp splits); a join
        // layer fans its error back along every incoming edge. On a
        // chain this is exactly the old single l-1 -> l term.
        for (std::size_t h = 0; h < levels; ++h) {
            for (const std::size_t u : net.preds(l)) {
                addExchange(tasks, h,
                            model_->interBytesEAt(
                                u, plan.levels[h][u], plan.levels[h][l],
                                core::dpAbove(col[l], h)),
                            false, kBwd, "errx", layer.name, metrics);
            }
        }
    }

    // --- gradient + weight update ---------------------------------------
    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double out_elems =
            static_cast<double>(layer.outRawElemsPerSample()) *
            batch_shard[l];
        // Read activations and errors, write the gradient, then
        // read-modify-write the kernel for the update.
        const double dram_bytes =
            (in_shard[l] * batch_shard[l] + out_elems +
             3.0 * weight_shard[l]) * comm.wordBytes;
        add_compute(l, kGrad, shard_macs(l), dram_bytes, "grad");

        for (std::size_t h = 0; h < levels; ++h) {
            if (plan.levels[h][l] == core::Parallelism::kData) {
                const unsigned dp = core::dpAbove(col[l], h);
                addExchange(tasks, h,
                            model_->intraBytesAt(
                                l, core::Parallelism::kData, dp,
                                static_cast<unsigned>(h) - dp),
                            options_.overlapGradComm, kGrad, "gradx",
                            layer.name, metrics);
            }
        }
    }

    return tasks;
}

StepMetrics
TrainingSimulator::simulate(const core::HierarchicalPlan &plan) const
{
    return simulateSteadyState(plan, 1);
}

StepMetrics
TrainingSimulator::simulateSteadyState(const core::HierarchicalPlan &plan,
                                       std::size_t steps) const
{
    if (steps == 0)
        util::fatal("simulateSteadyState: need at least one step");

    StepMetrics metrics;
    const std::vector<Task> step_tasks = buildTasks(plan, metrics);

    // Per-step accounting was accumulated once by buildTasks; scale
    // the totals.
    const auto steps_d = static_cast<double>(steps);
    metrics.commBytes *= steps_d;
    metrics.energy.computeJ *= steps_d;
    metrics.energy.sramJ *= steps_d;
    metrics.energy.dramJ *= steps_d;
    metrics.energy.commJ *= steps_d;
    metrics.computeBusySeconds = 0.0; // re-accumulated by the replay
    trace_.clear();

    // Step s + 1's first task follows step s's last, so the tapes run
    // on across step boundaries: tail gradient reductions of one step
    // drain under the next step's forward compute.
    Tapes tapes;
    double first_finish = 0.0;
    for (std::size_t s = 0; s < steps; ++s) {
        for (const Task &t : step_tasks) {
            Tapes::Span span;
            if (t.kind == Task::Kind::kCompute) {
                span = tapes.compute(t.seconds);
                metrics.computeBusySeconds += t.seconds;
            } else {
                span = t.async ? tapes.asyncExchange(t.seconds)
                               : tapes.syncExchange(t.seconds);
                metrics.networkBusySeconds += t.seconds;
            }
            addPhaseSeconds(metrics.phases, t.phase, t.seconds);
            if (options_.recordTrace)
                trace_.push_back(TraceEntry{span.start, span.end, t.label});
        }
        if (s == 0)
            first_finish = tapes.finish();
    }
    // One step ends when both tapes have drained; past one step, the
    // cadence is the spacing of the step boundaries after warm-up.
    metrics.stepSeconds =
        steps == 1 ? first_finish
                   : (tapes.finish() - first_finish) / (steps_d - 1.0);
    return metrics;
}

namespace {

/** Precomputed contributions of one compute task under one flip bit. */
struct ComputeContrib
{
    double seconds = 0.0;
    double computeJ = 0.0;
    double sramJ = 0.0;
    double dramJ = 0.0;
};

/** Precomputed contributions of one exchange slot under one variant. */
struct ExchangeContrib
{
    bool present = false; //!< addExchange skips zero-byte exchanges
    double seconds = 0.0;
    double globalBytes = 0.0;
    double commJ = 0.0; //!< remote DRAM + link energy
    double addJ = 0.0;  //!< reduction adds, booked as compute energy
};

} // namespace

void
TrainingSimulator::sweepNeighborhood(
    const core::HierarchicalPlan &base, std::size_t level,
    const std::function<void(std::uint64_t, const StepMetrics &)> &visit)
    const
{
    const dnn::Network &net = model_->network();
    const core::CommConfig &comm = model_->config();
    const std::size_t num_layers = net.size();
    const std::size_t levels = base.numLevels();

    core::validatePlan(base, net);
    if (levels != topo_->levels())
        util::fatal("sweepNeighborhood: plan depth does not match the "
                    "topology");
    if (level >= levels)
        util::fatal("sweepNeighborhood: swept level out of range");
    if (num_layers > 24)
        util::fatal("sweepNeighborhood: more than 24 layers makes the "
                    "2^L sweep unreasonable");

    // DAG networks: the 4-variant incremental tables below key the
    // inter exchanges by the chain transition (l, l+1), which does not
    // hold with joins. Fall back to one full simulate() per
    // substituted mask — bit-identical by definition, just O(2^L)
    // rebuilds. An incremental DAG sweep is a recorded follow-up
    // (ROADMAP).
    if (!net.isChain()) {
        core::sweepLevelMasks(
            base, level,
            [&](std::uint64_t mask, const core::HierarchicalPlan &plan) {
                visit(mask, simulate(plan));
            });
        return;
    }

    const std::uint64_t num_masks = std::uint64_t{1} << num_layers;

    // ---- precompute ---------------------------------------------------
    //
    // Flipping layer l's choice at the swept level changes only values
    // that depend on that bit: layer l's shard geometry (all three
    // compute tasks), its intra exchanges at the swept level (choice)
    // and below it (scaling), and the two adjacent inter exchanges
    // (which also read the neighbor's bit). Every task slot therefore
    // has at most 4 variants; precompute them all with the exact
    // arithmetic buildTasks uses, then score each mask by replaying the
    // accumulator sequence below.

    const double num_accs = std::ldexp(1.0, static_cast<int>(levels));
    const double batch = static_cast<double>(comm.batch);

    // dp/mp counts of the base plan's levels 0..h-1 *excluding* the
    // swept level, per layer; the swept bit is patched in per variant.
    std::vector<unsigned> dp_excl((levels + 1) * num_layers, 0);
    std::vector<unsigned> mp_excl((levels + 1) * num_layers, 0);
    for (std::size_t h = 0; h < levels; ++h) {
        for (std::size_t l = 0; l < num_layers; ++l) {
            unsigned dp = dp_excl[h * num_layers + l];
            unsigned mp = mp_excl[h * num_layers + l];
            if (h != level) {
                if (base.levels[h][l] == core::Parallelism::kData)
                    ++dp;
                else
                    ++mp;
            }
            dp_excl[(h + 1) * num_layers + l] = dp;
            mp_excl[(h + 1) * num_layers + l] = mp;
        }
    }
    // Upper-level counts seen by hierarchy level h for layer l when the
    // swept bit of layer l is `b` (1 = mp). The swept level only counts
    // for levels strictly below it.
    auto dp_above = [&](std::size_t h, std::size_t l, int b) {
        return dp_excl[h * num_layers + l] +
               ((h > level && b == 0) ? 1u : 0u);
    };
    auto mp_above = [&](std::size_t h, std::size_t l, int b) {
        return mp_excl[h * num_layers + l] +
               ((h > level && b == 1) ? 1u : 0u);
    };
    // Effective choice of (level h, layer l) when the swept bit is b.
    auto choice = [&](std::size_t h, std::size_t l, int b) {
        if (h == level)
            return b ? core::Parallelism::kModel
                     : core::Parallelism::kData;
        return base.levels[h][l];
    };

    auto make_exchange = [&](std::size_t h, double pair_bytes) {
        ExchangeContrib c;
        if (pair_bytes <= 0.0)
            return c;
        c.present = true;
        c.seconds = topo_->exchangeSeconds(h, pair_bytes);
        c.globalBytes =
            pair_bytes * std::ldexp(1.0, static_cast<int>(h));
        const double words = c.globalBytes / comm.wordBytes;
        c.commJ = words * 2.0 * energy_.dramWordJ +
                  energy_.linkEnergy(words, topo_->exchangeHops(h));
        c.addJ = words * energy_.addJ;
        return c;
    };

    // comp[(3*l + phase) * 2 + b]; bwd entries of layer 0 stay unused.
    std::vector<ComputeContrib> comp(num_layers * 3 * 2);
    // intra slots: [(l * levels + h) * 2 + b]
    std::vector<ExchangeContrib> psum(num_layers * levels * 2);
    std::vector<ExchangeContrib> gradx(num_layers * levels * 2);
    // inter slots of transition l -> l+1: [(l * levels + h) * 4 +
    // (2*b_l + b_next)]
    const std::size_t transitions = num_layers > 0 ? num_layers - 1 : 0;
    std::vector<ExchangeContrib> featx(transitions * levels * 4);
    std::vector<ExchangeContrib> errx(transitions * levels * 4);

    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double macs =
            net.layer(l).fwdMacsPerSample() * batch / num_accs;
        for (int b = 0; b < 2; ++b) {
            // Shard geometry after all H splits, swept bit = b.
            const auto d_full = static_cast<int>(
                dp_excl[levels * num_layers + l] + (b == 0 ? 1u : 0u));
            const auto m_full = static_cast<int>(
                mp_excl[levels * num_layers + l] + (b == 1 ? 1u : 0u));
            const double batch_shard = batch * std::ldexp(1.0, -d_full);
            const double weight_shard =
                static_cast<double>(layer.weightElems()) *
                std::ldexp(1.0, -m_full);
            const double in_shard =
                static_cast<double>(layer.inElemsPerSample()) *
                std::ldexp(1.0, -m_full);
            const double out_elems =
                static_cast<double>(layer.outRawElemsPerSample()) *
                batch_shard;

            const auto map_batch = static_cast<std::size_t>(
                std::max(1.0, std::floor(batch_shard)));
            const double pe_sec =
                mapper_.phaseSeconds(layer, map_batch, macs);
            const arch::Mapping mapping = mapper_.map(layer, map_batch);
            const double compute_j =
                num_accs * energy_.computeEnergy(macs);
            const double sram_j = num_accs * energy_.sramEnergy(
                macs * mapping.sramWordsPerMac);

            const double dram_bytes[3] = {
                (in_shard * batch_shard + weight_shard + out_elems) *
                    comm.wordBytes,
                (out_elems + weight_shard + in_shard * batch_shard) *
                    comm.wordBytes,
                (in_shard * batch_shard + out_elems +
                 3.0 * weight_shard) * comm.wordBytes,
            };
            for (int phase = 0; phase < 3; ++phase) {
                ComputeContrib &c = comp[(3 * l + phase) * 2 + b];
                const double dram_sec =
                    dram_bytes[phase] / acc_.dramBandwidth;
                c.seconds =
                    std::max(pe_sec, dram_sec) * options_.computeScale;
                c.computeJ = compute_j;
                c.sramJ = sram_j;
                c.dramJ = num_accs * energy_.dramEnergy(
                    dram_bytes[phase] / comm.wordBytes);
            }

            for (std::size_t h = 0; h < levels; ++h) {
                if (choice(h, l, b) == core::Parallelism::kModel) {
                    psum[(l * levels + h) * 2 + b] = make_exchange(
                        h, model_->intraBytesAt(
                               l, core::Parallelism::kModel,
                               dp_above(h, l, b), mp_above(h, l, b)));
                } else {
                    gradx[(l * levels + h) * 2 + b] = make_exchange(
                        h, model_->intraBytesAt(
                               l, core::Parallelism::kData,
                               dp_above(h, l, b), mp_above(h, l, b)));
                }
            }
        }
    }
    for (std::size_t l = 0; l + 1 < num_layers; ++l) {
        for (std::size_t h = 0; h < levels; ++h) {
            for (int bl = 0; bl < 2; ++bl) {
                for (int bn = 0; bn < 2; ++bn) {
                    const std::size_t slot =
                        (l * levels + h) * 4 +
                        static_cast<std::size_t>(2 * bl + bn);
                    featx[slot] = make_exchange(
                        h, model_->interBytesFAt(
                               l, choice(h, l, bl),
                               choice(h, l + 1, bn),
                               dp_above(h, l, bl)));
                    errx[slot] = make_exchange(
                        h, model_->interBytesEAt(
                               l, choice(h, l, bl),
                               choice(h, l + 1, bn),
                               dp_above(h, l + 1, bn)));
                }
            }
        }
    }

    // ---- trace labels -------------------------------------------------
    //
    // A task's label is a function of its slot alone — tag, layer name,
    // hierarchy level — never of the swept mask, so one string per slot
    // serves every visited plan and the trace can be emitted straight
    // from the variant tables (this was the last remaining per-mask
    // simulate() fallback). Built only under recordTrace; the hot
    // non-trace sweep stays allocation-free.
    const bool tracing = options_.recordTrace;
    std::vector<std::string> comp_label, psum_label, gradx_label,
        featx_label, errx_label;
    if (tracing) {
        comp_label.resize(num_layers * 3);
        psum_label.resize(num_layers * levels);
        gradx_label.resize(num_layers * levels);
        featx_label.resize(transitions * levels);
        errx_label.resize(transitions * levels);
        for (std::size_t l = 0; l < num_layers; ++l) {
            const std::string &name = net.layer(l).name;
            comp_label[3 * l + kFwd] = "fwd:" + name;
            comp_label[3 * l + kBwd] = "bwd:" + name;
            comp_label[3 * l + kGrad] = "grad:" + name;
            for (std::size_t h = 0; h < levels; ++h) {
                const std::string at = "@H" + std::to_string(h + 1);
                psum_label[l * levels + h] = "psum:" + name + at;
                gradx_label[l * levels + h] = "gradx:" + name + at;
            }
        }
        for (std::size_t l = 0; l + 1 < num_layers; ++l) {
            for (std::size_t h = 0; h < levels; ++h) {
                const std::string at = "@H" + std::to_string(h + 1);
                // featx of transition l -> l+1 is emitted while walking
                // layer l forward; errx while walking layer l+1
                // backward — each labeled with the emitting layer.
                featx_label[l * levels + h] =
                    "featx:" + net.layer(l).name + at;
                errx_label[l * levels + h] =
                    "errx:" + net.layer(l + 1).name + at;
            }
        }
    }
    // nullptr when not tracing, so the replay below can branch once.
    auto slot_label = [&](const std::vector<std::string> &labels,
                          std::size_t slot) {
        return tracing ? &labels[slot] : nullptr;
    };

    // ---- per-mask replay ----------------------------------------------
    //
    // One walk over the task slots in buildTasks' emission order,
    // updating every StepMetrics accumulator with the same additions
    // the real path performs and advancing the same two tapes
    // simulate() replays. Flipping one layer's bit re-selects only that
    // layer's few variant slots — the tape segments the flip actually
    // touches — and the replay's accumulation order never changes, so
    // every mask's StepMetrics is bit-identical to a full simulate() in
    // both overlap modes.
    const bool overlap = options_.overlapGradComm;
    for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
        StepMetrics m;
        Tapes tapes;
        if (tracing)
            trace_.clear();
        const auto bit = [&](std::size_t l) {
            return static_cast<int>((mask >> l) & 1);
        };

        auto tally_compute = [&](std::size_t l, int phase,
                                 double &phase_acc) {
            const ComputeContrib &c =
                comp[(3 * l + phase) * 2 + bit(l)];
            m.energy.computeJ += c.computeJ;
            m.energy.sramJ += c.sramJ;
            m.energy.dramJ += c.dramJ;
            const Tapes::Span span = tapes.compute(c.seconds);
            m.computeBusySeconds += c.seconds;
            phase_acc += c.seconds;
            if (tracing)
                trace_.push_back(TraceEntry{
                    span.start, span.end,
                    comp_label[3 * l + static_cast<std::size_t>(phase)]});
        };
        // `async`: an overlapped gradient reduction (network tape).
        auto tally_exchange = [&](const ExchangeContrib &c,
                                  double &phase_acc,
                                  const std::string *label,
                                  bool async = false) {
            if (!c.present)
                return;
            m.commBytes += c.globalBytes;
            m.energy.commJ += c.commJ;
            m.energy.computeJ += c.addJ;
            const Tapes::Span span = async
                                         ? tapes.asyncExchange(c.seconds)
                                         : tapes.syncExchange(c.seconds);
            m.networkBusySeconds += c.seconds;
            phase_acc += c.seconds;
            if (label != nullptr)
                trace_.push_back(TraceEntry{span.start, span.end, *label});
        };

        // forward
        for (std::size_t l = 0; l < num_layers; ++l) {
            tally_compute(l, kFwd, m.phases.forward);
            for (std::size_t h = 0; h < levels; ++h) {
                if (choice(h, l, bit(l)) == core::Parallelism::kModel)
                    tally_exchange(psum[(l * levels + h) * 2 + bit(l)],
                                   m.phases.forward,
                                   slot_label(psum_label,
                                              l * levels + h));
                if (l + 1 < num_layers)
                    tally_exchange(
                        featx[(l * levels + h) * 4 +
                              static_cast<std::size_t>(
                                  2 * bit(l) + bit(l + 1))],
                        m.phases.forward,
                        slot_label(featx_label, l * levels + h));
            }
        }
        // error backward
        for (std::size_t l = num_layers; l-- > 1;) {
            tally_compute(l, kBwd, m.phases.backward);
            for (std::size_t h = 0; h < levels; ++h)
                tally_exchange(
                    errx[((l - 1) * levels + h) * 4 +
                         static_cast<std::size_t>(
                             2 * bit(l - 1) + bit(l))],
                    m.phases.backward,
                    slot_label(errx_label, (l - 1) * levels + h));
        }
        // gradient
        for (std::size_t l = 0; l < num_layers; ++l) {
            tally_compute(l, kGrad, m.phases.gradient);
            for (std::size_t h = 0; h < levels; ++h) {
                if (choice(h, l, bit(l)) == core::Parallelism::kData) {
                    tally_exchange(gradx[(l * levels + h) * 2 + bit(l)],
                                   m.phases.gradient,
                                   slot_label(gradx_label, l * levels + h),
                                   overlap);
                }
            }
        }

        m.stepSeconds = tapes.finish();
        visit(mask, m);
    }
}

} // namespace hypar::sim
