/**
 * @file
 * Simulation of one DNN training step on the accelerator array (paper
 * Section 6.1: "We use an event-driven simulation ... we modeled the
 * computation cost and the memory access between vaults, we also
 * considered the tensor communication").
 *
 * The array executes in lockstep: every accelerator holds an identical
 * shard (each hierarchy level halves either the batch or the kernel), so
 * per-layer compute is symmetric and the simulator tracks one
 * representative accelerator plus the hierarchical tensor exchanges.
 *
 * A step is a task list whose order the data dependences fix:
 *
 *   forward   l = 0..L-1: compute; mp partial-sum reductions (intra);
 *                         dp-mp boundary feature transfers (inter-F)
 *   backward  l = L-1..1: compute; boundary error transfers (inter-E)
 *   gradient  l = 0..L-1: compute; dp gradient reductions (intra)
 *
 * Each task's completion releases exactly the next one, so the paper's
 * event-driven model is a two-tape replay of that list: the serial tape
 * carries compute and synchronous exchanges (the lockstep chain), the
 * network tape the interconnect's occupancy. Compute tasks overlap PE
 * time with DRAM streaming (double buffering: task time = max of the
 * two). Exchanges occupy the interconnect; with
 * SimOptions::overlapGradComm the gradient reductions ride the network
 * tape alone, draining while later layers keep computing (the classic
 * all-reduce overlap; off by default to match the paper).
 */

#ifndef HYPAR_SIM_TRAINING_SIM_HH
#define HYPAR_SIM_TRAINING_SIM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/energy_model.hh"
#include "arch/row_stationary.hh"
#include "core/comm_model.hh"
#include "core/plan.hh"
#include "noc/topology.hh"
#include "sim/metrics.hh"

namespace hypar::sim {

/** Simulation knobs. */
struct SimOptions
{
    /** Overlap gradient reductions with remaining compute. */
    bool overlapGradComm = false;

    /** Record a per-task trace (examples / debugging). */
    bool recordTrace = false;

    /**
     * Compute-time multiplier for a degraded array (>= 1.0 when some
     * nodes are slow or dead, 1.0 pristine): the lockstep array runs at
     * the pace of the slowest surviving node, which additionally picks
     * up its share of the dead nodes' work, so every compute task's
     * seconds are multiplied by this factor
     * (arch::computeScaleFactor derives it from a FaultMap). Energy is
     * deliberately left unscaled: slow silicon still performs the same
     * MACs and DRAM accesses. Must be positive and finite.
     */
    double computeScale = 1.0;
};

/** One executed task, for trace inspection. */
struct TraceEntry
{
    double start = 0.0;
    double end = 0.0;
    std::string label;
};

/** Simulates training steps for one (network, array, topology) triple. */
class TrainingSimulator
{
  public:
    /**
     * @param model  communication model (carries network and batch).
     * @param acc    per-accelerator configuration.
     * @param energy per-operation energies.
     * @param topo   interconnect; its level count fixes the array size
     *               and must match the plans passed to simulate().
     */
    TrainingSimulator(const core::CommModel &model,
                      const arch::AcceleratorConfig &acc,
                      const arch::EnergyModel &energy,
                      const noc::Topology &topo,
                      const SimOptions &options = {});

    /** Simulate one training step under `plan`. */
    StepMetrics simulate(const core::HierarchicalPlan &plan) const;

    /**
     * Simulate `steps` back-to-back training steps and report the
     * steady-state step latency: (finish(last) - finish(first)) /
     * (steps - 1). Without gradient overlap this equals the single-
     * step latency exactly; with SimOptions::overlapGradComm the tail
     * gradient reductions of step s drain underneath step s+1's
     * forward compute, and the steady-state latency is lower — the
     * classic all-reduce/forward pipelining. The first synchronous
     * exchange of the next step provides natural backpressure (it
     * waits for the network to drain), which conservatively models
     * the weight-update dependency.
     *
     * Cost: the per-step task list is built once and the two tapes
     * replay it `steps` times; only the first and last step's finish
     * times are kept, so `steps` never multiplies memory. Under
     * recordTrace, lastTrace() holds every step's tasks in order.
     */
    StepMetrics simulateSteadyState(const core::HierarchicalPlan &plan,
                                    std::size_t steps) const;

    /**
     * Incremental single-level sweep (the Fig. 9/10 building block):
     * visit simulate(base with level `level` replaced by each of the
     * 2^L masks) for all masks in ascending order, without rebuilding
     * per-plan state. Flipping one layer's choice at one level changes
     * at most two values of every task in the step (its own bit for
     * compute/intra tasks, the two endpoint bits for inter exchanges),
     * so all task-slot contributions are precomputed once and each
     * mask's StepMetrics is a straight replay of the simulator's exact
     * floating-point accumulation order over the selected variants —
     * bit-identical to a full simulate() of the substituted plan
     * (enforced by tests/test_evaluator_batch.cc).
     *
     * The selected variants advance the same two tapes simulate()
     * replays (under SimOptions::overlapGradComm the gradient
     * reductions ride the network tape), so the overlapped schedule is
     * swept incrementally too — still bit-identical to per-mask
     * simulate(). Under recordTrace the replay also emits the
     * per-task trace from the variant tables (labels are slot
     * functions, start/end come from the tapes), so
     * lastTrace() after each visit — and after the sweep — matches a
     * direct simulate() of that mask's plan exactly; no path falls
     * back to per-mask simulation anymore.
     * Fatal when `level` is out of range or the network has more than
     * 24 weighted layers (2^L enumeration).
     */
    void sweepNeighborhood(
        const core::HierarchicalPlan &base, std::size_t level,
        const std::function<void(std::uint64_t, const StepMetrics &)>
            &visit) const;

    /**
     * Trace of the most recent simulate(), simulateSteadyState() or
     * sweep visit (needs recordTrace): every task's start, end and
     * label, in task-list order.
     */
    const std::vector<TraceEntry> &lastTrace() const { return trace_; }

    /**
     * Approximate resident size of the simulator (itself and any
     * retained trace). Feeds the serving tier's memory-budgeted
     * session LRU.
     */
    std::size_t approxTableBytes() const
    {
        return sizeof(TrainingSimulator) +
               trace_.capacity() * sizeof(TraceEntry);
    }

  private:
    struct Task
    {
        enum class Kind { kCompute, kExchange };
        Kind kind = Kind::kCompute;
        double seconds = 0.0;
        double globalBytes = 0.0; //!< bytes summed over all group pairs
        bool async = false;       //!< may overlap with later compute
        int phase = 0;            //!< 0 fwd, 1 bwd, 2 grad
        std::string label;        //!< built only under recordTrace
    };

    std::vector<Task> buildTasks(const core::HierarchicalPlan &plan,
                                 StepMetrics &metrics) const;

    void addExchange(std::vector<Task> &tasks, std::size_t level,
                     double pair_bytes, bool async, int phase,
                     const char *tag, const std::string &layer_name,
                     StepMetrics &metrics) const;

    const core::CommModel *model_;
    arch::AcceleratorConfig acc_;
    arch::EnergyModel energy_;
    const noc::Topology *topo_;
    SimOptions options_;
    arch::RowStationaryMapper mapper_;

    mutable std::vector<TraceEntry> trace_;
};

} // namespace hypar::sim

#endif // HYPAR_SIM_TRAINING_SIM_HH
