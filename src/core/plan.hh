/**
 * @file
 * Partition plans: the output of the HyPar search.
 *
 * A LevelPlan assigns one Parallelism to every weighted layer at a single
 * hierarchy level; a HierarchicalPlan stacks H LevelPlans (level 0 splits
 * the whole array into two subarrays, level H-1 splits pairs of
 * accelerators). A plan for H levels drives an array of 2^H accelerators.
 */

#ifndef HYPAR_CORE_PLAN_HH
#define HYPAR_CORE_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/parallelism.hh"

namespace hypar::dnn {
class Network;
} // namespace hypar::dnn

namespace hypar::core {

/** Parallelism choice for every weighted layer at one hierarchy level. */
using LevelPlan = std::vector<Parallelism>;

/**
 * Full hierarchical plan: levels[h][l] is the choice for layer l at
 * hierarchy level h (h = 0 is the top split).
 */
struct HierarchicalPlan
{
    std::vector<LevelPlan> levels;

    /** Number of hierarchy levels H. */
    std::size_t numLevels() const { return levels.size(); }

    /** Number of weighted layers (0 if the plan is empty). */
    std::size_t numLayers() const
    {
        return levels.empty() ? 0 : levels.front().size();
    }

    /** Accelerators driven by this plan: 2^H. */
    std::size_t numAccelerators() const
    {
        return std::size_t{1} << numLevels();
    }

    bool operator==(const HierarchicalPlan &) const = default;
};

/**
 * Running record of the choices made at the hierarchy levels above the
 * one currently being partitioned. The communication model uses the
 * per-layer dp/mp counts to scale tensor amounts (docs/ARCHITECTURE.md,
 * "Model interpretation").
 */
class History
{
  public:
    /** Empty history (top level) for `layers` weighted layers. */
    explicit History(std::size_t layers);

    /** Record one more upper level. Fatal on layer-count mismatch. */
    void push(const LevelPlan &plan);

    /** Number of upper levels where layer l ran in data parallelism. */
    unsigned dpCount(std::size_t l) const;

    /** Number of upper levels where layer l ran in model parallelism. */
    unsigned mpCount(std::size_t l) const;

    /** Levels recorded so far. */
    std::size_t depth() const { return depth_; }

    std::size_t numLayers() const { return dp_.size(); }

  private:
    std::vector<unsigned> dp_;
    std::vector<unsigned> mp_;
    std::size_t depth_ = 0;
};

/** A uniform level plan (all layers the same choice). */
LevelPlan uniformLevelPlan(std::size_t layers, Parallelism p);

/** A uniform hierarchical plan (all layers, all levels). */
HierarchicalPlan uniformPlan(std::size_t layers, std::size_t levels,
                             Parallelism p);

/**
 * Decode a Fig. 9/10 style bitmask into a LevelPlan: bit l of `mask`
 * (LSB = layer 0) selects mp when set. Fatal if layers > 63.
 */
LevelPlan levelPlanFromMask(std::uint64_t mask, std::size_t layers);

/**
 * Write one layer's column of a plan from a level vector: bit h of
 * `state` selects mp at hierarchy level h for `layer`. This is the
 * joint-DP state decoding shared by OptimalPartitioner's plan
 * reconstructions. Fatal if the plan has more than 64 levels or
 * `layer` is out of range.
 */
void assignLayerFromState(HierarchicalPlan &plan, std::size_t layer,
                          std::uint64_t state);

/** Render a level plan as a bitstring, layer 0 leftmost ("0011"). */
std::string toBitString(const LevelPlan &plan);

/** Render a plan as one "dp dp mp ..." line per level. */
std::string toString(const HierarchicalPlan &plan);

/**
 * Validate a plan against a network: every level must cover exactly the
 * network's weighted layers. Fatal on mismatch.
 */
void validatePlan(const HierarchicalPlan &plan,
                  const dnn::Network &network);

} // namespace hypar::core

#endif // HYPAR_CORE_PLAN_HH
