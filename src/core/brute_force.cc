#include "core/brute_force.hh"

#include <bit>

#include "util/logging.hh"

namespace hypar::core {

PairwiseResult
bruteForcePairwise(const CommModel &model, const History &hist)
{
    const std::size_t num_layers = model.numLayers();
    if (num_layers > 24)
        util::fatal("bruteForcePairwise: network too large to enumerate");

    PairwiseResult best;
    bool first = true;
    const std::uint64_t count = std::uint64_t{1} << num_layers;
    for (std::uint64_t mask = 0; mask < count; ++mask) {
        LevelPlan plan = levelPlanFromMask(mask, num_layers);
        const double bytes = model.pairBytes(plan, hist);
        if (first || bytes < best.commBytes) {
            best.plan = std::move(plan);
            best.commBytes = bytes;
            first = false;
        }
    }
    return best;
}

namespace {

/** Recursively enumerate level plans, tracking the scaled history. The
 *  current level index is hist.depth(); its contribution is weighted
 *  by CommModel::levelWeight (2^h pristine, 2^h * penalty degraded). */
void
enumerateLevels(const CommModel &model, std::size_t levels_left,
                double bytes_so_far, History &hist,
                std::vector<LevelPlan> &stack, BruteForceResult &best,
                bool &first)
{
    if (levels_left == 0) {
        if (first || bytes_so_far < best.commBytes) {
            best.plan.levels = stack;
            best.commBytes = bytes_so_far;
            first = false;
        }
        return;
    }

    const std::size_t num_layers = model.numLayers();
    const double weight = model.levelWeight(hist.depth());
    const std::uint64_t count = std::uint64_t{1} << num_layers;
    for (std::uint64_t mask = 0; mask < count; ++mask) {
        LevelPlan plan = levelPlanFromMask(mask, num_layers);
        const double bytes = model.pairBytes(plan, hist);

        History next = hist;
        next.push(plan);
        stack.push_back(std::move(plan));
        enumerateLevels(model, levels_left - 1,
                        bytes_so_far + weight * bytes, next, stack,
                        best, first);
        stack.pop_back();
    }
}

} // namespace

BruteForceResult
bruteForceHierarchical(const CommModel &model, std::size_t levels)
{
    if (model.numLayers() * levels > 24)
        util::fatal("bruteForceHierarchical: search space too large");

    BruteForceResult best;
    bool first = true;
    History hist(model.numLayers());
    std::vector<LevelPlan> stack;
    enumerateLevels(model, levels, 0.0, hist, stack, best, first);
    return best;
}

void
sweepLevelMasks(
    const HierarchicalPlan &base, std::size_t level,
    const std::function<void(std::uint64_t, const HierarchicalPlan &)>
        &visit)
{
    if (level >= base.numLevels())
        util::fatal("sweepLevelMasks: level out of range");
    const std::size_t num_layers = base.numLayers();
    if (num_layers > 24)
        util::fatal("sweepLevelMasks: too many layers to sweep");

    HierarchicalPlan plan = base;
    plan.levels[level] = levelPlanFromMask(0, num_layers);
    visit(0, plan);

    // Ascending masks, patched in place: the increment mask -> mask+1
    // flips exactly the bits of mask ^ (mask+1) (amortized two per
    // step), so no per-mask LevelPlan is ever built.
    const std::uint64_t count = std::uint64_t{1} << num_layers;
    for (std::uint64_t mask = 1; mask < count; ++mask) {
        std::uint64_t toggled = mask ^ (mask - 1);
        while (toggled != 0) {
            const auto l =
                static_cast<std::size_t>(std::countr_zero(toggled));
            plan.levels[level][l] = (mask >> l) & 1u
                                        ? Parallelism::kModel
                                        : Parallelism::kData;
            toggled &= toggled - 1;
        }
        visit(mask, plan);
    }
}

} // namespace hypar::core
