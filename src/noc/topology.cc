#include "noc/topology.hh"

#include <cmath>

#include "util/logging.hh"

namespace hypar::noc {

Topology::Topology(std::size_t levels, const TopologyConfig &config)
    : levels_(levels), config_(config), penalties_(levels, 1.0)
{
    if (levels_ > kMaxLevels)
        util::fatal("Topology: unreasonable hierarchy depth");
    // Negated comparisons so NaN configs are rejected too (a NaN
    // bandwidth used to sail through and turn every cost into NaN).
    if (!(config_.linkBandwidth > 0.0) ||
        !std::isfinite(config_.linkBandwidth))
        util::fatal("Topology: link bandwidth must be positive and "
                    "finite");
    if (!(config_.rootBisection > 0.0) ||
        !std::isfinite(config_.rootBisection))
        util::fatal("Topology: root bisection bandwidth must be "
                    "positive and finite");
    if (!(config_.perHopLatency >= 0.0) ||
        !std::isfinite(config_.perHopLatency))
        util::fatal("Topology: per-hop latency must be non-negative "
                    "and finite");
}

void
Topology::checkLevel(std::size_t level) const
{
    if (level >= levels_)
        util::fatal("Topology: level out of range");
}

void
Topology::applyLinkScales(const std::vector<double> &scales)
{
    if (scales.size() != numLinks())
        util::fatal("Topology: link scale vector covers " +
                    std::to_string(scales.size()) + " links, " +
                    name() + " has " + std::to_string(numLinks()));
    for (std::size_t i = 0; i < scales.size(); ++i) {
        if (!(scales[i] >= 0.0 && scales[i] <= 1.0))
            util::fatal("Topology: link " + std::to_string(i) +
                        " scale must be in [0, 1]");
    }
    linkScales_ = scales;
    rebuildFaultState();
}

double
Topology::levelPenalty(std::size_t level) const
{
    checkLevel(level);
    return penalties_[level];
}

std::vector<double>
Topology::levelPenalties() const
{
    return penalties_;
}

} // namespace hypar::noc
