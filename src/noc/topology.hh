/**
 * @file
 * Interconnect abstraction for the accelerator array (paper Section 5).
 *
 * HyPar's hierarchical partition produces a fixed communication pattern:
 * at hierarchy level h the array's 2^h group pairs exchange tensors
 * between their two halves. A Topology maps one such *level exchange*
 * (a given number of bytes per group pair, all pairs concurrent) to a
 * completion time and an average hop count (for link energy).
 */

#ifndef HYPAR_NOC_TOPOLOGY_HH
#define HYPAR_NOC_TOPOLOGY_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/units.hh"

namespace hypar::noc {

/** Shared link parameters. */
struct TopologyConfig
{
    /**
     * Point-to-point link bandwidth: the paper's 1600 Mb/s links
     * (25.6 Gb/s aggregate for the 16-accelerator array).
     */
    double linkBandwidth = util::mbitsPerSec(1600.0);

    /**
     * H-tree root bisection: fixed at 12.8 Gb/s so that for H = 4 the
     * leaf links come out at exactly 1600 Mb/s ("the bandwidth between
     * groups in a higher hierarchy are doubled ... but the number of
     * links is halved").
     */
    double rootBisection = util::gbitsPerSec(12.8);

    /** Fixed per-hop router/SerDes latency. */
    double perHopLatency = 100e-9;
};

/** Abstract interconnect for an array of 2^H accelerators. */
class Topology
{
  public:
    /** Deepest hierarchy the constructor accepts (2^20 nodes). */
    static constexpr std::size_t kMaxLevels = 20;

    Topology(std::size_t levels, const TopologyConfig &config);
    virtual ~Topology() = default;

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    virtual std::string name() const = 0;

    /**
     * Seconds to complete one hierarchical exchange at `level`, where
     * every one of the 2^level group pairs moves `bytes_per_pair`
     * between its halves (all pairs run concurrently).
     */
    virtual double exchangeSeconds(std::size_t level,
                                   double bytes_per_pair) const = 0;

    /** Average hops travelled by a word in that exchange (energy). */
    virtual double exchangeHops(std::size_t level) const = 0;

    /** Number of individually faultable links (topology-specific ids;
     *  see the concrete classes for the numbering). */
    virtual std::size_t numLinks() const = 0;

    /**
     * Whether per-link fault entries are meaningful on this topology.
     * When false, callers must reject FaultMap link entries up front
     * (sim::Evaluator does) rather than planning around entries the
     * model silently ignores; samplers draw node faults only.
     */
    virtual bool supportsLinkFaults() const { return true; }

    /**
     * Derate/disable links: scales[id] in [0, 1] is link id's surviving
     * bandwidth fraction (0 = dead). Must cover every link
     * (scales.size() == numLinks()); fatal otherwise. Recomputes the
     * per-level penalties below. An all-1.0 vector restores pristine
     * behavior bit-identically.
     */
    void applyLinkScales(const std::vector<double> &scales);

    /**
     * Slowdown of a level-`level` exchange relative to the pristine
     * topology, >= 1 (slowest-member semantics: all 2^level group pairs
     * run concurrently, so the exchange finishes with the pair crossing
     * the worst surviving links). Exactly 1.0 when no faults are
     * applied; +inf when a dead link makes the level unusable.
     * exchangeSeconds() already includes this factor.
     */
    double levelPenalty(std::size_t level) const;

    /** All levels' penalties (levelPenalty for h = 0..H-1). */
    std::vector<double> levelPenalties() const;

    /** True once applyLinkScales has installed a non-empty scale set. */
    bool degraded() const { return !linkScales_.empty(); }

    std::size_t levels() const { return levels_; }
    std::size_t numNodes() const { return std::size_t{1} << levels_; }
    const TopologyConfig &config() const { return config_; }

  protected:
    void checkLevel(std::size_t level) const;

    /** Recompute penalties_ from linkScales_ (topology-specific). */
    virtual void rebuildFaultState() = 0;

    /** Scale of one link: 1.0 while pristine. */
    double
    linkScale(std::size_t id) const
    {
        return linkScales_.empty() ? 1.0 : linkScales_[id];
    }

    std::size_t levels_;
    TopologyConfig config_;
    std::vector<double> linkScales_; //!< empty = pristine
    std::vector<double> penalties_;  //!< per level, 1.0 pristine
};

} // namespace hypar::noc

#endif // HYPAR_NOC_TOPOLOGY_HH
