#include "serve/canonical.hh"

#include <algorithm>
#include <cstdio>

#include "dnn/spec_parser.hh"
#include "serve/sha256.hh"
#include "util/logging.hh"

namespace hypar::serve {

namespace {

void
appendKV(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

void
appendKV(std::string &out, const char *key, double value)
{
    appendKV(out, key, canonicalDouble(value));
}

void
appendKV(std::string &out, const char *key, std::size_t value)
{
    appendKV(out, key, std::to_string(value));
}

void
appendFaults(std::string &out, const char *key,
             std::vector<arch::FaultEntry> entries)
{
    // Sorted by id so listing order never forks the key. Duplicate ids
    // are rejected downstream (arch::nodeScales/linkScales), so id
    // order is total here.
    std::sort(entries.begin(), entries.end(),
              [](const arch::FaultEntry &a, const arch::FaultEntry &b) {
                  return a.id < b.id;
              });
    out += key;
    out += '=';
    for (const arch::FaultEntry &e : entries) {
        out += std::to_string(e.id);
        out += ':';
        out += canonicalDouble(e.scale);
        out += ';';
    }
    out += '\n';
}

} // namespace

std::string
canonicalDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

const char *
topologyKindName(sim::TopologyKind kind)
{
    switch (kind) {
      case sim::TopologyKind::kHTree: return "htree";
      case sim::TopologyKind::kTorus: return "torus";
      case sim::TopologyKind::kMesh: return "mesh";
    }
    util::fatal("unknown topology kind");
}

const char *
strategyName(core::Strategy strategy)
{
    switch (strategy) {
      case core::Strategy::kDataParallel: return "dp";
      case core::Strategy::kModelParallel: return "mp";
      case core::Strategy::kOneWeirdTrick: return "owt";
      case core::Strategy::kHypar: return "hypar";
    }
    util::fatal("unknown strategy");
}

std::string
canonicalContext(const dnn::Network &network, const sim::SimConfig &config)
{
    std::string out;
    out.reserve(1024);
    appendKV(out, "hyparc-canonical-version",
             std::to_string(kCanonicalVersion));

    // The network, normalized through parse -> toSpec round-trip.
    out += "[network]\n";
    out += dnn::toSpec(network);

    out += "[comm]\n";
    appendKV(out, "batch", config.comm.batch);
    appendKV(out, "word_bytes", config.comm.wordBytes);
    appendKV(out, "exchange_factor", config.comm.exchangeFactor);
    appendKV(out, "scaling",
             config.comm.scaling == core::CommConfig::Scaling::kPartitioned
                 ? std::string("partitioned")
                 : std::string("none"));
    // CommConfig::levelPenalties is derived state (the Evaluator
    // rebuilds it from topology + faults), so it is deliberately NOT
    // part of the key: the faults section below is the source of truth.

    out += "[accelerator]\n";
    appendKV(out, "pe_rows", config.acc.peRows);
    appendKV(out, "pe_cols", config.acc.peCols);
    appendKV(out, "clock_hz", config.acc.clockHz);
    appendKV(out, "buffer_bytes", config.acc.bufferBytes);
    appendKV(out, "dram_bandwidth", config.acc.dramBandwidth);
    appendKV(out, "dram_capacity", config.acc.dramCapacity);

    out += "[energy]\n";
    appendKV(out, "add_j", config.energy.addJ);
    appendKV(out, "mult_j", config.energy.multJ);
    appendKV(out, "sram_word_j", config.energy.sramWordJ);
    appendKV(out, "dram_word_j", config.energy.dramWordJ);
    appendKV(out, "link_word_per_hop_j", config.energy.linkWordPerHopJ);

    out += "[noc]\n";
    appendKV(out, "link_bandwidth", config.noc.linkBandwidth);
    appendKV(out, "root_bisection", config.noc.rootBisection);
    appendKV(out, "per_hop_latency", config.noc.perHopLatency);

    out += "[topology]\n";
    appendKV(out, "kind", std::string(topologyKindName(config.topology)));
    appendKV(out, "levels", config.levels);

    out += "[options]\n";
    appendKV(out, "overlap_grad_comm",
             std::string(config.options.overlapGradComm ? "1" : "0"));
    appendKV(out, "compute_scale", config.options.computeScale);
    // SimOptions::recordTrace is excluded by design (observability
    // only; never changes computed metrics or plans).

    out += "[faults]\n";
    appendFaults(out, "nodes", config.faults.nodes);
    appendFaults(out, "links", config.faults.links);

    return out;
}

std::string
canonicalPlanRequest(const dnn::Network &network,
                     const sim::SimConfig &config,
                     const std::string &strategy,
                     const core::SearchOptions & /*search*/)
{
    std::string out = canonicalContext(network, config);
    out += "[plan]\n";
    appendKV(out, "strategy", strategy);
    return out;
}

std::string
canonicalSweepRequest(const dnn::Network &network,
                      const sim::SimConfig &config,
                      const std::string &strategy,
                      const core::SearchOptions &search, std::size_t level)
{
    std::string out = canonicalPlanRequest(network, config, strategy,
                                           search);
    out += "[sweep]\n";
    appendKV(out, "level", level);
    return out;
}

std::string
contextHash(const dnn::Network &network, const sim::SimConfig &config)
{
    return sha256Hex(canonicalContext(network, config));
}

std::string
planHash(const dnn::Network &network, const sim::SimConfig &config,
         const std::string &strategy, const core::SearchOptions &search)
{
    return sha256Hex(
        canonicalPlanRequest(network, config, strategy, search));
}

std::string
sweepHash(const dnn::Network &network, const sim::SimConfig &config,
          const std::string &strategy, const core::SearchOptions &search,
          std::size_t level)
{
    return sha256Hex(
        canonicalSweepRequest(network, config, strategy, search, level));
}

} // namespace hypar::serve
