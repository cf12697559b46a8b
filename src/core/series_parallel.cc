#include "core/series_parallel.hh"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/level_bits.hh"
#include "core/tie_break.hh"
#include "util/logging.hh"

namespace hypar::core {

namespace {

/** Same level-ascending sum as OptimalPartitioner::intraCost. */
double
intraCost(const CommModel &model, std::size_t layer, std::uint32_t v,
          std::size_t levels)
{
    double total = 0.0;
    for (std::size_t h = 0; h < levels; ++h) {
        total += model.levelWeight(h) *
                 model.intraBytesAt(layer, choiceAt(v, h), dpAbove(v, h),
                                    mpAbove(v, h));
    }
    return total;
}

/**
 * The Table 2 charge of edge (src, dst) over all levels. interBytesAt
 * only reads the producing layer's boundary tensor and the two dp
 * counts, so the chain transition formula is valid verbatim for an
 * arbitrary DAG edge — dst enters through its own dp count.
 */
double
edgeCost(const CommModel &model, std::size_t src, std::uint32_t v_src,
         std::uint32_t v_dst, std::size_t levels)
{
    double total = 0.0;
    for (std::size_t h = 0; h < levels; ++h) {
        total += model.levelWeight(h) *
                 model.interBytesAt(src, choiceAt(v_src, h),
                                    choiceAt(v_dst, h), dpAbove(v_src, h),
                                    dpAbove(v_dst, h));
    }
    return total;
}

/** One node of the TTSP decomposition tree. */
struct SpNode
{
    enum class Kind { kLeaf, kSeries, kParallel };
    Kind kind = Kind::kLeaf;
    std::size_t src = 0; //!< boundary layers of the component
    std::size_t dst = 0;
    std::size_t mid = 0; //!< series: the merged interior layer
    std::size_t a = 0;   //!< child node indices (series: src side)
    std::size_t b = 0;
};

/** A live edge of the shrinking reduction multigraph. */
struct RedEdge
{
    std::size_t src;
    std::size_t dst;
    std::size_t node; //!< decomposition-tree node this edge stands for
    bool alive = true;
};

/**
 * Run the TTSP reduction. Returns the root node index on success; on
 * failure returns SIZE_MAX and, when `reason` is non-null, describes a
 * stuck vertex. Reduction order is deterministic (lowest-index edge /
 * vertex first), so every search sees the same tree.
 */
std::size_t
decompose(const dnn::Network &network, std::vector<SpNode> &nodes,
          std::string *reason)
{
    const std::size_t n = network.size();
    std::vector<RedEdge> edges;
    for (std::size_t l = 0; l < n; ++l) {
        for (const std::size_t u : network.preds(l)) {
            nodes.push_back({SpNode::Kind::kLeaf, u, l, 0, 0, 0});
            edges.push_back({u, l, nodes.size() - 1, true});
        }
    }

    std::size_t alive = edges.size();
    bool changed = true;
    while (alive > 1 && changed) {
        changed = false;

        // Parallel reductions: fold duplicate (src, dst) pairs, lowest
        // edge indices first.
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (!edges[i].alive)
                continue;
            for (std::size_t j = i + 1; j < edges.size(); ++j) {
                if (!edges[j].alive || edges[j].src != edges[i].src ||
                    edges[j].dst != edges[i].dst)
                    continue;
                nodes.push_back({SpNode::Kind::kParallel, edges[i].src,
                                 edges[i].dst, 0, edges[i].node,
                                 edges[j].node});
                edges[i].node = nodes.size() - 1;
                edges[j].alive = false;
                --alive;
                changed = true;
            }
        }

        // Series reductions: merge the lowest interior vertex with
        // in-degree 1 and out-degree 1.
        std::vector<std::size_t> indeg(n, 0), outdeg(n, 0);
        std::vector<std::size_t> in_edge(n, 0), out_edge(n, 0);
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (!edges[i].alive)
                continue;
            ++outdeg[edges[i].src];
            out_edge[edges[i].src] = i;
            ++indeg[edges[i].dst];
            in_edge[edges[i].dst] = i;
        }
        for (std::size_t v = 1; v + 1 < n; ++v) {
            if (indeg[v] != 1 || outdeg[v] != 1)
                continue;
            RedEdge &in = edges[in_edge[v]];
            RedEdge &out = edges[out_edge[v]];
            nodes.push_back({SpNode::Kind::kSeries, in.src, out.dst, v,
                             in.node, out.node});
            in.node = nodes.size() - 1;
            in.dst = out.dst;
            out.alive = false;
            --alive;
            changed = true;
            break; // degree counts are stale now; rescan
        }
    }

    if (alive == 1) {
        for (const auto &e : edges) {
            if (e.alive) {
                // A lone surviving edge must span source to sink
                // (Network validation guarantees unique terminals).
                HYPAR_ASSERT(e.src == 0 && e.dst == n - 1,
                             "TTSP reduction terminal mismatch");
                return e.node;
            }
        }
    }
    if (reason != nullptr) {
        std::vector<std::size_t> indeg(n, 0), outdeg(n, 0);
        for (const auto &e : edges) {
            if (!e.alive)
                continue;
            ++outdeg[e.src];
            ++indeg[e.dst];
        }
        std::size_t stuck = 0;
        for (std::size_t v = 1; v + 1 < n; ++v) {
            if (indeg[v] + outdeg[v] > 0 &&
                (indeg[v] > 1 || outdeg[v] > 1)) {
                stuck = v;
                break;
            }
        }
        *reason = "network '" + network.name() +
                  "' is not two-terminal series-parallel: the reduction "
                  "got stuck with " +
                  std::to_string(alive) + " edges (layer '" +
                  network.layer(stuck).name + "' keeps in-degree " +
                  std::to_string(indeg[stuck]) + " and out-degree " +
                  std::to_string(outdeg[stuck]) + ")";
    }
    return static_cast<std::size_t>(-1);
}

/** DP table of one decomposition component: cost and packed tie-break
 *  key of the best interior assignment per (src state, dst state). */
struct SpTable
{
    std::vector<double> cost;
    std::vector<std::uint64_t> key;
};

struct SolveContext
{
    const CommModel *model;
    std::size_t levels;
    std::size_t states;
    std::size_t num_layers;
    const std::vector<double> *intra; // [l * states + s]
    std::uint64_t transitions = 0;
    std::uint64_t pruned = 0;
};

SpTable
solve(const std::vector<SpNode> &nodes, std::size_t node_idx,
      SolveContext &ctx)
{
    const SpNode &node = nodes[node_idx];
    const std::size_t S = ctx.states;
    SpTable out;
    out.cost.assign(S * S, 0.0);
    out.key.assign(S * S, 0);

    if (node.kind == SpNode::Kind::kLeaf) {
        for (std::size_t a = 0; a < S; ++a) {
            for (std::size_t b = 0; b < S; ++b) {
                out.cost[a * S + b] = edgeCost(
                    *ctx.model, node.src, static_cast<std::uint32_t>(a),
                    static_cast<std::uint32_t>(b), ctx.levels);
            }
        }
        return out;
    }

    const SpTable ta = solve(nodes, node.a, ctx);
    const SpTable tb = solve(nodes, node.b, ctx);

    if (node.kind == SpNode::Kind::kParallel) {
        // Branches share both terminals and own disjoint interiors:
        // merge state-by-state. Disjoint key bit fields make the OR a
        // sum, so the combined key stays the lexicographic minimum.
        for (std::size_t i = 0; i < S * S; ++i) {
            out.cost[i] = ta.cost[i] + tb.cost[i];
            out.key[i] = ta.key[i] | tb.key[i];
        }
        return out;
    }

    // Series: charge the middle layer's intra here — each interior
    // vertex is the middle of exactly one S-node, so it is charged
    // exactly once.
    const double *mid_intra = &(*ctx.intra)[node.mid * S];
    std::vector<std::uint64_t> mid_key(S);
    for (std::size_t x = 0; x < S; ++x)
        mid_key[x] =
            spPackLayerState(ctx.levels, ctx.num_layers, node.mid, x);

    // Per source state, the A-side part (A cost + middle intra) of
    // every middle state, sorted for the early-break scan.
    std::vector<double> apart(S);
    std::vector<std::size_t> order(S);
    for (std::size_t a = 0; a < S; ++a) {
        for (std::size_t x = 0; x < S; ++x)
            apart[x] = ta.cost[a * S + x] + mid_intra[x];
        for (std::size_t x = 0; x < S; ++x)
            order[x] = x;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t lhs, std::size_t rhs) {
                      if (apart[lhs] != apart[rhs])
                          return apart[lhs] < apart[rhs];
                      return lhs < rhs;
                  });
        for (std::size_t b = 0; b < S; ++b) {
            double best = std::numeric_limits<double>::infinity();
            std::uint64_t best_key = 0;
            for (std::size_t i = 0; i < S; ++i) {
                const std::size_t x = order[i];
                if (apart[x] > best) {
                    // The B-side addend is >= 0 and rounding is
                    // monotone: fl(apart + b) >= apart > best, so no
                    // remaining candidate can win or tie.
                    ctx.pruned += S - i;
                    break;
                }
                const double cand = apart[x] + tb.cost[x * S + b];
                const std::uint64_t cand_key = ta.key[a * S + x] |
                                               mid_key[x] |
                                               tb.key[x * S + b];
                ++ctx.transitions;
                if (better(cand, cand_key, best, best_key)) {
                    best = cand;
                    best_key = cand_key;
                }
            }
            out.cost[a * S + b] = best;
            out.key[a * S + b] = best_key;
        }
    }
    return out;
}

} // namespace

bool
isSeriesParallel(const dnn::Network &network, std::string *reason)
{
    if (network.isChain())
        return true;
    std::vector<SpNode> nodes;
    return decompose(network, nodes, reason) !=
           static_cast<std::size_t>(-1);
}

HierarchicalResult
searchSeriesParallel(const CommModel &model, std::size_t levels)
{
    const dnn::Network &network = model.network();
    const std::size_t num_layers = model.numLayers();
    HYPAR_ASSERT(!network.isChain(),
                 "chain networks use the chain search");
    if (levels > kSpMaxLevels) {
        util::fatal("series-parallel search capped at H = " +
                    std::to_string(kSpMaxLevels) + " (got " +
                    std::to_string(levels) + ")");
    }
    if (levels * num_layers > kSpMaxKeyBits) {
        util::fatal("series-parallel search: H * L = " +
                    std::to_string(levels * num_layers) +
                    " exceeds the " + std::to_string(kSpMaxKeyBits) +
                    "-bit assignment key");
    }

    HierarchicalResult result;
    if (levels == 0)
        return result;

    std::vector<SpNode> nodes;
    std::string reason;
    const std::size_t root = decompose(network, nodes, &reason);
    if (root == static_cast<std::size_t>(-1))
        util::fatal(reason);

    const std::size_t S = std::size_t{1} << levels;
    std::vector<double> intra(num_layers * S);
    for (std::size_t l = 0; l < num_layers; ++l) {
        for (std::size_t s = 0; s < S; ++s) {
            intra[l * S + s] = intraCost(
                model, l, static_cast<std::uint32_t>(s), levels);
        }
    }

    SolveContext ctx;
    ctx.model = &model;
    ctx.levels = levels;
    ctx.states = S;
    ctx.num_layers = num_layers;
    ctx.intra = &intra;

    const SpTable top = solve(nodes, root, ctx);

    // Root: charge the two terminals' intra and pick the global best.
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t best_key = 0;
    for (std::size_t a = 0; a < S; ++a) {
        const std::uint64_t a_key =
            spPackLayerState(levels, num_layers, 0, a);
        for (std::size_t b = 0; b < S; ++b) {
            const double cand = (intra[0 * S + a] + top.cost[a * S + b]) +
                                intra[(num_layers - 1) * S + b];
            const std::uint64_t cand_key =
                a_key | top.key[a * S + b] |
                spPackLayerState(levels, num_layers, num_layers - 1, b);
            if (better(cand, cand_key, best, best_key)) {
                best = cand;
                best_key = cand_key;
            }
        }
    }

    // The winning key IS the full assignment: every interior layer's
    // bits were packed by its S-node, the terminals' at the root.
    result.plan.levels.assign(levels,
                              LevelPlan(num_layers, Parallelism::kData));
    for (std::size_t l = 0; l < num_layers; ++l) {
        assignLayerFromState(
            result.plan, l,
            spExtractLayerState(levels, num_layers, l, best_key));
    }
    result.commBytes = best;
    result.transitionsEvaluated = ctx.transitions;
    result.stats.expanded =
        static_cast<std::uint64_t>(nodes.size()) * S * S;
    result.stats.pruned = ctx.pruned;
    result.stats.certifiedExact = true; // exact DP by construction
    result.stats.widthUsed = S;
    return result;
}

} // namespace hypar::core
