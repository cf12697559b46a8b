/**
 * @file
 * The HyPar communication model (paper Section 3, Tables 1 and 2).
 *
 * For a pair of accelerator groups the model charges, per weighted layer:
 *
 *   intra-layer   dp: A(dW_l)        (gradient partial-sum exchange)
 *                 mp: A(F^out_l)     (output partial-sum exchange,
 *                                     pre-pooling)
 *
 *   inter-layer   dp-dp: 0
 *   (l -> l+1)    dp-mp: 0.25 A(F_{l+1}) + 0.25 A(E_{l+1})
 *                 mp-mp: 0.5 A(E_{l+1})
 *                 mp-dp: 0.5 A(E_{l+1})
 *
 * where F_{l+1}/E_{l+1} are the boundary tensors between the layers
 * (post-pooling). Every charge is multiplied by the exchange factor 2
 * because both peers fetch the remote half (the paper's 56 KB example in
 * Section 3.4 counts 2 x 70x100 x 4 B).
 *
 * Hierarchical scaling ("Partitioned" policy, docs/ARCHITECTURE.md,
 * "Model interpretation"): at
 * level h the amounts shrink according to the choices made above --
 * upper mp halves kernels/gradients, upper dp halves batches (feature
 * and error tensors). This reproduces the paper's Fig. 8 Data
 * Parallelism column exactly and Fig. 5(a)'s fc1@H3 flip for SFC.
 *
 * Evaluation is table driven: the constructor pre-multiplies every
 * per-layer tensor amount by the exchange factor, and the hierarchical
 * halvings come from a power-of-two lookup table, so a query is one or
 * two exact multiplications instead of an ldexp chain. Because every
 * scale factor is a power of two, the cached path returns bit-identical
 * results to the straightforward formula (kept as the *Reference
 * methods and cross-checked in tests), and the History-based and
 * count-based APIs agree exactly as well.
 */

#ifndef HYPAR_CORE_COMM_MODEL_HH
#define HYPAR_CORE_COMM_MODEL_HH

#include <cstddef>
#include <vector>

#include "core/plan.hh"
#include "dnn/network.hh"

namespace hypar::core {

/** Tunables of the communication model. */
struct CommConfig
{
    /** Hierarchical tensor-amount scaling policy. */
    enum class Scaling {
        kNone,        //!< every level sees full-size tensors (ablation)
        kPartitioned, //!< amounts follow the physical partitioning
    };

    /** Mini-batch size B (the paper evaluates with 256). */
    std::size_t batch = 256;

    /** Bytes per tensor element (fp32). */
    double wordBytes = 4.0;

    /**
     * Per-pair exchange factor: 2.0 means both peers fetch the remote
     * part (paper Section 3.4); 1.0 counts one-directional traffic.
     */
    double exchangeFactor = 2.0;

    Scaling scaling = Scaling::kPartitioned;

    /**
     * Per-hierarchy-level cost penalties for a degraded interconnect
     * (noc::Topology::levelPenalties after applyLinkScales): level h's
     * communication is weighted 2^h * levelPenalties[h] instead of the
     * pristine 2^h, steering every search away from levels whose group
     * pairs cross slow links. Empty (the default) or all-1.0 means
     * pristine and is bit-identical to the unweighted model: the
     * weights are built with ldexp, so 2^h * 1.0 is the exact same
     * double the engines' old pairs *= 2.0 accumulation produced.
     * Levels beyond the vector are charged penalty 1.0. Entries must
     * be positive and finite — an infinite penalty means a dead link
     * makes the level unusable, which callers must reject *before*
     * building a model (see sim::Evaluator).
     */
    std::vector<double> levelPenalties;
};

/**
 * Flat per-layer cost tables for one fixed History: everything a
 * single-level search over that history can ask the model. Filled by
 * CommModel::fillPairTables; reused across calls to avoid allocation.
 */
struct PairTables
{
    /** intra[2*l + p]: intra-layer bytes of layer l under choice p. */
    std::vector<double> intra;
    /** inter[4*l + 2*prev + cur]: l -> l+1 bytes, l < layers-1. */
    std::vector<double> inter;
};

/**
 * Precomputes per-layer tensor amounts for one network and evaluates
 * intra-/inter-layer and whole-plan communication. All results are in
 * bytes. Immutable and cheap to copy around by reference.
 */
class CommModel
{
  public:
    CommModel(const dnn::Network &network, const CommConfig &config);

    const dnn::Network &network() const { return *network_; }
    const CommConfig &config() const { return config_; }
    std::size_t numLayers() const { return weightBytes_.size(); }

    // --- per-level weighting (fault model) ------------------------------

    /** Fault penalty of hierarchy level h (1.0 pristine / off the end
     *  of CommConfig::levelPenalties). */
    double levelPenalty(std::size_t h) const;

    /**
     * Weight of one unit of level-h per-pair communication in a plan's
     * total: 2^h * levelPenalty(h), precomputed with ldexp so the
     * power-of-two factor is exact. With pristine penalties this is
     * the exact double 2^h, so every consumer that replaced a
     * pairs *= 2.0 accumulator with levelWeight(h) stays bit-identical
     * on healthy arrays; with penalties, w (x) c == 2^h * (p (x) c)
     * (power-of-two scaling commutes with rounding), so the engines'
     * exactness proofs carry over unchanged.
     */
    double levelWeight(std::size_t h) const;

    // --- unscaled amounts (bytes) -------------------------------------

    /** A(W_l) = A(dW_l): kernel/gradient tensor bytes. */
    double weightBytes(std::size_t l) const;

    /** A(F^out_l): raw (pre-pooling) output for the whole batch. */
    double outRawBytes(std::size_t l) const;

    /** A(F_{l+1}) = A(E_{l+1}): boundary tensor after layer l's pool. */
    double boundaryBytes(std::size_t l) const;

    // --- scaled model (bytes, includes the exchange factor) ------------

    /** Intra-layer communication of layer l under choice p at the level
     *  whose upper choices are recorded in hist. */
    double intraBytes(std::size_t l, Parallelism p,
                      const History &hist) const;

    /** Inter-layer communication of the transition layer l -> l+1. */
    double interBytes(std::size_t l, Parallelism prev, Parallelism cur,
                      const History &hist) const;

    /**
     * Feature-map part of the inter-layer cost (moves during the
     * forward pass): 0.25 A(F_{l+1}) for dp-mp, otherwise 0.
     */
    double interBytesF(std::size_t l, Parallelism prev, Parallelism cur,
                       const History &hist) const;

    /**
     * Error part of the inter-layer cost (moves during error backward):
     * 0.25 A(E_{l+1}) for dp-mp, 0.5 A(E_{l+1}) for mp-mp and mp-dp.
     */
    double interBytesE(std::size_t l, Parallelism prev, Parallelism cur,
                       const History &hist) const;

    /**
     * Inter-layer communication of an arbitrary DAG edge src -> dst:
     * the boundary tensor is src's pooled output (for a join, each
     * incoming edge carries its own full summand of the elementwise
     * sum, so edges are charged independently), the feature part
     * scales with src's upper dp splits and the error part with dst's.
     * For dst == src + 1 this is bit-identical to interBytes — the
     * chain transition is the degenerate edge.
     */
    double interBytesEdge(std::size_t src, std::size_t dst,
                          Parallelism prev, Parallelism cur,
                          const History &hist) const;

    /**
     * Per-pair communication of a whole level plan: every layer's
     * intra charge plus every DAG edge's inter charge, layers
     * ascending and each layer's outgoing edges ascending by
     * destination. On a chain this visits exactly the old
     * intra(0), inter(0->1), intra(1), ... sequence, so the
     * accumulation is bit-identical.
     */
    double pairBytes(const LevelPlan &plan, const History &hist) const;

    /**
     * Total communication of a hierarchical plan: sum over levels of
     * 2^h * per-pair bytes, i.e. Algorithm 2's com = com_h + 2 com_n.
     */
    double planBytes(const HierarchicalPlan &plan) const;

    // --- count-based variants (exact joint optimization) ---------------
    //
    // The History overloads above derive the upper-level dp/mp counts
    // from a recorded history; these take the counts directly, which
    // lets OptimalPartitioner evaluate arbitrary per-layer level
    // vectors without materializing History objects. They return
    // bit-identical values to the History-based API for equal counts.

    /** Intra-layer bytes with explicit upper-level counts for layer l. */
    double intraBytesAt(std::size_t l, Parallelism p, unsigned dp_above,
                        unsigned mp_above) const;

    /**
     * Inter-layer bytes for the l -> l+1 transition with explicit
     * upper-level dp counts of the producing layers (layer l for the
     * feature boundary, layer l+1 for the error boundary).
     */
    double interBytesAt(std::size_t l, Parallelism prev, Parallelism cur,
                        unsigned dp_above_l, unsigned dp_above_next) const;

    /**
     * Count-based split of the inter-layer cost, mirroring
     * interBytesF/interBytesE: the feature part scales with layer l's
     * upper dp count, the error part with layer l+1's. Bit-identical to
     * the History-based methods for equal counts; these are what
     * TrainingSimulator::sweepNeighborhood uses to precompute exchange
     * variants without materializing History objects per mask.
     */
    double interBytesFAt(std::size_t l, Parallelism prev, Parallelism cur,
                         unsigned dp_above_l) const;
    double interBytesEAt(std::size_t l, Parallelism prev, Parallelism cur,
                         unsigned dp_above_next) const;

    // --- batch precompute ----------------------------------------------

    /**
     * Fill flat intra/inter cost tables for every layer and choice
     * combination under `hist` — one pass over the cached per-layer
     * amounts, no per-entry call overhead. Every entry is bit-identical
     * to the corresponding intraBytes/interBytes call. Existing vector
     * capacity in `out` is reused.
     */
    void fillPairTables(const History &hist, PairTables &out) const;

    // --- reference implementations (test oracles / before-benches) ----
    //
    // The original straight-line formulas with per-call ldexp chains,
    // kept so tests can assert that the table-driven path above is
    // bit-identical and so the micro benches can quote before/after
    // numbers from one binary.

    /** intraBytes computed the pre-optimization way. */
    double intraBytesReference(std::size_t l, Parallelism p,
                               const History &hist) const;

    /** interBytes computed the pre-optimization way. */
    double interBytesReference(std::size_t l, Parallelism prev,
                               Parallelism cur, const History &hist) const;

    /**
     * Approximate resident size of the precomputed byte tables (the
     * serving tier's memory-budgeted session LRU charges warm
     * Evaluators by this plus the simulator's tables).
     */
    std::size_t approxTableBytes() const;

  private:
    /** 2^-n, via lookup table (exact for every representable n). */
    static double halvings(unsigned n);

    double gradScale(std::size_t l, const History &hist) const;
    double featScale(std::size_t l, const History &hist) const;

    const dnn::Network *network_;
    CommConfig config_;
    /** levelWeight(h) for h < kMaxWeightLevels, built in the ctor. */
    std::vector<double> levelWeights_;
    std::vector<double> weightBytes_;
    std::vector<double> outRawBytes_;
    std::vector<double> boundaryBytes_;
    // Exchange-factor-premultiplied copies: the hot-path operand tables.
    std::vector<double> scaledWeightBytes_;
    std::vector<double> scaledOutRawBytes_;
    std::vector<double> scaledBoundaryBytes_;
};

} // namespace hypar::core

#endif // HYPAR_CORE_COMM_MODEL_HH
