/**
 * @file
 * Design-point evaluation: performance + area + cost + compliance.
 */

#ifndef ACS_DSE_EVALUATE_HH
#define ACS_DSE_EVALUATE_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "area/area_model.hh"
#include "area/cost_model.hh"
#include "dse/sweep.hh"
#include "hw/config.hh"
#include "model/ops.hh"
#include "model/transformer.hh"
#include "perf/simulator.hh"
#include "policy/acr_rules.hh"

namespace acs {
namespace dse {

/** One fully evaluated design point. */
struct EvaluatedDesign
{
    hw::HardwareConfig config;

    double tpp = 0.0;
    double dieAreaMm2 = 0.0;
    double perfDensity = 0.0;
    double dieCostUsd = 0.0;     //!< raw (unyielded) silicon cost
    double goodDieCostUsd = 0.0; //!< yield-adjusted cost

    double ttftS = 0.0; //!< per-layer prefill latency
    double tbtS = 0.0;  //!< per-layer decode latency

    /** Single-die manufacturability (area <= 860 mm^2). */
    bool underReticle = false;

    /** Latency-cost products (Fig. 8), in ms * $. */
    double ttftCostProduct() const;
    double tbtCostProduct() const;

    /** Reduce to a classification spec (marketed as data center). */
    policy::DeviceSpec toSpec() const;

    /**
     * toSpec() without the name: every field a rule classifies on,
     * and no copy of config.name. Per-design predicates use it, so
     * classifying a design does not allocate.
     */
    policy::DeviceSpec unnamedSpec() const;

    /**
     * True when the Oct-2023 data-center rule leaves the design
     * NOT_APPLICABLE (the paper's compliance bar, Sec. 4.3). Same
     * verdict as classifying toSpec().
     */
    bool oct2023Unregulated() const;
};

/**
 * Light per-point record produced by
 * DesignEvaluator::evaluatePlanIndices: the metrics and flags the
 * adaptive search engine (dse/adaptive.hh) needs per evaluated point,
 * without carrying a full EvaluatedDesign (whose config name alone
 * dominates the record). kept applies the caller's predicate;
 * underReticle / oct2023Unregulated mirror the StreamStats tallies.
 */
struct PointSample
{
    double ttftS = 0.0;
    double tbtS = 0.0;
    bool kept = false;
    bool underReticle = false;
    bool oct2023Unregulated = false;
};

/**
 * Running reduction over a streamed sweep (dse::evaluateStream).
 *
 * Tracks what the materializing pipeline computes with full design
 * vectors — best-TTFT/TBT designs, reticle and Oct-2023 compliance
 * counts — but incrementally, so a sweep needs O(threads) live
 * designs instead of O(|space|). Argmins tie-break on the lower
 * enumeration index, making the merged result identical to
 * minTtft/minTbt over the materialized (filtered) vector regardless
 * of thread count or scheduling.
 */
struct StreamStats
{
    std::size_t evaluated = 0;         //!< designs evaluated
    std::size_t kept = 0;              //!< designs passing the predicate
    std::size_t underReticle = 0;      //!< kept && underReticle
    std::size_t oct2023Unregulated = 0;//!< kept && NOT_APPLICABLE

    /** Min-TTFT / min-TBT designs among the kept set. */
    std::optional<EvaluatedDesign> bestTtft;
    std::optional<EvaluatedDesign> bestTbt;
    std::size_t bestTtftIndex = 0; //!< enumeration index of bestTtft
    std::size_t bestTbtIndex = 0;  //!< enumeration index of bestTbt

    /** Fold one evaluated design (with its enumeration index) in. */
    void absorb(const EvaluatedDesign &design, std::size_t index,
                bool keep);

    /** Merge another partial (commutative up to the index tie-break). */
    void merge(const StreamStats &other);
};

/**
 * Evaluates designs for one (workload, system) context.
 *
 * The hardware-independent prefill/decode layer graphs are built once
 * at construction and shared by every evaluate call, so a sweep pays
 * graph construction once per (model, setting, tensorParallel), not
 * once per design point.
 *
 * Thread-compatible: const after construction.
 */
class DesignEvaluator
{
  public:
    /**
     * @param model_cfg Workload architecture.
     * @param setting   Inference setting (batch/sequence/precision).
     * @param sys       Tensor-parallel system configuration.
     * @param params    Performance-model constants.
     */
    DesignEvaluator(const model::TransformerConfig &model_cfg,
                    const model::InferenceSetting &setting,
                    const perf::SystemConfig &sys,
                    const perf::PerfParams &params = perf::PerfParams{});

    /** Evaluate one design. */
    EvaluatedDesign evaluate(const hw::HardwareConfig &cfg) const;

    /**
     * Evaluate a batch of designs.
     *
     * Like every batch entry point (evaluateAllParallel,
     * evaluateStream), hoists one sweep-scoped perf::GemmCache over
     * the whole batch when the params ask for a simulating GEMM mode
     * (TILE_SIM or CYCLE_SIM) and
     * cacheTileSimGemms (and no caller-installed cache) — designs
     * sharing a canonical GEMM projection then simulate each GEMM
     * once. Bit-identical to the uncached path.
     */
    std::vector<EvaluatedDesign>
    evaluateAll(const std::vector<hw::HardwareConfig> &cfgs) const;

    /**
     * Evaluate a batch of designs across worker threads.
     *
     * Deterministic: results are in input order, identical to
     * evaluateAll (the models are const and thread-compatible).
     *
     * @param cfgs    Designs to evaluate.
     * @param threads Worker count; 0 uses the hardware concurrency.
     */
    std::vector<EvaluatedDesign>
    evaluateAllParallel(const std::vector<hw::HardwareConfig> &cfgs,
                        unsigned threads = 0) const;

    /** Keep-filter over evaluated designs (true = design is kept). */
    using StreamPredicate = std::function<bool(const EvaluatedDesign &)>;

    /**
     * Per-design hook invoked for every *kept* design with its
     * enumeration index. May run concurrently from sweep workers: the
     * callable must be thread-safe (the built-in StreamStats reduction
     * does not need this hook).
     */
    using StreamVisitor =
        std::function<void(const EvaluatedDesign &, std::size_t)>;

    /**
     * Fused generate → evaluate → filter → reduce over a sweep space.
     *
     * Design points stream out of @p space (SweepSpace::forEach
     * order), are evaluated in parallel on the shared thread pool, and
     * fold into per-thread StreamStats partials that are merged at the
     * end — peak memory is O(threads) EvaluatedDesigns instead of the
     * materializing pipeline's O(|space|). The result is bit-identical
     * to evaluateAll(space.generate()) + filtering + minTtft/minTbt,
     * independent of thread count (argmin ties resolve to the lowest
     * enumeration index, matching std::min_element).
     *
     * Under a simulating GEMM mode one sweep-scoped perf::GemmCache is
     * hoisted over the whole stream (unless the params install their
     * own handle or clear cacheTileSimGemms): the SweepPlan keeps
     * comm-only axes innermost, so all designs of one compute-class
     * run — the entire deviceBandwidths axis — reuse each die-local
     * GEMM simulation from the run's first design, bit-exactly.
     *
     * @param space     Sweep space to stream.
     * @param predicate Keep-filter; designs failing it still count in
     *                  `evaluated` but not in `kept`/argmins. Null
     *                  keeps everything.
     * @param visitor   Optional thread-safe hook for kept designs.
     * @param threads   Worker cap; 0 uses the shared pool's full
     *                  concurrency.
     */
    StreamStats
    evaluateStream(const SweepSpace &space,
                   const StreamPredicate &predicate = nullptr,
                   const StreamVisitor &visitor = nullptr,
                   unsigned threads = 0) const;

    class WaveScratch; // per-worker buffers reused across waves

    /**
     * Evaluate an explicit set of plan indices in parallel, writing a
     * PointSample per position: out[pos] describes plan point
     * indices[pos]. This is the adaptive engine's evaluation wave —
     * the indices are whatever the coarse-to-fine planner asks for,
     * generally non-contiguous.
     *
     * Shares the streaming pipeline's machinery: designs build via
     * plan.point into per-worker scratch, ANALYTIC-mode designs
     * evaluate through the batch kernel (perf/batch_eval.hh),
     * simulated-GEMM designs get a call-scoped GemmCache hoist.
     * Deterministic: out[pos] depends only on indices[pos], never on
     * scheduling.
     *
     * @param plan      Compiled space (must outlive the call).
     * @param indices   Plan indices to evaluate (any order; repeats
     *                  allowed and evaluated repeatedly).
     * @param count     Number of indices.
     * @param predicate Keep-filter recorded in PointSample::kept.
     * @param out       Caller-allocated array of @p count samples.
     * @param threads   Worker cap; 0 uses the pool's concurrency.
     */
    void evaluatePlanIndices(const SweepPlan &plan,
                             const std::size_t *indices,
                             std::size_t count,
                             const StreamPredicate &predicate,
                             PointSample *out,
                             unsigned threads = 0) const;

    /**
     * The wave entry point behind the overload above, for callers
     * that already timed some of the points (AdaptiveSearch's point
     * store).
     *
     * Positions [0, fresh) are timed by the perf kernels as above.
     * Positions [fresh, count) are pre-timed: out[pos] arrives
     * holding the point's ttftS, tbtS, underReticle and
     * oct2023Unregulated, and only kept is recomputed — the design is
     * rebuilt with plan.point and its static fields (area, cost, TPP)
     * and handed to the predicate with the stored latencies, which
     * yields the verdict the timed path would. Both kinds share one
     * parallel pass.
     *
     * @param fresh   Leading positions to time (<= count).
     * @param scratch Per-worker buffers; reusing one across calls
     *                keeps waves after the first off the allocator.
     */
    void evaluatePlanIndices(const SweepPlan &plan,
                             const std::size_t *indices,
                             std::size_t count, std::size_t fresh,
                             const StreamPredicate &predicate,
                             PointSample *out, unsigned threads,
                             WaveScratch &scratch) const;

    /** The prebuilt per-layer graphs (hardware independent). */
    const model::LayerGraph &prefillGraph() const { return prefill_; }
    const model::LayerGraph &decodeGraph() const { return decode_; }

    /** The evaluator's perf-model constants (fingerprinting). */
    const perf::PerfParams &params() const { return params_; }

  private:
    /**
     * evaluate() against an explicit params set: the batch entry
     * points pass a copy of params_ carrying the hoisted sweep-scoped
     * GemmCache handle (perf_params.hh). Must be bit-identical to
     * evaluate() whenever @p params differs from params_ only in its
     * cache handle.
     */
    EvaluatedDesign evaluateWith(const hw::HardwareConfig &cfg,
                                 const perf::PerfParams &params) const;

    /** The non-timing fields of evaluate(): area, cost, reticle. */
    void fillStaticFields(const hw::HardwareConfig &cfg,
                          EvaluatedDesign *d) const;

    struct ChunkScratch; // per-worker buffers (evaluate.cc)

    /**
     * Per-design completion hook of evaluateChunk: (design, plan
     * index, position). Position is base + offset — the slot in the
     * caller's index/output arrays.
     */
    using ChunkSink = std::function<void(
        const EvaluatedDesign &, std::size_t, std::size_t)>;

    /**
     * Evaluate one worker-claimed chunk: positions [base, base+count)
     * mapping to plan indices indices[pos] (or pos itself when
     * indices is null — the streaming pipeline's contiguous claim).
     * Routes ANALYTIC-mode chunks through the batch kernel and
     * simulated-GEMM chunks through the scalar evaluateWith; both
     * deliver identical designs to @p sink in position order.
     */
    void evaluateChunk(const SweepPlan &plan, std::size_t base,
                       std::size_t count, const std::size_t *indices,
                       const perf::PerfParams &params,
                       ChunkScratch &scratch,
                       const ChunkSink &sink) const;

    model::TransformerConfig modelCfg_;
    model::InferenceSetting setting_;
    perf::SystemConfig sys_;
    perf::PerfParams params_;
    area::AreaModel areaModel_;
    area::CostModel costModel_;
    model::LayerGraph prefill_; //!< built once; shared by all designs
    model::LayerGraph decode_;
};

/**
 * Buffers of DesignEvaluator::evaluatePlanIndices, one set per worker
 * (configs with their name buffers, the batch view, the batch
 * evaluator and its op memo). Building them costs about 160
 * allocations; a caller that runs many waves keeps one WaveScratch
 * and pays that once. Bound to the evaluator that last used it;
 * handing it to another evaluator resets it. Not thread-safe: one
 * call at a time.
 */
class DesignEvaluator::WaveScratch
{
  public:
    WaveScratch();
    ~WaveScratch();
    WaveScratch(const WaveScratch &) = delete;
    WaveScratch &operator=(const WaveScratch &) = delete;

  private:
    friend class DesignEvaluator;
    const DesignEvaluator *owner_ = nullptr;
    std::vector<ChunkScratch> workers_;
};

/** Keep only designs with area at or under the reticle limit. */
std::vector<EvaluatedDesign>
filterReticle(const std::vector<EvaluatedDesign> &designs);

/**
 * Rvalue overload: filters in place and returns the same storage, so
 * pipeline spellings like filterReticle(study.runSweep(...)) never
 * deep-copy the design set.
 */
std::vector<EvaluatedDesign>
filterReticle(std::vector<EvaluatedDesign> &&designs);

/**
 * Keep only designs entirely unregulated under the Oct-2023
 * data-center rule (the paper's compliance bar in Sec. 4.3: NAC
 * devices may be denied, so compliant means NOT_APPLICABLE).
 */
std::vector<EvaluatedDesign>
filterOct2023Unregulated(const std::vector<EvaluatedDesign> &designs);

/** Rvalue overload: filters in place (see filterReticle). */
std::vector<EvaluatedDesign>
filterOct2023Unregulated(std::vector<EvaluatedDesign> &&designs);

/** The design with minimum TTFT (fatal on empty input). */
const EvaluatedDesign &
minTtft(const std::vector<EvaluatedDesign> &designs);

/** The design with minimum TBT (fatal on empty input). */
const EvaluatedDesign &
minTbt(const std::vector<EvaluatedDesign> &designs);

} // namespace dse
} // namespace acs

#endif // ACS_DSE_EVALUATE_HH
