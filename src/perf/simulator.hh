/**
 * @file
 * The per-layer LLM inference simulator (the LLMCompass substitute).
 *
 * Composes the GEMM, vector, and collective models over an operator
 * graph. As in the paper (Sec. 3.2), results are reported for a single
 * decoder layer: TTFT is the prefill latency of one layer, TBT the
 * decode latency of one layer; full-model numbers multiply by layer
 * count (transformer layers are identical).
 */

#ifndef ACS_PERF_SIMULATOR_HH
#define ACS_PERF_SIMULATOR_HH

#include <vector>

#include "hw/config.hh"
#include "model/ops.hh"
#include "model/transformer.hh"
#include "perf/comm_model.hh"
#include "perf/matmul_model.hh"
#include "perf/perf_params.hh"
#include "perf/vector_model.hh"

namespace acs {
namespace perf {

class OpShapeMemo; // per-run op-timing cache (internal to simulator.cc)

/** Multi-device execution configuration. */
struct SystemConfig
{
    /** Megatron-style tensor-parallel degree (>= 1). */
    int tensorParallel = 1;
};

/** Resolved timing of one operator. */
struct OpTiming
{
    std::string name;
    model::OpKind kind = model::OpKind::VECTOR;
    double latencyS = 0.0;
    Bound bound = Bound::COMPUTE;
    double utilization = 0.0; //!< GEMMs only: fraction of peak TOPS
};

/** Timing of one full layer graph. */
struct LayerResult
{
    double latencyS = 0.0;
    double flops = 0.0;
    std::vector<OpTiming> ops;

    /**
     * Model FLOPs utilization (Sec. 3.1): achieved throughput over the
     * device's peak tensor throughput.
     */
    double mfu(double peak_flops) const;
};

/** End-to-end result for one (model, setting, system) evaluation. */
struct InferenceResult
{
    LayerResult prefill;
    LayerResult decode;

    /** TTFT as reported by the paper: one layer's prefill latency. */
    double ttftS = 0.0;
    /** TBT as reported by the paper: one layer's decode latency. */
    double tbtS = 0.0;

    /** Full-stack latencies (layer latency x layer count). */
    double ttftFullModelS = 0.0;
    double tbtFullModelS = 0.0;

    /** Per-device weight + KV-cache footprint at end of generation. */
    double weightBytesPerDevice = 0.0;
    double kvCacheBytesPerDevice = 0.0;
    /** Whether that footprint fits device memory capacity. */
    bool fitsMemory = true;

    // Captured from the evaluated (model, setting) pair so derived
    // metrics (Sec. 3.1) need no extra arguments.
    int numLayers = 0;
    int batch = 0;
    int outputLen = 0;

    /** Full-request latency: prefill + outputLen decode steps. */
    double endToEndLatencyS() const;

    /** Steady-state decode throughput in tokens/second (all users). */
    double decodeThroughputTokensPerS() const;

    /** End-to-end generation throughput in tokens/second. */
    double throughputTokensPerS() const;
};

/**
 * Per-layer inference simulator for one device configuration.
 *
 * Thread-compatible: const after construction; safe to share across
 * threads running different queries.
 */
class InferenceSimulator
{
  public:
    /**
     * @param cfg    Device to simulate (validated; copied).
     * @param params Performance-model constants.
     */
    explicit InferenceSimulator(const hw::HardwareConfig &cfg,
                                const PerfParams &params = PerfParams{});

    /**
     * Time an arbitrary layer graph.
     *
     * Operators run back-to-back (unfused kernels, as in LLMCompass);
     * latency is the sum of operator latencies.
     *
     * @param graph           Operator sequence for one device.
     * @param tensor_parallel TP degree used for collectives.
     */
    LayerResult simulateLayer(const model::LayerGraph &graph,
                              int tensor_parallel) const;

    /**
     * Evaluate a model under the standard setting: builds the prefill
     * and decode graphs and produces the paper's TTFT/TBT metrics.
     */
    InferenceResult run(const model::TransformerConfig &model_cfg,
                        const model::InferenceSetting &setting,
                        const SystemConfig &sys) const;

    /**
     * Prebuilt-graph overload: the layer graphs are hardware
     * independent, so sweep callers (dse::DesignEvaluator) build them
     * once per (model, setting, tensorParallel) and evaluate thousands
     * of devices against the same pair instead of rebuilding both
     * graphs per design.
     *
     * @param prefill Graph from buildPrefillGraph(model_cfg, setting,
     *                sys.tensorParallel).
     * @param decode  Graph from buildDecodeGraph with the same
     *                arguments. Results are bit-identical to the
     *                graph-building overload.
     */
    InferenceResult run(const model::TransformerConfig &model_cfg,
                        const model::InferenceSetting &setting,
                        const SystemConfig &sys,
                        const model::LayerGraph &prefill,
                        const model::LayerGraph &decode) const;

    /** The modeled device. */
    const hw::HardwareConfig &device() const { return cfg_; }

    /** The model constants in use. */
    const PerfParams &params() const { return params_; }

  private:
    /**
     * simulateLayer with a cross-call memo: identical op shapes
     * (Q/K/V projections, the paired norms/residuals, repeated
     * allreduce payloads) are timed once per run. @p memo must only be
     * shared between calls with the same tensor_parallel (collective
     * timings depend on it).
     */
    LayerResult simulateLayer(const model::LayerGraph &graph,
                              int tensor_parallel,
                              OpShapeMemo &memo) const;

    hw::HardwareConfig cfg_;
    PerfParams params_;
    MatmulModel matmul_;
    VectorModel vector_;
    CommModel comm_;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_SIMULATOR_HH
