/**
 * @file
 * Batch evaluation of the analytic performance model over a chunk of
 * designs.
 *
 * The scalar path (InferenceSimulator -> MatmulModel/VectorModel/
 * CommModel) evaluates one design at a time and pays per design for
 * what a sweep shares: the layer graph, the op-shape memo and the
 * per-op dispatch. Sweep drivers instead time one operator for every
 * design of a chunk, so each op shape is looked up, validated and
 * dispatched once per chunk rather than once per design.
 *
 * There is no second copy of the physics: every per-design step calls
 * the same analytic.hh roofline functions the scalar models call, on
 * the same DeviceTerms, so each lane's result is the exact double the
 * scalar model produces (tests/test_batch_eval.cpp checks this over
 * the fig06 op shapes). The inner loops are plain per-design calls;
 * they do not auto-vectorize (the roofline branches on tiling and
 * blocking), and the win is the per-op work hoisted out of them.
 * ANALYTIC mode only — TILE_SIM/CYCLE_SIM latencies come from
 * per-design schedule simulation, served by perf::GemmCache.
 */

#ifndef ACS_PERF_BATCH_EVAL_HH
#define ACS_PERF_BATCH_EVAL_HH

#include <cstddef>
#include <vector>

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/analytic.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/** The roofline terms of N hardware designs, one DeviceTerms each. */
struct DesignBatch
{
    std::vector<DeviceTerms> devices;

    std::size_t size() const { return devices.size(); }
    void clear() { devices.clear(); }
    void reserve(std::size_t n) { devices.reserve(n); }

    /** Append one design (validated by the caller, as plan.point does). */
    void push(const hw::HardwareConfig &cfg) { devices.emplace_back(cfg); }
};

/**
 * Time one MATMUL op for every design in @p batch (ANALYTIC roofline;
 * MatmulModel::time minus the simulating modes).
 *
 * @param out totalS per design, length batch.size().
 */
void batchMatmulTotalS(const DesignBatch &batch, const model::Op &op,
                       const PerfParams &params, double *out);

/** Time one VECTOR op for every design (as VectorModel::time). */
void batchVectorTotalS(const DesignBatch &batch, const model::Op &op,
                       const PerfParams &params, double *out);

/**
 * Time one ALLREDUCE op for every design (as CommModel::time).
 * Zero at tensor_parallel == 1; fatal on a zero-interconnect design
 * otherwise, like the scalar model.
 */
void batchAllreduceTotalS(const DesignBatch &batch, const model::Op &op,
                          int tensor_parallel, const PerfParams &params,
                          double *out);

/**
 * Batched counterpart of InferenceSimulator::simulateLayer +
 * OpShapeMemo: sums per-op latencies of a layer graph across N
 * designs, memoizing repeated op shapes so a shape repeated within
 * one evaluation is timed once per batch.
 *
 * Usage per design chunk: reset(), then one layerLatency call per
 * graph (prefill, decode) — the memo spans the calls exactly like the
 * scalar per-run OpShapeMemo spans both phases of one
 * InferenceSimulator::run.
 *
 * Not thread-safe; sweep workers keep one evaluator each.
 */
class BatchEvaluator
{
  public:
    explicit BatchEvaluator(const PerfParams &params) : params_(params) {}

    /**
     * Drop memoized shapes (call when the batch contents change). The
     * slots keep their buffers, so a sweep that resets once per chunk
     * stops allocating after its first chunk.
     */
    void reset() { used_ = 0; }

    /**
     * Accumulate the summed op latency of @p graph into @p out:
     * out[i] += latency of each op in graph order, for every design i
     * of @p batch. The caller zeroes @p out first; the += order
     * matches the scalar `result.latencyS += timing.latencyS` fold,
     * so the final sums are bit-identical to InferenceSimulator's.
     */
    void layerLatency(const model::LayerGraph &graph, int tensor_parallel,
                      const DesignBatch &batch, double *out);

  private:
    struct MemoEntry
    {
        model::Op op; //!< key fields only; the name is ignored
        std::vector<double> latencyS;
    };

    PerfParams params_;
    std::vector<MemoEntry> memo_; //!< [0, used_) live; the rest spare
    std::size_t used_ = 0;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_BATCH_EVAL_HH
