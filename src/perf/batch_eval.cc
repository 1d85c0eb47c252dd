#include "batch_eval.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace acs {
namespace perf {

void
batchMatmulTotalS(const DesignBatch &batch, const model::Op &op,
                  const PerfParams &params, double *out)
{
    if (op.kind != model::OpKind::MATMUL)
        fatal("batchMatmulTotalS requires a MATMUL op: " + op.name);
    const auto &mm = op.mm;
    if (mm.m < 1 || mm.n < 1 || mm.k < 1 || mm.batchCount < 1)
        fatal("batchMatmulTotalS: degenerate GEMM dims in " + op.name);
    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = matmulRoofline(batch.devices[i], op, params).totalS;
}

void
batchVectorTotalS(const DesignBatch &batch, const model::Op &op,
                  const PerfParams &params, double *out)
{
    if (op.kind != model::OpKind::VECTOR)
        fatal("batchVectorTotalS requires a VECTOR op: " + op.name);
    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = vectorRoofline(batch.devices[i], op, params).totalS;
}

void
batchAllreduceTotalS(const DesignBatch &batch, const model::Op &op,
                     int tensor_parallel, const PerfParams &params,
                     double *out)
{
    if (op.kind != model::OpKind::ALLREDUCE)
        fatal("batchAllreduceTotalS requires an ALLREDUCE op: " +
              op.name);
    fatalIf(tensor_parallel < 1,
            "batchAllreduceTotalS: tensor_parallel must be >= 1");
    for (std::size_t i = 0; i < batch.size(); ++i) {
        out[i] = allreduceRoofline(batch.devices[i], op, tensor_parallel,
                                   params)
                     .totalS;
    }
}

void
BatchEvaluator::layerLatency(const model::LayerGraph &graph,
                             int tensor_parallel,
                             const DesignBatch &batch, double *out)
{
    fatalIf(tensor_parallel < 1,
            "BatchEvaluator: tensor_parallel must be >= 1");
    const std::size_t n = batch.size();
    for (const model::Op &op : graph.ops) {
        const auto live_end = memo_.begin() + used_;
        const auto hit = std::find_if(
            memo_.begin(), live_end,
            [&](const MemoEntry &e) { return sameOpShape(e.op, op); });
        const double *lat;
        if (hit != live_end) {
            lat = hit->latencyS.data();
        } else {
            // Fill the next slot in place: assigning into a spare
            // slot reuses its name and latency buffers. The slot goes
            // live only once timed, so a fatal shape leaves no entry.
            if (used_ == memo_.size())
                memo_.emplace_back();
            MemoEntry &slot = memo_[used_];
            slot.op = op;
            slot.latencyS.resize(n);
            double *timed = slot.latencyS.data();
            switch (op.kind) {
              case model::OpKind::MATMUL:
                batchMatmulTotalS(batch, op, params_, timed);
                break;
              case model::OpKind::VECTOR:
                batchVectorTotalS(batch, op, params_, timed);
                break;
              case model::OpKind::ALLREDUCE:
                batchAllreduceTotalS(batch, op, tensor_parallel, params_,
                                     timed);
                break;
            }
            ++used_;
            lat = timed;
        }
        // Accumulate in graph order: same adds, same order as the
        // scalar `result.latencyS += timing.latencyS` fold.
        for (std::size_t i = 0; i < n; ++i)
            out[i] += lat[i];
    }
    if (obs::enabled())
        obs::counterAdd("dse.batch.ops", graph.ops.size() * n);
}

} // namespace perf
} // namespace acs
