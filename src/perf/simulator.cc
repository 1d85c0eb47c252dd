#include "simulator.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace acs {
namespace perf {

namespace {

/** Tally which resource bound an op's modeled latency (obs only). */
void
tallyBound(Bound bound)
{
    switch (bound) {
      case Bound::COMPUTE:
        obs::counterAdd("perf.bound.compute");
        break;
      case Bound::HBM:
        obs::counterAdd("perf.bound.hbm");
        break;
      case Bound::GLOBAL_BUFFER:
        obs::counterAdd("perf.bound.l2");
        break;
      case Bound::INTERCONNECT:
        obs::counterAdd("perf.bound.interconnect");
        break;
    }
}

} // anonymous namespace

/**
 * Per-run cache of op timings keyed by operator shape/footprint.
 *
 * Graphs repeat shapes (the two layer norms, the two residual adds,
 * the attention and FFN allreduces carry identical payloads), and the
 * models are pure functions of (shape, footprint), so a repeated shape
 * can reuse the first timing bit-exactly. Lookups are a linear scan:
 * layer graphs hold ~15 ops, so a hash table would cost more than it
 * saves.
 */
class OpShapeMemo
{
  public:
    struct Timing
    {
        double latencyS;
        Bound bound;
        double utilization;
    };

    const Timing *find(const model::Op &op) const
    {
        for (const Entry &e : entries_) {
            if (sameOpShape(e.op, op))
                return &e.timing;
        }
        return nullptr;
    }

    void insert(const model::Op &op, const Timing &timing)
    {
        entries_.push_back({op, timing});
    }

  private:
    struct Entry
    {
        model::Op op; //!< key fields only; the name is ignored
        Timing timing;
    };
    std::vector<Entry> entries_;
};

double
LayerResult::mfu(double peak_flops) const
{
    panicIf(peak_flops <= 0.0, "mfu: peak_flops must be positive");
    if (latencyS <= 0.0)
        return 0.0;
    return flops / (latencyS * peak_flops);
}

double
InferenceResult::endToEndLatencyS() const
{
    return ttftFullModelS + outputLen * tbtFullModelS;
}

double
InferenceResult::decodeThroughputTokensPerS() const
{
    panicIf(tbtFullModelS <= 0.0, "decode latency must be positive");
    return batch / tbtFullModelS;
}

double
InferenceResult::throughputTokensPerS() const
{
    const double e2e = endToEndLatencyS();
    panicIf(e2e <= 0.0, "end-to-end latency must be positive");
    return static_cast<double>(batch) * outputLen / e2e;
}

InferenceSimulator::InferenceSimulator(const hw::HardwareConfig &cfg,
                                       const PerfParams &params)
    : cfg_(cfg), params_(params), matmul_(cfg, params),
      vector_(cfg, params), comm_(cfg, params)
{
    cfg_.validate();
}

LayerResult
InferenceSimulator::simulateLayer(const model::LayerGraph &graph,
                                  int tensor_parallel) const
{
    OpShapeMemo memo;
    return simulateLayer(graph, tensor_parallel, memo);
}

LayerResult
InferenceSimulator::simulateLayer(const model::LayerGraph &graph,
                                  int tensor_parallel,
                                  OpShapeMemo &memo) const
{
    fatalIf(tensor_parallel < 1,
            "simulateLayer: tensor_parallel must be >= 1");

    LayerResult result;
    result.ops.reserve(graph.ops.size());
    for (const model::Op &op : graph.ops) {
        const obs::TraceSpan op_span(op.name);
        OpTiming timing;
        timing.name = op.name;
        timing.kind = op.kind;
        const OpShapeMemo::Timing *hit = memo.find(op);
        if (hit) {
            timing.latencyS = hit->latencyS;
            timing.bound = hit->bound;
            timing.utilization = hit->utilization;
            obs::counterAdd("perf.memo.hits");
        } else {
            switch (op.kind) {
              case model::OpKind::MATMUL: {
                const MatmulTiming t = matmul_.time(op);
                timing.latencyS = t.totalS;
                timing.bound = t.bound;
                timing.utilization = t.utilization;
                break;
              }
              case model::OpKind::VECTOR: {
                const VectorTiming t = vector_.time(op);
                timing.latencyS = t.totalS;
                timing.bound = t.bound;
                break;
              }
              case model::OpKind::ALLREDUCE: {
                const CommTiming t = comm_.time(op, tensor_parallel);
                timing.latencyS = t.totalS;
                timing.bound = Bound::INTERCONNECT;
                break;
              }
            }
            memo.insert(op, {timing.latencyS, timing.bound,
                             timing.utilization});
        }
        if (obs::enabled()) {
            // Memo hits still count: these tallies describe the graph
            // (how many ops run, what binds them), not model work.
            obs::counterAdd("perf.ops.timed");
            tallyBound(timing.bound);
        }
        result.latencyS += timing.latencyS;
        result.flops += op.flops;
        result.ops.push_back(std::move(timing));
    }
    return result;
}

InferenceResult
InferenceSimulator::run(const model::TransformerConfig &model_cfg,
                        const model::InferenceSetting &setting,
                        const SystemConfig &sys) const
{
    model_cfg.validate();
    setting.validate();
    fatalIf(sys.tensorParallel < 1,
            "SystemConfig: tensorParallel must be >= 1");

    const model::LayerGraph prefill =
        model::buildPrefillGraph(model_cfg, setting, sys.tensorParallel);
    const model::LayerGraph decode =
        model::buildDecodeGraph(model_cfg, setting, sys.tensorParallel);
    return run(model_cfg, setting, sys, prefill, decode);
}

InferenceResult
InferenceSimulator::run(const model::TransformerConfig &model_cfg,
                        const model::InferenceSetting &setting,
                        const SystemConfig &sys,
                        const model::LayerGraph &prefill,
                        const model::LayerGraph &decode) const
{
    fatalIf(sys.tensorParallel < 1,
            "SystemConfig: tensorParallel must be >= 1");

    // One memo for both phases: the graph builders guarantee the
    // graphs were produced for the same tensor_parallel degree.
    OpShapeMemo memo;

    InferenceResult r;
    {
        const obs::TraceSpan span("perf.prefill");
        r.prefill = simulateLayer(prefill, sys.tensorParallel, memo);
    }
    {
        const obs::TraceSpan span("perf.decode");
        r.decode = simulateLayer(decode, sys.tensorParallel, memo);
    }
    r.ttftS = r.prefill.latencyS;
    r.tbtS = r.decode.latencyS;
    r.ttftFullModelS = r.ttftS * model_cfg.numLayers;
    r.tbtFullModelS = r.tbtS * model_cfg.numLayers;

    r.weightBytesPerDevice =
        static_cast<double>(model_cfg.totalParams()) *
        setting.bytesPerValue / sys.tensorParallel;
    const int final_ctx = setting.inputLen + setting.outputLen;
    r.kvCacheBytesPerDevice =
        model::kvCacheBytesPerLayer(model_cfg, setting, final_ctx,
                                    sys.tensorParallel) *
        model_cfg.numLayers;
    r.fitsMemory = r.weightBytesPerDevice + r.kvCacheBytesPerDevice <=
                   cfg_.memCapacityBytes;
    r.numLayers = model_cfg.numLayers;
    r.batch = setting.batch;
    r.outputLen = setting.outputLen;
    return r;
}

} // namespace perf
} // namespace acs
