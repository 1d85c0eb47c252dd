/**
 * @file
 * Latency model for elementwise/reduction vector operators.
 *
 * Softmax, LayerNorm, activations, and residual adds have low arithmetic
 * intensity (Sec. 3.1): their latency is the max of vector-throughput
 * time and memory-streaming time, with the streaming level chosen by
 * whether the working set fits the global buffer. The closed form is
 * vectorRoofline (analytic.hh).
 */

#ifndef ACS_PERF_VECTOR_MODEL_HH
#define ACS_PERF_VECTOR_MODEL_HH

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/analytic.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/**
 * Vector-op latency estimator for one device.
 *
 * Thread-compatible: const after construction.
 */
class VectorModel
{
  public:
    VectorModel(const hw::HardwareConfig &cfg, const PerfParams &params);

    /**
     * Time one vector operator.
     *
     * @param op Operator with kind == VECTOR (fatal otherwise).
     */
    VectorTiming time(const model::Op &op) const;

  private:
    DeviceTerms dev_;
    PerfParams params_;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_VECTOR_MODEL_HH
