/**
 * @file
 * Device-device interconnect model (ring allreduce).
 *
 * Tensor parallelism issues one allreduce after each row-parallel GEMM.
 * A ring allreduce moves 2 (p-1)/p of the payload through each device's
 * links and pays 2 (p-1) hop latencies. The device's *aggregate
 * bidirectional* bandwidth (the quantity the Oct-2022 ACR regulates) is
 * split evenly between the send and receive directions. The closed
 * form is allreduceRoofline (analytic.hh).
 */

#ifndef ACS_PERF_COMM_MODEL_HH
#define ACS_PERF_COMM_MODEL_HH

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/analytic.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/**
 * Collective latency estimator.
 *
 * Thread-compatible: const after construction.
 */
class CommModel
{
  public:
    CommModel(const hw::HardwareConfig &cfg, const PerfParams &params);

    /**
     * Time one ring allreduce across @p tensor_parallel devices.
     *
     * @param op              Operator with kind == ALLREDUCE.
     * @param tensor_parallel Participating devices (>= 1). A single
     *                        device needs no communication (zero time).
     */
    CommTiming time(const model::Op &op, int tensor_parallel) const;

  private:
    DeviceTerms dev_;
    PerfParams params_;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_COMM_MODEL_HH
