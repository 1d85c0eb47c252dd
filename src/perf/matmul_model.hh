/**
 * @file
 * Tile-level GEMM latency model for the systolic-array template.
 *
 * The model captures the architecture sensitivities the paper's DSE
 * depends on:
 *  - pipeline fill/drain loss per tile wave: util ~ Tm / (Tm+DIMX+DIMY),
 *    which penalizes big arrays on skinny decode GEMMs;
 *  - tile sizes limited by the per-lane share of the local buffer, which
 *    drives both pipeline utilization and L2 traffic (the paper's
 *    "L1 size is the best TTFT indicator" result);
 *  - global-buffer blocking, which determines how many times the
 *    streamed operand re-reads from HBM (L2-size sensitivity);
 *  - HBM and global-buffer bandwidth roofs.
 *
 * The closed form itself lives in analytic.hh (shared with the sweep
 * batch kernel); this class adds validation, the TILE_SIM/CYCLE_SIM
 * dispatch and the cross-design GEMM cache.
 */

#ifndef ACS_PERF_MATMUL_MODEL_HH
#define ACS_PERF_MATMUL_MODEL_HH

#include <cstdint>

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/analytic.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/**
 * The shared tiling policy (analytic.hh) for one config: used by the
 * closed-form MatmulModel and the wave- and cycle-level simulators so
 * all three time the same schedule.
 */
TileChoice chooseTiles(const hw::HardwareConfig &cfg,
                       const model::MatmulShape &mm,
                       const PerfParams &params);

/** Blocked HBM traffic of one GEMM (analytic.hh) for one config. */
double blockedHbmTraffic(const hw::HardwareConfig &cfg,
                         const model::Op &op, const PerfParams &params);

/**
 * GEMM latency estimator for one device.
 *
 * Thread-compatible: const after construction.
 */
class MatmulModel
{
  public:
    /**
     * @param cfg    Device to model (validated; copied).
     * @param params Model constants.
     */
    MatmulModel(const hw::HardwareConfig &cfg, const PerfParams &params);

    /**
     * Time one GEMM operator.
     *
     * @param op Operator with kind == MATMUL (fatal otherwise).
     * @return Detailed timing.
     */
    MatmulTiming time(const model::Op &op) const;

    /** Peak global-buffer bandwidth (bytes/s) of the modeled device. */
    double globalBufferBandwidth() const
    {
        return perf::globalBufferBandwidth(dev_, params_);
    }

  private:
    hw::HardwareConfig cfg_;
    DeviceTerms dev_;
    PerfParams params_;
    /**
     * fingerprintGemmParams(params_), computed once here so TILE_SIM
     * cache keys (params_.gemmCache) need no per-op re-hashing.
     */
    std::uint64_t paramsFp_ = 0;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_MATMUL_MODEL_HH
