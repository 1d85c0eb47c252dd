/**
 * @file
 * Wave-level discrete GEMM simulation.
 *
 * Where MatmulModel computes a closed-form roofline estimate, the tile
 * simulator actually walks the schedule: tile jobs are assigned to
 * systolic arrays in waves, each wave's compute and its (double
 * buffered) operand transfers contend for the global buffer and HBM,
 * and edge waves carry their true remainder shapes. It exists to
 * cross-validate the analytical model (tests assert agreement), to
 * expose a per-wave trace for inspection, and — since the closed-form
 * wave-class aggregation rewrite — to back `GemmMode::TILE_SIM`
 * sweeps at full DSE throughput (see docs/PERF.md).
 *
 * Two entry points share one engine:
 *  - simulateGemm materializes the full per-wave trace;
 *  - simulateGemmSummary returns only the scalars a sweep needs
 *    (latency, wave count, tile count) without allocating WaveRecords.
 * simulateGemmWalk is the per-tile reference walk, for tests and the
 * microbench baseline only.
 */

#ifndef ACS_PERF_TILE_SIM_HH
#define ACS_PERF_TILE_SIM_HH

#include <vector>

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/** One scheduling wave across all systolic arrays. */
struct WaveRecord
{
    long waveIndex = 0;
    long tilesInWave = 0;   //!< may be short on the last wave
    double computeS = 0.0;  //!< slowest tile's systolic time
    double globalBufS = 0.0;//!< operand traffic service time
    double hbmS = 0.0;      //!< HBM share of the wave's traffic
    double startS = 0.0;    //!< when the wave's compute begins
    double endS = 0.0;      //!< when the wave completes
};

/** Full trace of one simulated GEMM. */
struct GemmTrace
{
    std::vector<WaveRecord> waves;
    long tileM = 0;
    long tileN = 0;
    double totalS = 0.0;

    /** Tile jobs scheduled, recorded at simulation time. */
    long scheduledTiles = 0;

    /** Total tiles scheduled (O(1)). */
    long totalTiles() const { return scheduledTiles; }
};

/**
 * Scalar result of one simulated GEMM: what a sweep consumes, without
 * the per-wave trace. Field-for-field bit-identical to the trace the
 * same simulation would materialize.
 */
struct GemmSummary
{
    long tileM = 0;
    long tileN = 0;
    long waves = 0;      //!< scheduling waves
    long totalTiles = 0; //!< tile jobs scheduled
    double totalS = 0.0; //!< GEMM latency incl. kernel overhead
};

/**
 * Simulate one GEMM wave by wave.
 *
 * Uses the same tile-selection policy as MatmulModel (so the two are
 * directly comparable) but derives timing from the explicit schedule:
 * wave i's operand fetches overlap wave i-1's compute (double
 * buffering), so each wave completes at
 *   end_i = max(end_{i-1}, fetch_ready_i) + compute_i
 * with fetch_ready_i tracking the shared global-buffer and HBM
 * service queues.
 *
 * Each wave is derived from O(1) tile-shape-class counts (the
 * aggregated engine); simulateGemmWalk is the per-tile reference it
 * is tested against.
 *
 * @param cfg    Device (validated).
 * @param op     Operator with kind == MATMUL (fatal otherwise).
 * @param params Model constants.
 */
GemmTrace simulateGemm(const hw::HardwareConfig &cfg,
                       const model::Op &op,
                       const PerfParams &params = PerfParams{});

/**
 * Simulate one GEMM without materializing the per-wave trace.
 *
 * Same schedule, same recurrence, same doubles as simulateGemm — only
 * the WaveRecord vector is skipped, which is what makes TILE_SIM mode
 * cheap enough to sit inside a DSE sweep (`MatmulModel::time` calls
 * this when `params.gemmMode == GemmMode::TILE_SIM`).
 */
GemmSummary simulateGemmSummary(const hw::HardwareConfig &cfg,
                                const model::Op &op,
                                const PerfParams &params = PerfParams{});

/**
 * The per-tile wave walk: the original O(total tiles) schedule walk,
 * kept as the reference the aggregated engine must match bit for bit
 * (tests/test_gemm_property.cpp) and as the `microbench --gemm-only`
 * baseline. Never the right choice for sweeps.
 */
GemmTrace simulateGemmWalk(const hw::HardwareConfig &cfg,
                           const model::Op &op,
                           const PerfParams &params = PerfParams{});

} // namespace perf
} // namespace acs

#endif // ACS_PERF_TILE_SIM_HH
