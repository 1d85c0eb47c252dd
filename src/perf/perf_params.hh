/**
 * @file
 * Tunable constants of the analytical performance model.
 */

#ifndef ACS_PERF_PERF_PARAMS_HH
#define ACS_PERF_PERF_PARAMS_HH

#include <string>

namespace acs {
namespace perf {

class GemmCache; // cross-design GEMM timing cache (gemm_cache.hh)

/** How GEMM latency is derived. */
enum class GemmMode
{
    ANALYTIC,  //!< closed-form roofline (fast; the default)
    TILE_SIM,  //!< wave-level schedule simulation (detailed)
    CYCLE_SIM, //!< event-driven cycle-level core model (most detailed)
};

/** Mode name as accepted by the --gemm-mode flag. */
inline const char *
toString(GemmMode mode)
{
    switch (mode) {
      case GemmMode::ANALYTIC:  return "analytic";
      case GemmMode::TILE_SIM:  return "tile_sim";
      case GemmMode::CYCLE_SIM: return "cycle_sim";
    }
    return "?";
}

/**
 * The accepted --gemm-mode values, for use in error messages. Kept
 * next to parseGemmMode so a new mode cannot be parsed without also
 * being advertised.
 */
inline const char *
gemmModeNames()
{
    return "analytic, tile_sim, or cycle_sim";
}

/**
 * Parse a --gemm-mode value (one of gemmModeNames()).
 *
 * @return false (leaving @p out untouched) on an unknown name.
 */
inline bool
parseGemmMode(const std::string &name, GemmMode *out)
{
    if (name == "analytic") {
        *out = GemmMode::ANALYTIC;
        return true;
    }
    if (name == "tile_sim") {
        *out = GemmMode::TILE_SIM;
        return true;
    }
    if (name == "cycle_sim") {
        *out = GemmMode::CYCLE_SIM;
        return true;
    }
    return false;
}

/**
 * Efficiency and microarchitectural constants.
 *
 * Defaults are calibrated so the modeled A100 reproduces the paper's
 * first-order behaviour (see DESIGN.md). The ablation bench
 * (bench/abl_perf_model) sweeps the modeling switches. Only the GEMM
 * cache fields (gemmCache, cacheTileSimGemms) leave results unchanged;
 * the slow reference engines are free functions for tests and the
 * microbench (simulateGemmWalk, simulateGemmCyclesTick), not fields.
 */
struct PerfParams
{
    /** GEMM latency derivation (closed form vs wave simulation). */
    GemmMode gemmMode = GemmMode::ANALYTIC;

    /**
     * DRAM bank timelines the CYCLE_SIM memory system models. Fill
     * requests interleave across banks; a request targeting a busy
     * bank queues behind it (the dramQueueCycles stall bucket).
     */
    int cycleDramBanks = 16;

    /** CYCLE_SIM memory request granule (bytes per DRAM request). */
    long cycleDramReqBytes = 4096;

    /**
     * Bounded outstanding DRAM requests per systolic array: a fill
     * issues its requests in windows of this size and waits for the
     * window to drain before issuing the next (request/response flow
     * control).
     */
    int cycleDramWindow = 4;

    /**
     * Charge vector kernels their multi-pass traffic (softmax makes
     * three passes over its tensor, normalization two). Off by
     * default: the calibrated baselines assume fused single-pass
     * kernels; the ablation bench quantifies the difference.
     */
    bool modelMultiPassVector = false;
    /** Achievable fraction of peak HBM bandwidth. */
    double memEfficiency = 0.85;

    /** Achievable fraction of peak global-buffer bandwidth. */
    double l2Efficiency = 0.9;

    /**
     * Global buffer bandwidth: bytes/cycle per systolic-array FPU
     * (the buffer is banked to feed the compute, so bandwidth scales
     * with peak tensor throughput — equal-TPP designs have equal L2
     * bandwidth and differ only in the traffic their tiling creates).
     * 1/16 B/cycle/FPU gives the modeled A100 ~9.7 TB/s, keeping
     * Table-3-class caches compute-bound while small (32-64 KiB) L1s
     * become global-buffer bound, as in the paper's Fig. 12.
     */
    double l2BytesPerCyclePerFpu = 0.0625;

    /** Fraction of L2 usable as a blocking buffer (rest is staging). */
    double l2BlockingFraction = 0.5;

    /** Fraction of L1 usable for tile operands (double buffering). */
    double l1TileFraction = 0.5;

    /**
     * Fixed per-kernel launch + pipeline-ramp overhead (seconds).
     *
     * Dominant for the tiny decode kernels (batch-32 GEMVs finish in
     * tens of microseconds), negligible for prefill kernels. This is
     * what keeps decode latency from scaling perfectly with HBM
     * bandwidth, as in the paper's Fig. 6/7 optimized-design deltas.
     */
    double kernelOverheadS = 20e-6;

    /** Per-hop latency of one allreduce ring step (seconds). */
    double allreduceStepLatencyS = 2e-6;

    /** Achievable fraction of peak interconnect bandwidth. */
    double interconnectEfficiency = 0.8;

    /** Model systolic pipeline fill/drain loss (ablation switch). */
    bool modelPipelineFill = true;

    /**
     * Fraction of the per-wave fill/drain (DIMX + DIMY cycles) hidden
     * by double-buffered weights and drain/fill overlap. 0 exposes the
     * full fill each wave; 0.875 leaves 1/8 exposed (calibrated so the
     * modeled A100 reaches ~90% prefill utilization, matching the
     * paper's "near peak FLOPs during prefill" observation).
     */
    double pipelineFillOverlap = 0.875;

    /** Model L1-capacity-limited tiling (ablation switch). */
    bool modelTiling = true;

    /** Model L2-capacity GEMM blocking for HBM traffic (ablation). */
    bool modelL2Blocking = true;

    /**
     * Cross-design simulated-GEMM timing cache (non-owning; null =
     * none installed), consulted by the TILE_SIM and CYCLE_SIM modes
     * (entries are keyed by mode — see fingerprintGemmParams — so the
     * two never alias). Where the per-run op-shape memo reuses timings
     * *within* one design's simulation run, this handle reuses them
     * *across* designs whose canonical projection matches (see
     * gemm_cache.hh) — sweep axes that never touch die-local GEMM
     * timing (device interconnect bandwidth) then re-simulate
     * nothing. Bit-exact: hits return the exact MatmulTiming the
     * miss path computed. The holder owns the cache and guarantees
     * it outlives every model constructed from these params.
     */
    GemmCache *gemmCache = nullptr;

    /**
     * Let sweep drivers (dse::DesignEvaluator's evaluateAll,
     * evaluateAllParallel, and evaluateStream) hoist a sweep-scoped
     * GemmCache automatically when gemmCache is null and gemmMode is
     * a simulating one (TILE_SIM or CYCLE_SIM). Off is for
     * A/B verification (`--gemm-cache=off` on the DSE benches):
     * outputs are bit-identical either way, only the speed differs.
     */
    bool cacheTileSimGemms = true;
};

} // namespace perf
} // namespace acs

#endif // ACS_PERF_PERF_PARAMS_HH
