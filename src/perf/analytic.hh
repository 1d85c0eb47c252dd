/**
 * @file
 * The analytic operator roofline, written once.
 *
 * The closed-form MATMUL, VECTOR and ALLREDUCE timing physics of the
 * LLMCompass-style model (arxiv 2312.03134) as inline functions of one
 * DeviceTerms — the per-device quantities the roofline reads, derived
 * once from a HardwareConfig — plus the op and the PerfParams. The
 * scalar models (MatmulModel, VectorModel, CommModel) call them for
 * one design; the sweep batch kernel (batch_eval.hh) calls them in a
 * loop over a chunk of designs. Both paths produce the same doubles
 * because they run the same expressions, not mirrored copies.
 *
 * The kernels assume a valid op (kind and GEMM dims checked by the
 * caller, once per op rather than once per design).
 */

#ifndef ACS_PERF_ANALYTIC_HH
#define ACS_PERF_ANALYTIC_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/logging.hh"
#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/** FP16 element size; the tensor path the TPP definition regulates. */
inline constexpr double ELEM_BYTES = 2.0;

/** Where an op's latency comes from. */
enum class Bound
{
    COMPUTE,
    HBM,
    GLOBAL_BUFFER,
    INTERCONNECT,
};

/** Human-readable bound name. */
std::string toString(Bound bound);

/** Detailed timing of one GEMM. */
struct MatmulTiming
{
    double computeS = 0.0;    //!< systolic compute time
    double hbmS = 0.0;        //!< HBM streaming time
    double globalBufS = 0.0;  //!< L2 <-> L1 streaming time
    double utilization = 0.0; //!< achieved fraction of peak tensor TOPS
    long tileM = 0;           //!< chosen output-tile rows
    long tileN = 0;           //!< chosen output-tile columns
    double hbmTrafficBytes = 0.0;
    Bound bound = Bound::COMPUTE;

    /** Final latency: the binding resource (+ launch overhead). */
    double totalS = 0.0;
};

/** Output-tile shape chosen by the tiling policy. */
struct TileChoice
{
    long tileM = 1;
    long tileN = 1;
};

/** Timing of one vector op. */
struct VectorTiming
{
    double computeS = 0.0; //!< vector-unit time
    double memoryS = 0.0;  //!< streaming time at the serving level
    bool servedByGlobalBuffer = false;
    Bound bound = Bound::COMPUTE;
    double totalS = 0.0;
};

/** Timing of one collective. */
struct CommTiming
{
    double wireS = 0.0;    //!< bandwidth-proportional term
    double latencyS = 0.0; //!< hop-latency term
    double totalS = 0.0;
};

/**
 * The per-device terms the roofline reads, computed once per design
 * with the config's own accessors (so every path starts from the same
 * doubles).
 */
struct DeviceTerms
{
    double clockHz = 0.0;
    double l1BytesPerLane = 0.0;  //!< cfg.l1BytesPerLane()
    double l2Bytes = 0.0;
    double memBandwidth = 0.0;
    double deviceBandwidth = 0.0; //!< cfg.deviceBandwidth()
    double peakTensorFlops = 0.0; //!< cfg.peakTensorTops() * 1e12
    double peakVectorFlops = 0.0; //!< cfg.peakVectorFlops()
    double systolicFpus = 0.0;    //!< cfg.totalSystolicFpus()
    long arrays = 0;              //!< cfg.totalSystolicArrays()
    long systolicDimX = 0;
    long systolicDimY = 0;
    long lanesPerCore = 0;

    explicit DeviceTerms(const hw::HardwareConfig &cfg)
        : clockHz(cfg.clockHz), l1BytesPerLane(cfg.l1BytesPerLane()),
          l2Bytes(cfg.l2Bytes), memBandwidth(cfg.memBandwidth),
          deviceBandwidth(cfg.deviceBandwidth()),
          peakTensorFlops(cfg.peakTensorTops() * 1e12),
          peakVectorFlops(cfg.peakVectorFlops()),
          systolicFpus(static_cast<double>(cfg.totalSystolicFpus())),
          arrays(cfg.totalSystolicArrays()),
          systolicDimX(cfg.systolicDimX), systolicDimY(cfg.systolicDimY),
          lanesPerCore(cfg.lanesPerCore)
    {
    }
};

/**
 * Op-shape equality on exactly the fields the op models read (the
 * name is ignored): the key of the per-run op-shape memos.
 */
inline bool
sameOpShape(const model::Op &a, const model::Op &b)
{
    return a.kind == b.kind && a.flops == b.flops &&
           a.weightBytes == b.weightBytes &&
           a.inputBytes == b.inputBytes &&
           a.outputBytes == b.outputBytes && a.commBytes == b.commBytes &&
           a.memoryPasses == b.memoryPasses && a.mm.m == b.mm.m &&
           a.mm.n == b.mm.n && a.mm.k == b.mm.k &&
           a.mm.batchCount == b.mm.batchCount &&
           a.mm.weightStationary == b.mm.weightStationary;
}

/**
 * Peak global-buffer bandwidth (bytes/s): the buffer is banked to feed
 * the systolic arrays, so it scales with FPU count and clock.
 */
inline double
globalBufferBandwidth(const DeviceTerms &dev, const PerfParams &params)
{
    return params.l2BytesPerCyclePerFpu * dev.systolicFpus * dev.clockHz;
}

/**
 * The tiling policy: square tiles sized by the per-lane local buffer
 * budget, column tiles shrunk toward one array width when the tile
 * count cannot cover all systolic arrays (skinny decode GEMMs).
 */
inline TileChoice
chooseTiles(const DeviceTerms &dev, const model::MatmulShape &mm,
            const PerfParams &params)
{
    // Per-lane local-buffer budget holds A tile (Tm x Tk), B tile
    // (Tk x Tn), and the C accumulator (Tm x Tn); double buffered. A
    // square Tm = Tn choice balances pipeline utilization and global-
    // buffer traffic. The no-tiling ablation ignores L1 capacity and
    // assumes a generous fixed kernel tile instead.
    long tile = 256;
    if (params.modelTiling) {
        const double budget_elems =
            dev.l1BytesPerLane * params.l1TileFraction / ELEM_BYTES;
        tile = static_cast<long>(std::floor(std::sqrt(
            std::max(1.0, budget_elems / 3.0))));
        tile = std::max<long>(tile, 1);
    }

    TileChoice choice;
    choice.tileM = std::min<long>(tile, mm.m);
    choice.tileN = std::min<long>(std::max<long>(tile, dev.systolicDimY),
                                  mm.n);

    // Skinny GEMMs (decode): shrink the column tile toward one array
    // width so the tile count can cover all systolic arrays, as real
    // GEMM kernels do with reduced-N / split-N scheduling. The
    // historical halving cascade
    //   while (tiles() < arrays && tileN > DIMY)
    //       tileN = max(tileN / 2, DIMY);
    // has a closed form: tiles() is monotone in tileN, so the loop
    // stops at the first right-shift that lands at or below
    // max(t_max, DIMY), where t_max is the largest tileN still giving
    // >= arrays tiles. One bit_width computes that shift count.
    const long dim_y = dev.systolicDimY;
    if (choice.tileN > dim_y) {
        const long row_tiles = static_cast<long>(mm.batchCount) *
                               ((mm.m + choice.tileM - 1) / choice.tileM);
        const long col_tiles = (mm.n + choice.tileN - 1) / choice.tileN;
        if (row_tiles * col_tiles < dev.arrays) {
            // row_tiles < arrays here, so the needed column-tile count
            // K is >= 2 and t_max = ceil(n / (K - 1)) - 1 is well
            // defined (possibly 0 when no tileN reaches K columns).
            const long need_cols = (dev.arrays + row_tiles - 1) / row_tiles;
            const long t_max = (mm.n + need_cols - 2) / (need_cols - 1) - 1;
            const long target = std::max(t_max, dim_y);
            long tile_n = choice.tileN;
            if (tile_n > target) {
                const int shift = std::bit_width(
                    static_cast<unsigned long long>(tile_n / (target + 1)));
                tile_n >>= shift;
            }
            choice.tileN = std::max(tile_n, dim_y);
        }
    }
    return choice;
}

/**
 * HBM traffic of one GEMM under global-buffer blocking: the cheaper
 * of keeping an A panel or a B panel resident, re-streaming the other
 * operand once per panel pass (weight-stationary ops only; attention
 * GEMMs, and the no-blocking ablation, stream both operands once).
 */
inline double
blockedHbmTraffic(const DeviceTerms &dev, const model::Op &op,
                  const PerfParams &params)
{
    const auto &mm = op.mm;
    if (!mm.weightStationary || !params.modelL2Blocking)
        return op.weightBytes + op.inputBytes + op.outputBytes;
    const double budget = dev.l2Bytes * params.l2BlockingFraction;
    const double k_bytes = static_cast<double>(mm.k) * ELEM_BYTES;
    const double panel_rows = std::max(1.0, std::floor(budget / k_bytes));
    const double passes_b =
        std::ceil(static_cast<double>(mm.m) / panel_rows);
    const double passes_a =
        std::ceil(static_cast<double>(mm.n) / panel_rows);
    const double strat_a_resident =
        op.inputBytes + op.weightBytes * passes_b;
    const double strat_b_resident =
        op.weightBytes + op.inputBytes * passes_a;
    return std::min(strat_a_resident, strat_b_resident) + op.outputBytes;
}

/** The closed-form GEMM roofline (op.kind == MATMUL, dims >= 1). */
inline MatmulTiming
matmulRoofline(const DeviceTerms &dev, const model::Op &op,
               const PerfParams &params)
{
    const auto &mm = op.mm;
    MatmulTiming t;
    const TileChoice tiles = chooseTiles(dev, mm, params);
    t.tileM = tiles.tileM;
    t.tileN = tiles.tileN;

    // ---- Compute time --------------------------------------------------
    // Pipeline-fill loss: each (k-slice, n-slice) wave streams tileM
    // rows through a DIMX x DIMY array and pays DIMX + DIMY cycles of
    // fill/drain.
    double pipe_util = 1.0;
    if (params.modelPipelineFill) {
        const double exposed_fill =
            (1.0 - params.pipelineFillOverlap) *
            static_cast<double>(dev.systolicDimX + dev.systolicDimY);
        pipe_util = static_cast<double>(t.tileM) / (t.tileM + exposed_fill);
    }

    // Work-distribution loss: the last wave of tiles may not fill all
    // systolic arrays.
    const double arrays = static_cast<double>(dev.arrays);
    const double tiles_total =
        static_cast<double>(mm.batchCount) *
        std::ceil(static_cast<double>(mm.m) / t.tileM) *
        std::ceil(static_cast<double>(mm.n) / t.tileN);
    const double tile_util =
        tiles_total / (std::ceil(tiles_total / arrays) * arrays);

    t.utilization = pipe_util * tile_util;
    if (!(dev.peakTensorFlops > 0.0))
        panic("peak tensor throughput must be positive");
    t.computeS = op.flops / (dev.peakTensorFlops * t.utilization);

    t.hbmTrafficBytes = blockedHbmTraffic(dev, op, params);
    t.hbmS = t.hbmTrafficBytes / (dev.memBandwidth * params.memEfficiency);

    // ---- Global-buffer traffic ------------------------------------------
    // Lanes within a core share the local buffer, so a core's lanes
    // process adjacent Tm-slices against a shared (k x Tn) B slab: A
    // re-reads once per column strip, B once per (lanes x Tm) row
    // group.
    const double k_elems = static_cast<double>(mm.k);
    const double l2_traffic =
        static_cast<double>(mm.batchCount) *
            (std::ceil(static_cast<double>(mm.n) / t.tileN) *
                 static_cast<double>(mm.m) * k_elems +
             std::ceil(static_cast<double>(mm.m) /
                       (static_cast<double>(dev.lanesPerCore) * t.tileM)) *
                 static_cast<double>(mm.n) * k_elems) *
            ELEM_BYTES +
        op.outputBytes;
    t.globalBufS = l2_traffic / (globalBufferBandwidth(dev, params) *
                                 params.l2Efficiency);

    // ---- Roofline combination -------------------------------------------
    t.totalS = std::max({t.computeS, t.hbmS, t.globalBufS}) +
               params.kernelOverheadS;
    // Attribute the bound by argmax over the component times directly
    // (ties prefer compute, then HBM) rather than reconstructing and
    // float-comparing totalS, which is brittle under FP rounding.
    if (t.computeS >= t.hbmS && t.computeS >= t.globalBufS)
        t.bound = Bound::COMPUTE;
    else if (t.hbmS >= t.globalBufS)
        t.bound = Bound::HBM;
    else
        t.bound = Bound::GLOBAL_BUFFER;
    return t;
}

/**
 * Vector-op roofline (op.kind == VECTOR): the max of vector-throughput
 * time and streaming time, streamed from the global buffer when the
 * working set fits its blocking share and from HBM otherwise.
 */
inline VectorTiming
vectorRoofline(const DeviceTerms &dev, const model::Op &op,
               const PerfParams &params)
{
    VectorTiming t;
    t.computeS = op.flops / dev.peakVectorFlops;

    const int passes =
        params.modelMultiPassVector ? std::max(1, op.memoryPasses) : 1;
    const double bytes = op.inputBytes * passes + op.outputBytes;
    t.servedByGlobalBuffer =
        bytes <= dev.l2Bytes * params.l2BlockingFraction;
    const double bw =
        t.servedByGlobalBuffer
            ? globalBufferBandwidth(dev, params) * params.l2Efficiency
            : dev.memBandwidth * params.memEfficiency;
    t.memoryS = bytes / bw;

    t.totalS = std::max(t.computeS, t.memoryS) + params.kernelOverheadS;
    // Argmax over component times (ties prefer compute), as for GEMMs.
    t.bound = t.computeS >= t.memoryS
                  ? Bound::COMPUTE
                  : (t.servedByGlobalBuffer ? Bound::GLOBAL_BUFFER
                                            : Bound::HBM);
    return t;
}

/**
 * Ring-allreduce roofline (op.kind == ALLREDUCE) across
 * @p tensor_parallel >= 1 devices: 2 (p-1)/p of the payload crosses
 * each device's links, plus 2 (p-1) hop latencies. Zero at p == 1;
 * fatal on a device without a positive interconnect bandwidth
 * otherwise.
 */
inline CommTiming
allreduceRoofline(const DeviceTerms &dev, const model::Op &op,
                  int tensor_parallel, const PerfParams &params)
{
    CommTiming t;
    if (tensor_parallel == 1)
        return t;
    if (!(dev.deviceBandwidth > 0.0))
        fatal("allreduce on a device with no interconnect");

    const double p = tensor_parallel;
    const double volume = 2.0 * (p - 1.0) / p * op.commBytes;
    // Aggregate bidirectional bandwidth -> one direction carries half.
    const double link_bw =
        dev.deviceBandwidth / 2.0 * params.interconnectEfficiency;
    t.wireS = volume / link_bw;
    t.latencyS = 2.0 * (p - 1.0) * params.allreduceStepLatencyS;
    t.totalS = t.wireS + t.latencyS;
    return t;
}

} // namespace perf
} // namespace acs

#endif // ACS_PERF_ANALYTIC_HH
