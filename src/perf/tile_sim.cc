#include "tile_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "perf/matmul_model.hh"

namespace acs {
namespace perf {

namespace {

long
ceilDivL(long a, long b)
{
    return (a + b - 1) / b;
}

/**
 * Tile shape classes of a wave schedule, in the canonical combine
 * order. Fixing the order fixes the floating-point summation order of
 * a wave's operand bytes, which is what lets the aggregated fast path
 * and the per-tile walk produce bit-identical traces.
 */
enum TileClass : int
{
    INTERIOR = 0, //!< full (tileM x tileN) tile
    M_EDGE,       //!< last tile row: (m_rem x tileN)
    N_EDGE,       //!< last tile column: (tileM x n_rem)
    CORNER,       //!< last row and column: (m_rem x n_rem)
    NUM_CLASSES,
};

/** Per-wave operand bytes from class tallies (canonical order). */
double
waveL2Bytes(const long count[NUM_CLASSES], const double term[NUM_CLASSES])
{
    double bytes = 0.0;
    for (int c = 0; c < NUM_CLASSES; ++c) {
        if (count[c] > 0)
            bytes += static_cast<double>(count[c]) * term[c];
    }
    return bytes;
}

/** Slowest tile's systolic time from class tallies (max, order-free). */
double
waveComputeS(const long count[NUM_CLASSES], const double classS[NUM_CLASSES])
{
    double slowest = 0.0;
    for (int c = 0; c < NUM_CLASSES; ++c) {
        if (count[c] > 0)
            slowest = std::max(slowest, classS[c]);
    }
    return slowest;
}

/** Per-wave derived quantities fed into the scheduling recurrence. */
struct WaveSig
{
    long tiles = 0;
    double computeS = 0.0;
    double globalBufS = 0.0;
    double hbmS = 0.0;
};

/**
 * Geometry and per-class constants of one GEMM's wave schedule.
 *
 * A GEMM schedules `batchCount` copies of an (m_tiles x n_tiles) tile
 * grid round-robin in (batch, mi, ni) order across the device's
 * systolic arrays. Only four distinct tile shapes exist — the grid
 * interior plus the m/n remainder edges and their corner — so any
 * contiguous job range is fully described by four class counts, and
 * those counts follow in O(1) from closed-form prefix counts over the
 * flat job index.
 */
struct WaveModel
{
    // Geometry.
    long mTiles, nTiles, grid, jobs, arrays, waves;
    long mRem, nRem;

    // Per-class constants.
    double classComputeS[NUM_CLASSES];
    double l2Term[NUM_CLASSES];
    double hbmPerTileS;
    double l2Bw;

    WaveModel(const DeviceTerms &dev, const model::Op &op,
              const PerfParams &params, const TileChoice &tiles)
    {
        const auto &mm = op.mm;
        mTiles = ceilDivL(mm.m, tiles.tileM);
        nTiles = ceilDivL(mm.n, tiles.tileN);
        grid = mTiles * nTiles;
        jobs = mm.batchCount * grid;
        arrays = dev.arrays;
        waves = ceilDivL(jobs, arrays);

        // Remainder tile shapes at the problem edges.
        mRem = mm.m - (mTiles - 1) * tiles.tileM;
        nRem = mm.n - (nTiles - 1) * tiles.tileN;

        const double exposed_fill =
            params.modelPipelineFill
                ? (1.0 - params.pipelineFillOverlap) *
                      static_cast<double>(dev.systolicDimX +
                                          dev.systolicDimY)
                : 0.0;

        // Per-tile systolic time for a (tm x tn) tile over the full k.
        auto tile_compute_s = [&](long tm, long tn) {
            const double k_waves =
                static_cast<double>(ceilDivL(mm.k, dev.systolicDimX)) *
                ceilDivL(tn, dev.systolicDimY);
            const double cycles = k_waves * (tm + exposed_fill);
            return cycles / dev.clockHz;
        };
        // A slab per tile; B slab shared across the core's lanes.
        const long lanes = dev.lanesPerCore;
        auto l2_term = [&](long tm, long tn) {
            return (static_cast<double>(tm) * mm.k +
                    static_cast<double>(mm.k) * tn / lanes) *
                   ELEM_BYTES;
        };
        const long shape[NUM_CLASSES][2] = {
            {tiles.tileM, tiles.tileN}, // INTERIOR
            {mRem, tiles.tileN},        // M_EDGE
            {tiles.tileM, nRem},        // N_EDGE
            {mRem, nRem},               // CORNER
        };
        for (int c = 0; c < NUM_CLASSES; ++c) {
            classComputeS[c] = tile_compute_s(shape[c][0], shape[c][1]);
            l2Term[c] = l2_term(shape[c][0], shape[c][1]);
        }

        // Amortized HBM service per tile (streaming is smooth across
        // the whole GEMM; blocking decides total traffic).
        const double hbm_total = blockedHbmTraffic(dev, op, params);
        const double hbm_bw = dev.memBandwidth * params.memEfficiency;
        hbmPerTileS = hbm_total / static_cast<double>(jobs) / hbm_bw;

        l2Bw = globalBufferBandwidth(dev, params) * params.l2Efficiency;
    }

    /**
     * Class counts over the job prefix [0, x).
     *
     * Within one grid a flat index f = mi * nTiles + ni is in the last
     * tile column iff f % nTiles == nTiles - 1 (one per started row),
     * in the last row iff f >= (mTiles - 1) * nTiles, and is the
     * corner iff f == grid - 1 (so exactly one per *completed* grid).
     * Edge classes subtract the shared corner; the interior is what
     * remains.
     */
    void jobPrefix(long x, long out[NUM_CLASSES]) const
    {
        const long cycles = x / grid;
        const long rem = x % grid;
        const long last_col = cycles * mTiles + rem / nTiles;
        const long last_row =
            cycles * nTiles + std::max<long>(0, rem - (mTiles - 1) * nTiles);
        const long corner = cycles;
        out[CORNER] = corner;
        out[N_EDGE] = last_col - corner;
        out[M_EDGE] = last_row - corner;
        out[INTERIOR] = x - last_col - last_row + corner;
    }

    /** The O(1) signature of wave w. */
    WaveSig wave(long w) const
    {
        const long a = w * arrays;
        const long b = std::min(a + arrays, jobs);
        long pa[NUM_CLASSES], pb[NUM_CLASSES], count[NUM_CLASSES];
        jobPrefix(a, pa);
        jobPrefix(b, pb);
        for (int c = 0; c < NUM_CLASSES; ++c)
            count[c] = pb[c] - pa[c];

        WaveSig sig;
        sig.tiles = b - a;
        sig.computeS = waveComputeS(count, classComputeS);
        sig.globalBufS = waveL2Bytes(count, l2Term) / l2Bw;
        sig.hbmS = hbmPerTileS * sig.tiles;
        return sig;
    }
};

/**
 * Step the double-buffering recurrence over all waves.
 *
 * The recurrence itself stays sequential — ~5 flops per wave, and
 * floating-point addition has no exact closed form under repetition —
 * but each wave's signature costs O(1), and when every wave starts at
 * the same offset inside the tile grid (arrays % grid == 0: decode
 * GEMMs with grid <= arrays, batch-replicated grids) the signature is
 * computed once and reused for every full wave.
 *
 * @param trace Destination for WaveRecords, or nullptr to skip
 *              materialization entirely (the summary path).
 */
GemmSummary
runAggregated(const WaveModel &wm, const PerfParams &params, GemmTrace *trace)
{
    const bool uniform = wm.arrays % wm.grid == 0;
    double l2_free = 0.0, hbm_free = 0.0, compute_free = 0.0;
    WaveSig sig;
    bool have_sig = false;
    if (trace)
        trace->waves.reserve(static_cast<std::size_t>(wm.waves));
    for (long w = 0; w < wm.waves; ++w) {
        const bool full = (w + 1) * wm.arrays <= wm.jobs;
        if (!have_sig || !uniform || !full) {
            sig = wm.wave(w);
            have_sig = uniform && full;
        }

        // Double buffering: this wave's operands were fetched while
        // the previous wave computed; the fetch channels are shared
        // pipes, so waves queue on them.
        const double l2_done = l2_free + sig.globalBufS;
        const double hbm_done = hbm_free + sig.hbmS;
        l2_free = l2_done;
        hbm_free = hbm_done;
        const double start = std::max({compute_free, l2_done, hbm_done});
        const double end = start + sig.computeS;
        compute_free = end;

        if (trace) {
            WaveRecord rec;
            rec.waveIndex = w;
            rec.tilesInWave = sig.tiles;
            rec.computeS = sig.computeS;
            rec.globalBufS = sig.globalBufS;
            rec.hbmS = sig.hbmS;
            rec.startS = start;
            rec.endS = end;
            trace->waves.push_back(rec);
        }
    }

    GemmSummary summary;
    summary.waves = wm.waves;
    summary.totalTiles = wm.jobs;
    summary.totalS =
        (wm.waves == 0 ? 0.0 : compute_free) + params.kernelOverheadS;
    return summary;
}

/**
 * The original per-tile wave walk, retained as the O(total tiles)
 * reference implementation (simulateGemmWalk). Jobs are assigned
 * round-robin in (batch, mi, ni) order; a wave's compute time is its
 * slowest tile and its fetch traffic is the operand slabs it touches.
 * The walk classifies every tile individually but combines each wave's
 * operand bytes from the resulting class tallies via the same
 * canonical-order helper as the fast path, so the two paths are
 * bit-comparable.
 */
GemmSummary
runWalk(const WaveModel &wm, const PerfParams &params, GemmTrace *trace)
{
    double l2_free = 0.0, hbm_free = 0.0, compute_free = 0.0;
    long job = 0;
    double last_end = 0.0;
    if (trace)
        trace->waves.reserve(static_cast<std::size_t>(wm.waves));
    for (long w = 0; w < wm.waves; ++w) {
        const long tiles_in_wave = std::min<long>(wm.arrays, wm.jobs - job);

        double slowest = 0.0;
        long count[NUM_CLASSES] = {0, 0, 0, 0};
        for (long i = 0; i < tiles_in_wave; ++i, ++job) {
            const long flat = job % wm.grid;
            const long mi = flat / wm.nTiles;
            const long ni = flat % wm.nTiles;
            const bool m_edge = mi + 1 == wm.mTiles;
            const bool n_edge = ni + 1 == wm.nTiles;
            const int cls = m_edge ? (n_edge ? CORNER : M_EDGE)
                                   : (n_edge ? N_EDGE : INTERIOR);
            slowest = std::max(slowest, wm.classComputeS[cls]);
            ++count[cls];
        }

        const double global_buf_s = waveL2Bytes(count, wm.l2Term) / wm.l2Bw;
        const double hbm_s = wm.hbmPerTileS * tiles_in_wave;
        const double l2_done = l2_free + global_buf_s;
        const double hbm_done = hbm_free + hbm_s;
        l2_free = l2_done;
        hbm_free = hbm_done;
        const double start = std::max({compute_free, l2_done, hbm_done});
        const double end = start + slowest;
        compute_free = end;
        last_end = end;

        if (trace) {
            WaveRecord rec;
            rec.waveIndex = w;
            rec.tilesInWave = tiles_in_wave;
            rec.computeS = slowest;
            rec.globalBufS = global_buf_s;
            rec.hbmS = hbm_s;
            rec.startS = start;
            rec.endS = end;
            trace->waves.push_back(rec);
        }
    }

    GemmSummary summary;
    summary.waves = wm.waves;
    summary.totalTiles = wm.jobs;
    summary.totalS =
        (wm.waves == 0 ? 0.0 : last_end) + params.kernelOverheadS;
    return summary;
}

/** A wave-schedule engine: the aggregated fast path or the walk. */
using Engine = GemmSummary (*)(const WaveModel &, const PerfParams &,
                               GemmTrace *);

/** Shared validation + model construction for every entry point. */
GemmSummary
simulate(const hw::HardwareConfig &cfg, const model::Op &op,
         const PerfParams &params, Engine engine, GemmTrace *trace)
{
    cfg.validate();
    fatalIf(op.kind != model::OpKind::MATMUL,
            "simulateGemm requires a MATMUL op: " + op.name);
    const auto &mm = op.mm;
    fatalIf(mm.m < 1 || mm.n < 1 || mm.k < 1 || mm.batchCount < 1,
            "simulateGemm: degenerate GEMM dims in " + op.name);

    const obs::TraceSpan span("perf.tile_sim");
    const DeviceTerms dev(cfg);
    const TileChoice tiles = chooseTiles(dev, mm, params);
    const WaveModel wm(dev, op, params, tiles);

    GemmSummary summary = engine(wm, params, trace);
    summary.tileM = tiles.tileM;
    summary.tileN = tiles.tileN;

    if (obs::enabled()) {
        obs::counterAdd("perf.tile_sim.gemms");
        obs::counterAdd("perf.tile_sim.waves",
                        static_cast<std::uint64_t>(summary.waves));
    }
    return summary;
}

GemmTrace
simulateTraced(const hw::HardwareConfig &cfg, const model::Op &op,
               const PerfParams &params, Engine engine)
{
    GemmTrace trace;
    const GemmSummary summary = simulate(cfg, op, params, engine, &trace);
    trace.tileM = summary.tileM;
    trace.tileN = summary.tileN;
    trace.totalS = summary.totalS;
    trace.scheduledTiles = summary.totalTiles;
    return trace;
}

} // anonymous namespace

GemmTrace
simulateGemm(const hw::HardwareConfig &cfg, const model::Op &op,
             const PerfParams &params)
{
    return simulateTraced(cfg, op, params, runAggregated);
}

GemmSummary
simulateGemmSummary(const hw::HardwareConfig &cfg, const model::Op &op,
                    const PerfParams &params)
{
    return simulate(cfg, op, params, runAggregated, nullptr);
}

GemmTrace
simulateGemmWalk(const hw::HardwareConfig &cfg, const model::Op &op,
                 const PerfParams &params)
{
    return simulateTraced(cfg, op, params, runWalk);
}

} // namespace perf
} // namespace acs
