/**
 * @file
 * Cross-validation of the wave-level GEMM simulator against the
 * closed-form MatmulModel: the two implement the same tiling policy
 * and physics, so their latencies must agree within a tolerance on
 * both prefill- and decode-shaped GEMMs.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "hw/presets.hh"
#include "perf/matmul_model.hh"
#include "perf/tile_sim.hh"

namespace acs {
namespace perf {
namespace {

model::Op
weightGemm(long m, long n, long k, long batch = 1)
{
    model::Op op;
    op.name = "gemm";
    op.kind = model::OpKind::MATMUL;
    op.mm = {m, n, k, batch, true};
    op.flops = 2.0 * static_cast<double>(batch) * m * n * k;
    op.weightBytes = 2.0 * static_cast<double>(batch) * k * n;
    op.inputBytes = 2.0 * static_cast<double>(batch) * m * k;
    op.outputBytes = 2.0 * static_cast<double>(batch) * m * n;
    return op;
}

TEST(TileSim, RejectsNonMatmul)
{
    model::Op op;
    op.kind = model::OpKind::VECTOR;
    EXPECT_THROW(simulateGemm(hw::modeledA100(), op), FatalError);
}

TEST(TileSim, WaveAccountingIsExact)
{
    const auto op = weightGemm(2048, 4096, 4096);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    const long m_tiles = (2048 + trace.tileM - 1) / trace.tileM;
    const long n_tiles = (4096 + trace.tileN - 1) / trace.tileN;
    EXPECT_EQ(trace.totalTiles(), m_tiles * n_tiles);
    // Every wave except possibly the last is full.
    const long arrays = hw::modeledA100().totalSystolicArrays();
    for (std::size_t i = 0; i + 1 < trace.waves.size(); ++i)
        EXPECT_EQ(trace.waves[i].tilesInWave, arrays);
}

TEST(TileSim, ScheduleIsCausal)
{
    const auto op = weightGemm(8192, 8192, 4096);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    double prev_end = 0.0;
    for (const WaveRecord &w : trace.waves) {
        EXPECT_GE(w.startS, 0.0);
        EXPECT_GE(w.endS, w.startS);
        EXPECT_GE(w.endS, prev_end); // compute is serialized
        prev_end = w.endS;
    }
    EXPECT_GE(trace.totalS, prev_end);
}

TEST(TileSim, SharesTilingPolicyWithClosedForm)
{
    const auto op = weightGemm(32, 12288, 12288);
    const MatmulModel model(hw::modeledA100(), PerfParams{});
    const MatmulTiming analytic = model.time(op);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    EXPECT_EQ(trace.tileM, analytic.tileM);
    EXPECT_EQ(trace.tileN, analytic.tileN);
}

/**
 * The cross-validation property: simulated and closed-form latency
 * agree within 35% across GEMM shapes (the simulator sees remainder
 * tiles and schedule skew the closed form averages away).
 */
struct GemmShape
{
    const char *label;
    long m, n, k, batch;
};

// Print the label, not the struct's bytes: the default printer dumps the
// label pointer, which would put load addresses into the test names.
void
PrintTo(const GemmShape &shape, std::ostream *os)
{
    *os << shape.label;
}

class CrossValidate : public ::testing::TestWithParam<GemmShape>
{};

TEST_P(CrossValidate, SimAgreesWithClosedForm)
{
    const auto [label, m, n, k, batch] = GetParam();
    const auto op = weightGemm(m, n, k, batch);
    const MatmulModel model(hw::modeledA100(), PerfParams{});
    const double analytic = model.time(op).totalS;
    const double simulated =
        simulateGemm(hw::modeledA100(), op).totalS;
    EXPECT_GT(simulated, 0.35 * analytic) << label;
    EXPECT_LT(simulated, 1.65 * analytic) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossValidate,
    ::testing::Values(
        GemmShape{"prefill_qkv", 65536, 9216, 12288, 1},
        GemmShape{"prefill_ffn", 65536, 12288, 12288, 1},
        GemmShape{"decode_qkv", 32, 9216, 12288, 1},
        GemmShape{"decode_ffn", 32, 12288, 12288, 1},
        GemmShape{"square", 4096, 4096, 4096, 1},
        GemmShape{"tall", 65536, 512, 2048, 1},
        GemmShape{"wide", 512, 65536, 2048, 1}),
    [](const auto &info) { return std::string(info.param.label); });

TEST(TileSim, MoreMemoryBandwidthNeverHurts)
{
    hw::HardwareConfig slow = hw::modeledA100();
    slow.memBandwidth = 0.8e12;
    const auto op = weightGemm(32, 12288, 12288);
    const double t_slow = simulateGemm(slow, op).totalS;
    const double t_fast =
        simulateGemm(hw::modeledA100(), op).totalS;
    EXPECT_LE(t_fast, t_slow * (1.0 + 1e-9));
}

TEST(TileSim, RemainderTilesAppearOnEdges)
{
    // 100 x 100 with 64-ish tiles leaves remainders on both axes.
    const auto op = weightGemm(100, 100, 512);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    EXPECT_GT(trace.totalTiles(), 0);
    EXPECT_LE(trace.tileM, 100);
    EXPECT_LE(trace.tileN, 100);
}

TEST(TileSim, SingleTileProblem)
{
    const auto op = weightGemm(8, 16, 64);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    EXPECT_EQ(trace.totalTiles(), 1);
    EXPECT_EQ(trace.waves.size(), 1u);
    EXPECT_GT(trace.totalS, 0.0);
}

TEST(TileSim, RemainderEdgeWaveScheduling)
{
    // Remainders on BOTH axes at once, batched, with a short final
    // wave: 209 x 353 tiles at 64 give a 4 x 6 grid per batch item
    // (m % 64 = 17, n % 64 = 33), 480 jobs over 432 arrays — one full
    // wave plus a 48-tile partial.
    const auto op = weightGemm(209, 353, 512, 20);
    const hw::HardwareConfig cfg = hw::modeledA100();
    const GemmTrace trace = simulateGemm(cfg, op);

    ASSERT_GT(trace.tileM, 0);
    EXPECT_NE(209 % trace.tileM, 0);
    EXPECT_NE(353 % trace.tileN, 0);
    const long m_tiles = (209 + trace.tileM - 1) / trace.tileM;
    const long n_tiles = (353 + trace.tileN - 1) / trace.tileN;
    EXPECT_EQ(trace.totalTiles(), 20 * m_tiles * n_tiles);

    const long arrays = cfg.totalSystolicArrays();
    ASSERT_EQ(trace.waves.size(),
              static_cast<std::size_t>(
                  (trace.totalTiles() + arrays - 1) / arrays));
    long scheduled = 0;
    for (std::size_t w = 0; w < trace.waves.size(); ++w) {
        const WaveRecord &rec = trace.waves[w];
        if (w + 1 < trace.waves.size()) {
            EXPECT_EQ(rec.tilesInWave, arrays) << w;
        }
        scheduled += rec.tilesInWave;
    }
    EXPECT_EQ(scheduled, trace.totalTiles());
    // The final wave is partial here.
    EXPECT_LT(trace.waves.back().tilesInWave, arrays);

    // And the aggregated engine matches the per-tile walk on it.
    const GemmTrace ref = simulateGemmWalk(cfg, op);
    ASSERT_EQ(ref.waves.size(), trace.waves.size());
    EXPECT_EQ(ref.totalS, trace.totalS);
    for (std::size_t w = 0; w < trace.waves.size(); ++w) {
        EXPECT_EQ(ref.waves[w].tilesInWave,
                  trace.waves[w].tilesInWave) << w;
        EXPECT_EQ(ref.waves[w].computeS, trace.waves[w].computeS) << w;
        EXPECT_EQ(ref.waves[w].endS, trace.waves[w].endS) << w;
    }
}

TEST(TileSim, ComputeTimeNeverRisesAcrossWaves)
{
    // Jobs are issued row-major, so later waves only ever swap
    // interior tiles for edge tiles (same or shorter compute). The
    // shape puts 3 m-edge tiles alone in the last wave: its computeS
    // must strictly drop.
    const auto op = weightGemm(6545, 1313, 2048);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    ASSERT_GE(trace.waves.size(), 2u);
    for (std::size_t w = 1; w < trace.waves.size(); ++w)
        EXPECT_LE(trace.waves[w].computeS,
                  trace.waves[w - 1].computeS) << w;
    EXPECT_LT(trace.waves.back().computeS, trace.waves[0].computeS);
}

TEST(TileSim, UniformWavesShareOneSignature)
{
    // A 1x1 tile grid divides the array count, so every full wave is
    // identical — the aggregated engine reuses one signature and the
    // records must come out equal.
    const auto op = weightGemm(16, 16, 1024, 1000);
    const GemmTrace trace = simulateGemm(hw::modeledA100(), op);
    ASSERT_GE(trace.waves.size(), 2u);
    const WaveRecord &a = trace.waves[0];
    const WaveRecord &b = trace.waves[1];
    EXPECT_EQ(a.tilesInWave, b.tilesInWave);
    EXPECT_EQ(a.computeS, b.computeS);
    EXPECT_EQ(a.globalBufS, b.globalBufS);
    EXPECT_EQ(a.hbmS, b.hbmS);
}

TEST(TileSim, SummaryMatchesTraceBitwise)
{
    // The summary path must match the aggregated trace and the
    // per-tile walk reference alike.
    const auto op = weightGemm(209, 353, 512, 20);
    const GemmSummary summary = simulateGemmSummary(hw::modeledA100(), op);
    for (const GemmTrace &trace : {simulateGemm(hw::modeledA100(), op),
                                   simulateGemmWalk(hw::modeledA100(), op)}) {
        EXPECT_EQ(summary.tileM, trace.tileM);
        EXPECT_EQ(summary.tileN, trace.tileN);
        EXPECT_EQ(summary.waves,
                  static_cast<long>(trace.waves.size()));
        EXPECT_EQ(summary.totalTiles, trace.totalTiles());
        EXPECT_EQ(summary.totalS, trace.totalS);
    }
}

} // anonymous namespace
} // namespace perf
} // namespace acs
