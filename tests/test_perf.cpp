/**
 * @file
 * Unit tests for acs_perf: the GEMM/vector/collective latency models
 * and the per-layer inference simulator, including the calibration
 * ranges that anchor the paper's baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>

#include "common/logging.hh"
#include "common/units.hh"
#include "hw/presets.hh"
#include "perf/gemm_cache.hh"
#include "perf/simulator.hh"
#include "perf/tile_sim.hh"

namespace acs {
namespace perf {
namespace {

model::Op
weightGemm(long m, long n, long k)
{
    model::Op op;
    op.name = "gemm";
    op.kind = model::OpKind::MATMUL;
    op.mm = {m, n, k, 1, true};
    op.flops = 2.0 * m * n * k;
    op.weightBytes = 2.0 * k * n;
    op.inputBytes = 2.0 * m * k;
    op.outputBytes = 2.0 * m * n;
    return op;
}

model::Op
vectorOp(double elements)
{
    model::Op op;
    op.name = "vec";
    op.kind = model::OpKind::VECTOR;
    op.flops = 5.0 * elements;
    op.inputBytes = 2.0 * elements;
    op.outputBytes = 2.0 * elements;
    return op;
}

model::Op
allreduceOp(double bytes)
{
    model::Op op;
    op.name = "ar";
    op.kind = model::OpKind::ALLREDUCE;
    op.commBytes = bytes;
    return op;
}

// ---- MatmulModel -----------------------------------------------------------

TEST(MatmulModel, RejectsWrongKind)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    EXPECT_THROW(m.time(vectorOp(100.0)), FatalError);
}

TEST(MatmulModel, RejectsDegenerateDims)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    model::Op op = weightGemm(0, 10, 10);
    EXPECT_THROW(m.time(op), FatalError);
}

TEST(MatmulModel, UtilizationIsAFraction)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    for (long mm : {1L, 32L, 2048L, 65536L}) {
        const MatmulTiming t = m.time(weightGemm(mm, 12288, 12288));
        EXPECT_GT(t.utilization, 0.0);
        EXPECT_LE(t.utilization, 1.0);
    }
}

TEST(MatmulModel, LargePrefillGemmIsComputeBoundAtHighUtil)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    const MatmulTiming t = m.time(weightGemm(65536, 12288, 12288));
    EXPECT_EQ(t.bound, Bound::COMPUTE);
    EXPECT_GT(t.utilization, 0.85); // "near peak FLOPs during prefill"
}

TEST(MatmulModel, SkinnyDecodeGemmIsHbmBound)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    const MatmulTiming t = m.time(weightGemm(32, 12288, 12288));
    EXPECT_EQ(t.bound, Bound::HBM);
}

TEST(MatmulModel, TileNeverExceedsProblem)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    const MatmulTiming t = m.time(weightGemm(8, 40, 512));
    EXPECT_LE(t.tileM, 8);
    EXPECT_LE(t.tileN, 40);
}

TEST(MatmulModel, MoreCoresReduceComputeTime)
{
    hw::HardwareConfig small = hw::modeledA100();
    small.coreCount = 54;
    const MatmulModel m_small(small, PerfParams{});
    const MatmulModel m_big(hw::modeledA100(), PerfParams{});
    const auto op = weightGemm(65536, 12288, 12288);
    EXPECT_GT(m_small.time(op).computeS, m_big.time(op).computeS);
}

TEST(MatmulModel, HigherMemBandwidthReducesHbmTime)
{
    hw::HardwareConfig fast = hw::modeledA100();
    fast.memBandwidth = 3.2 * units::TBPS;
    const MatmulModel m_slow(hw::modeledA100(), PerfParams{});
    const MatmulModel m_fast(fast, PerfParams{});
    const auto op = weightGemm(32, 12288, 12288);
    EXPECT_GT(m_slow.time(op).hbmS, m_fast.time(op).hbmS);
}

TEST(MatmulModel, SmallL1InflatesGlobalBufferTraffic)
{
    hw::HardwareConfig tiny = hw::modeledA100();
    tiny.l1BytesPerCore = 32.0 * units::KIB;
    tiny.lanesPerCore = 8;
    tiny.coreCount = hw::coresForTpp(4800.0, 16, 16, 8, tiny.clockHz);
    const MatmulModel m_tiny(tiny, PerfParams{});
    const MatmulModel m_a100(hw::modeledA100(), PerfParams{});
    const auto op = weightGemm(65536, 12288, 12288);
    EXPECT_GT(m_tiny.time(op).globalBufS, m_a100.time(op).globalBufS);
}

TEST(MatmulModel, L2BlockingModelsCapacityLimitedRestreaming)
{
    // The no-blocking ablation is an idealization (every operand
    // streams exactly once); the capacity-aware model must charge at
    // least that much, and a bigger global buffer must reduce the
    // re-streaming.
    PerfParams params;
    const auto op = weightGemm(65536, 12288, 12288);

    PerfParams ideal = params;
    ideal.modelL2Blocking = false;
    const double ideal_traffic =
        MatmulModel(hw::modeledA100(), ideal).time(op).hbmTrafficBytes;
    const double real_traffic =
        MatmulModel(hw::modeledA100(), params).time(op).hbmTrafficBytes;
    EXPECT_GE(real_traffic, ideal_traffic);

    hw::HardwareConfig big_l2 = hw::modeledA100();
    big_l2.l2Bytes = 80.0 * units::MIB;
    EXPECT_LT(MatmulModel(big_l2, params).time(op).hbmTrafficBytes,
              real_traffic);
}

TEST(MatmulModel, TotalIsBindingResourcePlusOverhead)
{
    const PerfParams params;
    const MatmulModel m(hw::modeledA100(), params);
    const MatmulTiming t = m.time(weightGemm(4096, 4096, 4096));
    const double expected =
        std::max({t.computeS, t.hbmS, t.globalBufS}) +
        params.kernelOverheadS;
    EXPECT_DOUBLE_EQ(t.totalS, expected);
}

TEST(MatmulModel, GlobalBufferBandwidthScalesWithTpp)
{
    // Equal-TPP designs have equal global-buffer bandwidth by
    // construction (bandwidth is sized to the compute).
    const PerfParams params;
    hw::HardwareConfig a = hw::modeledA100();
    hw::HardwareConfig b = hw::modeledA100();
    b.lanesPerCore = 1;
    b.coreCount = a.coreCount * 4;
    EXPECT_NEAR(MatmulModel(a, params).globalBufferBandwidth(),
                MatmulModel(b, params).globalBufferBandwidth(), 1.0);
}

TEST(Bound, Names)
{
    EXPECT_EQ(toString(Bound::COMPUTE), "compute");
    EXPECT_EQ(toString(Bound::HBM), "hbm");
    EXPECT_EQ(toString(Bound::GLOBAL_BUFFER), "global-buffer");
    EXPECT_EQ(toString(Bound::INTERCONNECT), "interconnect");
}

// ---- VectorModel -----------------------------------------------------------

TEST(VectorModel, RejectsWrongKind)
{
    const VectorModel v(hw::modeledA100(), PerfParams{});
    EXPECT_THROW(v.time(weightGemm(8, 8, 8)), FatalError);
}

TEST(VectorModel, SmallTensorServedByGlobalBuffer)
{
    const VectorModel v(hw::modeledA100(), PerfParams{});
    const VectorTiming t = v.time(vectorOp(32.0 * 12288));
    EXPECT_TRUE(t.servedByGlobalBuffer);
}

TEST(VectorModel, HugeTensorStreamsFromHbm)
{
    const VectorModel v(hw::modeledA100(), PerfParams{});
    const VectorTiming t = v.time(vectorOp(65536.0 * 12288));
    EXPECT_FALSE(t.servedByGlobalBuffer);
    EXPECT_EQ(t.bound, Bound::HBM);
}

TEST(VectorModel, MemoryTimeUsesWorkingSetOverBandwidth)
{
    const PerfParams params;
    const hw::HardwareConfig cfg = hw::modeledA100();
    const VectorModel v(cfg, params);
    const double elements = 65536.0 * 12288;
    const VectorTiming t = v.time(vectorOp(elements));
    EXPECT_NEAR(t.memoryS,
                4.0 * elements /
                    (cfg.memBandwidth * params.memEfficiency),
                1e-9);
}

// ---- CommModel -------------------------------------------------------------

TEST(CommModel, SingleDeviceIsFree)
{
    const CommModel c(hw::modeledA100(), PerfParams{});
    EXPECT_DOUBLE_EQ(c.time(allreduceOp(1e9), 1).totalS, 0.0);
}

TEST(CommModel, RingVolumeFormula)
{
    const PerfParams params;
    const hw::HardwareConfig cfg = hw::modeledA100();
    const CommModel c(cfg, params);
    const double payload = 1e9;
    const CommTiming t = c.time(allreduceOp(payload), 4);
    const double link = cfg.deviceBandwidth() / 2.0 *
                        params.interconnectEfficiency;
    EXPECT_NEAR(t.wireS, 2.0 * 0.75 * payload / link, 1e-12);
    EXPECT_NEAR(t.latencyS, 6.0 * params.allreduceStepLatencyS, 1e-15);
}

TEST(CommModel, NoInterconnectWithTpIsFatal)
{
    hw::HardwareConfig cfg = hw::modeledA100();
    cfg.devicePhyCount = 0;
    const CommModel c(cfg, PerfParams{});
    EXPECT_THROW(c.time(allreduceOp(1e6), 4), FatalError);
    EXPECT_NO_THROW(c.time(allreduceOp(1e6), 1));
}

TEST(CommModel, MoreBandwidthIsFaster)
{
    hw::HardwareConfig fast = hw::modeledA100();
    fast.devicePhyCount = 20; // 1 TB/s
    const CommModel slow(hw::modeledA100(), PerfParams{});
    const CommModel quick(fast, PerfParams{});
    EXPECT_GT(slow.time(allreduceOp(1e9), 4).totalS,
              quick.time(allreduceOp(1e9), 4).totalS);
}

TEST(CommModel, RejectsWrongKind)
{
    const CommModel c(hw::modeledA100(), PerfParams{});
    EXPECT_THROW(c.time(vectorOp(10.0), 4), FatalError);
}

// ---- InferenceSimulator ------------------------------------------------------

class SimulatorFixture : public ::testing::Test
{
  protected:
    InferenceSimulator sim_{hw::modeledA100()};
    model::InferenceSetting setting_;
};

TEST_F(SimulatorFixture, LayerLatencyIsSumOfOps)
{
    const auto graph =
        model::buildDecodeGraph(model::gpt3_175b(), setting_, 4);
    const LayerResult r = sim_.simulateLayer(graph, 4);
    double sum = 0.0;
    for (const OpTiming &op : r.ops)
        sum += op.latencyS;
    EXPECT_NEAR(r.latencyS, sum, 1e-12);
    EXPECT_EQ(r.ops.size(), graph.ops.size());
}

TEST_F(SimulatorFixture, Gpt3BaselineCalibration)
{
    // Paper baselines (modeled A100, one layer): TTFT ~275 ms,
    // TBT ~1.43 ms. Our analytical substitute must stay in range.
    SystemConfig sys{4};
    const InferenceResult r =
        sim_.run(model::gpt3_175b(), setting_, sys);
    EXPECT_GT(units::toMs(r.ttftS), 200.0);
    EXPECT_LT(units::toMs(r.ttftS), 330.0);
    EXPECT_GT(units::toMs(r.tbtS), 1.1);
    EXPECT_LT(units::toMs(r.tbtS), 1.7);
}

TEST_F(SimulatorFixture, LlamaBaselineCalibration)
{
    // Paper: Llama 3 TTFT ~46 ms, TBT ~0.56 ms per layer.
    SystemConfig sys{4};
    const InferenceResult r =
        sim_.run(model::llama3_8b(), setting_, sys);
    EXPECT_GT(units::toMs(r.ttftS), 30.0);
    EXPECT_LT(units::toMs(r.ttftS), 65.0);
    EXPECT_GT(units::toMs(r.tbtS), 0.30);
    EXPECT_LT(units::toMs(r.tbtS), 0.60);
}

TEST_F(SimulatorFixture, FullModelScalesByLayerCount)
{
    SystemConfig sys{4};
    const InferenceResult r =
        sim_.run(model::gpt3_175b(), setting_, sys);
    EXPECT_DOUBLE_EQ(r.ttftFullModelS, r.ttftS * 96);
    EXPECT_DOUBLE_EQ(r.tbtFullModelS, r.tbtS * 96);
}

TEST_F(SimulatorFixture, DecodeIsFasterThanPrefillPerLayer)
{
    SystemConfig sys{4};
    const InferenceResult r =
        sim_.run(model::gpt3_175b(), setting_, sys);
    EXPECT_LT(r.tbtS, r.ttftS / 10.0);
}

TEST_F(SimulatorFixture, Gpt3DoesNotFitOneDevice)
{
    const InferenceResult one =
        sim_.run(model::gpt3_175b(), setting_, SystemConfig{1});
    EXPECT_FALSE(one.fitsMemory);
    EXPECT_NEAR(one.weightBytesPerDevice, 348e9, 5e9);
}

TEST_F(SimulatorFixture, LlamaFitsOneDevice)
{
    const InferenceResult one =
        sim_.run(model::llama3_8b(), setting_, SystemConfig{1});
    EXPECT_TRUE(one.fitsMemory);
}

TEST_F(SimulatorFixture, PrefillMfuIsHighDecodeMfuIsLow)
{
    // Sec. 3.1: near-peak FLOPs in prefill, low utilization in decode.
    SystemConfig sys{4};
    const InferenceResult r =
        sim_.run(model::gpt3_175b(), setting_, sys);
    const double peak =
        sim_.device().peakTensorTops() * 1e12;
    EXPECT_GT(r.prefill.mfu(peak), 0.5);
    EXPECT_LT(r.decode.mfu(peak), 0.1);
}

TEST_F(SimulatorFixture, InvalidSystemIsFatal)
{
    EXPECT_THROW(sim_.run(model::gpt3_175b(), setting_,
                          SystemConfig{0}),
                 FatalError);
}

/**
 * Property: decode latency is non-increasing in memory bandwidth
 * (the paper's core decode claim).
 */
class MemBwMonotone : public ::testing::TestWithParam<double>
{};

TEST_P(MemBwMonotone, TbtNonIncreasingInMemBandwidth)
{
    const double bw = GetParam();
    hw::HardwareConfig slow = hw::modeledA100();
    slow.memBandwidth = bw;
    hw::HardwareConfig fast = slow;
    fast.memBandwidth = bw * 1.25;
    const model::InferenceSetting setting;
    const SystemConfig sys{4};
    const double tbt_slow =
        InferenceSimulator(slow).run(model::gpt3_175b(), setting, sys)
            .tbtS;
    const double tbt_fast =
        InferenceSimulator(fast).run(model::gpt3_175b(), setting, sys)
            .tbtS;
    EXPECT_LE(tbt_fast, tbt_slow * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, MemBwMonotone,
                         ::testing::Values(0.8e12, 1.2e12, 1.6e12,
                                           2.0e12, 2.4e12, 2.8e12));

/** Property: prefill latency is non-increasing in core count (TPP). */
class TppMonotone : public ::testing::TestWithParam<int>
{};

TEST_P(TppMonotone, TtftNonIncreasingInCores)
{
    hw::HardwareConfig few = hw::modeledA100();
    few.coreCount = GetParam();
    hw::HardwareConfig many = few;
    many.coreCount = GetParam() + 24;
    const model::InferenceSetting setting;
    const SystemConfig sys{4};
    const double t_few =
        InferenceSimulator(few).run(model::gpt3_175b(), setting, sys)
            .ttftS;
    const double t_many =
        InferenceSimulator(many).run(model::gpt3_175b(), setting, sys)
            .ttftS;
    EXPECT_LE(t_many, t_few * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Cores, TppMonotone,
                         ::testing::Values(54, 72, 86, 103, 108, 128));

TEST(PerfParams, AblationSwitchesChangeResults)
{
    const model::InferenceSetting setting;
    const SystemConfig sys{4};
    const double base =
        InferenceSimulator(hw::modeledA100())
            .run(model::gpt3_175b(), setting, sys).ttftS;

    PerfParams no_fill;
    no_fill.modelPipelineFill = false;
    const double without =
        InferenceSimulator(hw::modeledA100(), no_fill)
            .run(model::gpt3_175b(), setting, sys).ttftS;
    EXPECT_LT(without, base); // removing a loss term speeds things up
}

TEST(PerfParams, KernelOverheadDominatesTinyOps)
{
    PerfParams params;
    params.kernelOverheadS = 1e-3;
    const InferenceSimulator sim(hw::modeledA100(), params);
    const auto graph = model::buildDecodeGraph(model::gpt3_175b(),
                                               model::InferenceSetting{},
                                               4);
    const LayerResult r = sim.simulateLayer(graph, 4);
    // 12 matmul/vector kernels x 1 ms dominate everything else
    // (collectives pay hop latency instead of launch overhead).
    EXPECT_GT(r.latencyS, 12e-3);
}


TEST(PerfParams, TileSimModeStaysCloseToAnalytic)
{
    PerfParams detailed;
    detailed.gemmMode = GemmMode::TILE_SIM;
    const model::InferenceSetting setting;
    const SystemConfig sys{4};
    const auto analytic =
        InferenceSimulator(hw::modeledA100())
            .run(model::gpt3_175b(), setting, sys);
    const auto simulated =
        InferenceSimulator(hw::modeledA100(), detailed)
            .run(model::gpt3_175b(), setting, sys);
    EXPECT_NEAR(simulated.ttftS, analytic.ttftS, 0.15 * analytic.ttftS);
    EXPECT_NEAR(simulated.tbtS, analytic.tbtS, 0.25 * analytic.tbtS);
}

TEST(PerfParams, MultiPassVectorSlowsUnfusedKernels)
{
    PerfParams multipass;
    multipass.modelMultiPassVector = true;
    const model::InferenceSetting setting;
    const SystemConfig sys{4};
    const auto fused = InferenceSimulator(hw::modeledA100())
                           .run(model::gpt3_175b(), setting, sys);
    const auto unfused =
        InferenceSimulator(hw::modeledA100(), multipass)
            .run(model::gpt3_175b(), setting, sys);
    // Prefill softmax makes three passes over a multi-GB tensor.
    EXPECT_GT(unfused.ttftS, fused.ttftS);
}

TEST(LayerResult, MfuValidation)
{
    LayerResult r;
    r.flops = 100.0;
    r.latencyS = 1.0;
    EXPECT_DOUBLE_EQ(r.mfu(1000.0), 0.1);
    EXPECT_THROW(r.mfu(0.0), PanicError);
}

// ---- op-shape memoization ---------------------------------------------------

/**
 * The oracle for the per-run op-shape memo: one layer timed op by op
 * with freshly constructed scalar models and no memo, summed in graph
 * order. @p gemm_s, when set, replaces the MATMUL latency (e.g. with
 * the per-tile walk reference).
 */
LayerResult
unmemoizedLayer(const hw::HardwareConfig &cfg, const PerfParams &params,
                const model::LayerGraph &graph, int tensor_parallel,
                const std::function<double(const model::Op &)> &gemm_s =
                    nullptr)
{
    const MatmulModel matmul(cfg, params);
    const VectorModel vector(cfg, params);
    const CommModel comm(cfg, params);
    LayerResult r;
    for (const model::Op &op : graph.ops) {
        OpTiming t;
        switch (op.kind) {
          case model::OpKind::MATMUL: {
            const MatmulTiming m = matmul.time(op);
            t.latencyS = gemm_s ? gemm_s(op) : m.totalS;
            t.bound = m.bound;
            break;
          }
          case model::OpKind::VECTOR: {
            const VectorTiming v = vector.time(op);
            t.latencyS = v.totalS;
            t.bound = v.bound;
            break;
          }
          case model::OpKind::ALLREDUCE:
            t.latencyS = comm.time(op, tensor_parallel).totalS;
            t.bound = Bound::INTERCONNECT;
            break;
        }
        r.latencyS += t.latencyS;
        r.ops.push_back(t);
    }
    return r;
}

/** Memoized simulator layer vs the unmemoized oracle, bit for bit. */
void
expectLayerMatchesOracle(const LayerResult &memoized,
                         const LayerResult &oracle,
                         const std::string &label)
{
    EXPECT_EQ(memoized.latencyS, oracle.latencyS) << label;
    ASSERT_EQ(memoized.ops.size(), oracle.ops.size()) << label;
    for (std::size_t i = 0; i < oracle.ops.size(); ++i) {
        EXPECT_EQ(memoized.ops[i].latencyS, oracle.ops[i].latencyS)
            << label << " op " << i;
        EXPECT_EQ(memoized.ops[i].bound, oracle.ops[i].bound)
            << label << " op " << i;
    }
}

/** One run() against the per-op oracle on both phases. */
void
expectRunMatchesOracle(const PerfParams &params,
                       const model::TransformerConfig &m, int tp,
                       const std::function<double(const model::Op &)>
                           &gemm_s = nullptr)
{
    const hw::HardwareConfig cfg = hw::modeledA100();
    const model::InferenceSetting setting;
    const InferenceResult r =
        InferenceSimulator(cfg, params).run(m, setting, SystemConfig{tp});
    const LayerResult prefill = unmemoizedLayer(
        cfg, params, model::buildPrefillGraph(m, setting, tp), tp, gemm_s);
    const LayerResult decode = unmemoizedLayer(
        cfg, params, model::buildDecodeGraph(m, setting, tp), tp, gemm_s);
    expectLayerMatchesOracle(r.prefill, prefill, m.name + " prefill");
    expectLayerMatchesOracle(r.decode, decode, m.name + " decode");
    EXPECT_EQ(r.ttftS, prefill.latencyS) << m.name;
    EXPECT_EQ(r.tbtS, decode.latencyS) << m.name;
    EXPECT_EQ(r.ttftFullModelS, prefill.latencyS * m.numLayers) << m.name;
    EXPECT_EQ(r.tbtFullModelS, decode.latencyS * m.numLayers) << m.name;
}

TEST(OpShapeMemo, MemoOnOffBitIdentical)
{
    // Memoized timings must be byte-for-byte what re-timing would
    // produce: identical shapes reuse the stored result, so the run's
    // doubles cannot drift from a per-op sum of the scalar models.
    for (const model::TransformerConfig &m :
         {model::gpt3_175b(), model::llama3_8b()})
        expectRunMatchesOracle(PerfParams{}, m, 4);
}

// ---- TILE_SIM GEMM mode -----------------------------------------------------

TEST(GemmMode, TileSimTimingComesFromWaveSimulator)
{
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    const MatmulModel m(hw::modeledA100(), params);
    for (const model::Op &op :
         {weightGemm(32, 12288, 12288), weightGemm(2048, 4096, 4096),
          weightGemm(209, 353, 512)}) {
        const MatmulTiming t = m.time(op);
        const GemmSummary s =
            simulateGemmSummary(hw::modeledA100(), op, params);
        EXPECT_EQ(t.totalS, s.totalS) << op.name;
        EXPECT_EQ(t.tileM, s.tileM) << op.name;
        EXPECT_EQ(t.tileN, s.tileN) << op.name;
    }
}

TEST(GemmMode, TileSimMemoOnOffBitIdentical)
{
    // Memoization must stay bit-exact when the memoized timings come
    // from the wave simulator instead of the closed form — TILE_SIM
    // sweeps lean on the memo to amortize the per-shape schedule.
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    expectRunMatchesOracle(params, model::llama3_8b(), 1);
}

TEST(GemmMode, TileSimEnginesAgreeThroughSimulator)
{
    // End to end through the layer simulator, the aggregated engine
    // must reproduce a layer timed GEMM by GEMM with the per-tile
    // walk reference.
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    const hw::HardwareConfig cfg = hw::modeledA100();
    expectRunMatchesOracle(params, model::llama3_8b(), 1,
                           [&](const model::Op &op) {
                               return simulateGemmWalk(cfg, op, params)
                                   .totalS;
                           });
}

TEST(GemmMode, FlagParsingRoundTrips)
{
    GemmMode mode = GemmMode::ANALYTIC;
    EXPECT_TRUE(parseGemmMode("tile_sim", &mode));
    EXPECT_EQ(mode, GemmMode::TILE_SIM);
    EXPECT_TRUE(parseGemmMode("analytic", &mode));
    EXPECT_EQ(mode, GemmMode::ANALYTIC);
    EXPECT_TRUE(parseGemmMode("cycle_sim", &mode));
    EXPECT_EQ(mode, GemmMode::CYCLE_SIM);
    EXPECT_STREQ(toString(GemmMode::ANALYTIC), "analytic");
    EXPECT_STREQ(toString(GemmMode::TILE_SIM), "tile_sim");
    EXPECT_STREQ(toString(GemmMode::CYCLE_SIM), "cycle_sim");
    // Unknown names leave the mode untouched.
    mode = GemmMode::TILE_SIM;
    EXPECT_FALSE(parseGemmMode("roofline", &mode));
    EXPECT_EQ(mode, GemmMode::TILE_SIM);
}

TEST(OpShapeMemo, PrebuiltGraphRunMatchesConvenienceOverload)
{
    const InferenceSimulator sim(hw::modeledA100());
    const model::TransformerConfig m = model::gpt3_175b();
    const model::InferenceSetting setting;
    const SystemConfig sys{4};
    const auto prefill =
        model::buildPrefillGraph(m, setting, sys.tensorParallel);
    const auto decode =
        model::buildDecodeGraph(m, setting, sys.tensorParallel);
    const InferenceResult a = sim.run(m, setting, sys);
    const InferenceResult b = sim.run(m, setting, sys, prefill, decode);
    EXPECT_EQ(a.ttftS, b.ttftS);
    EXPECT_EQ(a.tbtS, b.tbtS);
    EXPECT_EQ(a.weightBytesPerDevice, b.weightBytesPerDevice);
    EXPECT_EQ(a.kvCacheBytesPerDevice, b.kvCacheBytesPerDevice);
}

TEST(MatmulModel, BoundIsArgmaxOfResourceTimes)
{
    const MatmulModel m(hw::modeledA100(), PerfParams{});
    for (const model::Op &op :
         {weightGemm(1, 12288, 12288), weightGemm(2048, 12288, 12288),
          weightGemm(512, 128, 49152)}) {
        const MatmulTiming t = m.time(op);
        const double max_t =
            std::max({t.computeS, t.hbmS, t.globalBufS});
        switch (t.bound) {
          case Bound::COMPUTE:
            EXPECT_EQ(t.computeS, max_t) << op.name;
            break;
          case Bound::HBM:
            EXPECT_EQ(t.hbmS, max_t) << op.name;
            break;
          case Bound::GLOBAL_BUFFER:
            EXPECT_EQ(t.globalBufS, max_t) << op.name;
            break;
          default:
            FAIL() << "unexpected bound for " << op.name;
        }
    }
}

// ---- GemmCache (cross-design memoization) ----------------------------------

TEST(GemmCache, HitReturnsIdenticalBitsAndTallies)
{
    GemmCache cache;
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    params.gemmCache = &cache;
    const MatmulModel m(hw::modeledA100(), params);
    const model::Op op = weightGemm(2048, 4096, 4096);

    const MatmulTiming miss = m.time(op); // populates the cache
    const MatmulTiming hit = m.time(op);  // must be served from it
    EXPECT_EQ(miss.totalS, hit.totalS);
    EXPECT_EQ(miss.computeS, hit.computeS);
    EXPECT_EQ(miss.hbmS, hit.hbmS);
    EXPECT_EQ(miss.tileM, hit.tileM);
    EXPECT_EQ(miss.tileN, hit.tileN);
    EXPECT_EQ(miss.bound, hit.bound);

    const GemmCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(GemmCache, AnalyticModeNeverConsultsTheCache)
{
    GemmCache cache;
    PerfParams params; // gemmMode stays ANALYTIC
    params.gemmCache = &cache;
    const MatmulModel m(hw::modeledA100(), params);
    (void)m.time(weightGemm(2048, 4096, 4096));
    const GemmCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits + s.misses, 0u);
}

TEST(GemmCache, KeyIgnoresInterconnectFields)
{
    // Designs differing only along comm-only axes (device PHYs) must
    // share one cache entry: that is the axis-factorization the sweep
    // drivers exploit (docs/PERF.md).
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    const model::Op op = weightGemm(2048, 4096, 4096);
    hw::HardwareConfig a = hw::modeledA100();
    hw::HardwareConfig b = a;
    b.name = "comm-variant";
    b.devicePhyCount = a.devicePhyCount + 7;
    b.perPhyBandwidth = 2.0 * a.perPhyBandwidth;
    b.memCapacityBytes = 2.0 * a.memCapacityBytes;
    const std::uint64_t fp = fingerprintGemmParams(params);
    EXPECT_EQ(makeGemmCacheKey(a, op, params, fp),
              makeGemmCacheKey(b, op, params, fp));

    // End to end: a model on the comm-variant hits the entry the
    // original populated, bit-exactly.
    GemmCache cache;
    params.gemmCache = &cache;
    const MatmulTiming ta = MatmulModel(a, params).time(op);
    const MatmulTiming tb = MatmulModel(b, params).time(op);
    EXPECT_EQ(ta.totalS, tb.totalS);
    const GemmCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.hits, 1u);
}

TEST(GemmCache, KeyCanonicalizesCoresTimesLanesIntoArrayCount)
{
    // TILE_SIM timing depends on the total systolic-array count, not
    // the cores/lanes split, so the key canonicalizes the product.
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    const model::Op op = weightGemm(2048, 4096, 4096);
    hw::HardwareConfig a = hw::modeledA100();
    ASSERT_EQ(a.coreCount % 2, 0);
    hw::HardwareConfig b = a;
    b.coreCount = a.coreCount / 2;
    b.lanesPerCore = a.lanesPerCore * 2;
    const std::uint64_t fp = fingerprintGemmParams(params);
    EXPECT_EQ(makeGemmCacheKey(a, op, params, fp).arrays,
              makeGemmCacheKey(b, op, params, fp).arrays);
}

TEST(GemmCache, KeyDropsL2ForNonWeightStationaryOps)
{
    // L2 blocking only models weight-stationary GEMMs; for the rest
    // the key canonicalizes l2Bytes to zero so attention GEMMs share
    // entries across the whole l2Bytes sweep axis.
    PerfParams params;
    params.gemmMode = GemmMode::TILE_SIM;
    ASSERT_TRUE(params.modelL2Blocking);
    model::Op act = weightGemm(2048, 4096, 4096);
    act.mm.weightStationary = false;
    hw::HardwareConfig a = hw::modeledA100();
    hw::HardwareConfig b = a;
    b.l2Bytes = 2.0 * a.l2Bytes;
    const std::uint64_t fp = fingerprintGemmParams(params);
    EXPECT_EQ(makeGemmCacheKey(a, act, params, fp),
              makeGemmCacheKey(b, act, params, fp));

    // Weight-stationary ops DO key on L2 (blockedHbmTraffic reads it).
    const model::Op ws = weightGemm(2048, 4096, 4096);
    EXPECT_FALSE(makeGemmCacheKey(a, ws, params, fp) ==
                 makeGemmCacheKey(b, ws, params, fp));
}

TEST(GemmCache, ParamsFingerprintSeparatesTimingConstants)
{
    // One cache must never serve timings computed under different
    // model constants: the params fingerprint is part of the key.
    PerfParams a;
    a.gemmMode = GemmMode::TILE_SIM;
    PerfParams b = a;
    b.memEfficiency = a.memEfficiency * 0.5;
    EXPECT_NE(fingerprintGemmParams(a), fingerprintGemmParams(b));

    const model::Op op = weightGemm(2048, 4096, 4096);
    const hw::HardwareConfig cfg = hw::modeledA100();
    EXPECT_FALSE(makeGemmCacheKey(cfg, op, a, fingerprintGemmParams(a)) ==
                 makeGemmCacheKey(cfg, op, b, fingerprintGemmParams(b)));
}

TEST(GemmCache, ParamsFingerprintPinned)
{
    // Cache keys persist across builds only if the fingerprint of the
    // default constants never moves: these are the values every
    // earlier release computed. A change here must be deliberate.
    const struct
    {
        GemmMode mode;
        std::uint64_t fp;
    } pins[] = {
        {GemmMode::ANALYTIC, 0x8e796688bbf03eebull},
        {GemmMode::TILE_SIM, 0x4c796dfc222a770aull},
        {GemmMode::CYCLE_SIM, 0x83c800bb7603bde9ull},
    };
    for (const auto &pin : pins) {
        PerfParams params;
        params.gemmMode = pin.mode;
        EXPECT_EQ(fingerprintGemmParams(params), pin.fp)
            << toString(pin.mode);
    }
}

} // anonymous namespace
} // namespace perf
} // namespace acs
