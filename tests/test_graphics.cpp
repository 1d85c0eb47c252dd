/**
 * @file
 * Unit tests for the rendering workload descriptions and the
 * frame-time proxy (Sec. 5.4 substrate).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "hw/presets.hh"
#include "model/graphics.hh"
#include "perf/graphics_model.hh"
#include "policy/arch_policy.hh"

namespace acs {
namespace model {

// Print the workload name, not the struct's bytes: the default printer
// dumps the string's heap pointer into the test names.
void
PrintTo(const GraphicsWorkload &workload, std::ostream *os)
{
    *os << workload.name;
}

} // namespace model

namespace {

using model::GraphicsWorkload;
using perf::FrameResult;
using perf::GraphicsModel;
using perf::GraphicsParams;

// ---- workloads --------------------------------------------------------------

TEST(GraphicsWorkload, PixelAndFragmentCounts)
{
    const GraphicsWorkload w = GraphicsWorkload::esports1080p();
    EXPECT_DOUBLE_EQ(w.pixels(), 1920.0 * 1080.0);
    EXPECT_DOUBLE_EQ(w.fragments(), w.pixels() * w.overdraw);
}

TEST(GraphicsWorkload, PresetsValidate)
{
    EXPECT_NO_THROW(GraphicsWorkload::aaa1440p().validate());
    EXPECT_NO_THROW(GraphicsWorkload::esports1080p().validate());
    EXPECT_NO_THROW(GraphicsWorkload::rayTraced4k().validate());
}

TEST(GraphicsWorkload, ValidationRejectsBadFields)
{
    GraphicsWorkload w = GraphicsWorkload::aaa1440p();
    w.width = 0;
    EXPECT_THROW(w.validate(), FatalError);
    w = GraphicsWorkload::aaa1440p();
    w.overdraw = 0.0;
    EXPECT_THROW(w.validate(), FatalError);
    w = GraphicsWorkload::aaa1440p();
    w.textureBytesPerFragment = -1.0;
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(GraphicsWorkload, PresetsOrderedByIntensity)
{
    // esports < AAA < ray-traced in per-frame shading work.
    const double e = GraphicsWorkload::esports1080p().fragments() *
                     GraphicsWorkload::esports1080p()
                         .shadeFlopsPerFragment;
    const double a = GraphicsWorkload::aaa1440p().fragments() *
                     GraphicsWorkload::aaa1440p().shadeFlopsPerFragment;
    const double r = GraphicsWorkload::rayTraced4k().fragments() *
                     GraphicsWorkload::rayTraced4k()
                         .shadeFlopsPerFragment;
    EXPECT_LT(e, a);
    EXPECT_LT(a, r);
}

// ---- frame-time model ---------------------------------------------------------

TEST(GraphicsModel, FrameTimeIsPositiveAndDecomposed)
{
    const GraphicsModel model(hw::modeledA100());
    const FrameResult r =
        model.frameTime(GraphicsWorkload::aaa1440p());
    EXPECT_GT(r.geometryS, 0.0);
    EXPECT_GT(r.shadeS, 0.0);
    EXPECT_GT(r.textureS, 0.0);
    EXPECT_GT(r.rasterS, 0.0);
    EXPECT_DOUBLE_EQ(r.upscaleS, 0.0);
    EXPECT_GT(r.frameS, 0.0);
    EXPECT_GT(r.fps(), 0.0);
}

TEST(GraphicsModel, A100ClassFpsIsPlausible)
{
    const GraphicsModel model(hw::modeledA100());
    const double fps =
        model.frameTime(GraphicsWorkload::aaa1440p()).fps();
    EXPECT_GT(fps, 60.0);
    EXPECT_LT(fps, 5000.0);
}

TEST(GraphicsModel, HbmBandwidthBarelyMattersForGaming)
{
    // The core Sec. 5.4 claim: texture traffic is latency-bound, so
    // halving HBM bandwidth costs only a few percent of FPS.
    hw::HardwareConfig fast = hw::modeledA100();
    hw::HardwareConfig slow = hw::modeledA100();
    slow.memBandwidth = 1.0 * units::TBPS;
    const GraphicsWorkload w = GraphicsWorkload::aaa1440p();
    const double f_fast = GraphicsModel(fast).frameTime(w).fps();
    const double f_slow = GraphicsModel(slow).frameTime(w).fps();
    EXPECT_GT(f_slow / f_fast, 0.90);
}

TEST(GraphicsModel, SystolicArraysDoNotAffectRasterFps)
{
    hw::HardwareConfig big = hw::modeledA100();
    hw::HardwareConfig small = hw::modeledA100();
    small.systolicDimX = 4;
    small.systolicDimY = 4;
    const GraphicsWorkload w = GraphicsWorkload::esports1080p();
    EXPECT_DOUBLE_EQ(GraphicsModel(big).frameTime(w).fps(),
                     GraphicsModel(small).frameTime(w).fps());
}

TEST(GraphicsModel, VectorThroughputDrivesFps)
{
    hw::HardwareConfig weak = hw::modeledA100();
    weak.vectorWidth = 8;
    const GraphicsWorkload w = GraphicsWorkload::aaa1440p();
    EXPECT_LT(GraphicsModel(weak).frameTime(w).fps(),
              GraphicsModel(hw::modeledA100()).frameTime(w).fps());
}

TEST(GraphicsModel, BiggerL2RaisesTextureHitRate)
{
    hw::HardwareConfig small = hw::modeledA100();
    small.l2Bytes = 8.0 * units::MIB;
    hw::HardwareConfig big = hw::modeledA100();
    big.l2Bytes = 64.0 * units::MIB;
    EXPECT_LT(GraphicsModel(small).textureHitRate(),
              GraphicsModel(big).textureHitRate());
    EXPECT_LE(GraphicsModel(big).textureHitRate(), 1.0);
}

TEST(GraphicsModel, TextureBandwidthIsLatencyCapped)
{
    const GraphicsParams params;
    const double cap =
        params.textureInflightBytes / params.memLatencyS;
    hw::HardwareConfig cfg = hw::modeledA100(); // 2 TB/s >> cap
    EXPECT_DOUBLE_EQ(GraphicsModel(cfg).textureBandwidth(), cap);
    cfg.memBandwidth = cap / 2.0; // slower than the concurrency limit
    EXPECT_DOUBLE_EQ(GraphicsModel(cfg).textureBandwidth(), cap / 2.0);
}

TEST(GraphicsModel, TensorUpscalerAddsTimeAndNeedsArrays)
{
    const GraphicsModel model(hw::modeledA100());
    const GraphicsWorkload w = GraphicsWorkload::aaa1440p();
    const FrameResult without = model.frameTime(w, false);
    const FrameResult with = model.frameTime(w, true);
    EXPECT_GT(with.upscaleS, 0.0);
    EXPECT_GT(with.frameS, without.frameS);
}

TEST(GraphicsModel, InvalidParamsAreFatal)
{
    GraphicsParams params;
    params.memLatencyS = 0.0;
    EXPECT_THROW(GraphicsModel(hw::modeledA100(), params), FatalError);
    params = GraphicsParams{};
    params.cacheHitBase = 0.9;
    params.cacheHitMax = 0.5;
    EXPECT_THROW(GraphicsModel(hw::modeledA100(), params), FatalError);
}

TEST(GraphicsModel, ZeroFrameTimeFpsPanics)
{
    FrameResult r;
    EXPECT_THROW(r.fps(), PanicError);
}

/**
 * Property (the Sec. 5.4 selectivity claim): across workloads, a
 * gaming-policy-compliant redesign keeps >= 90% of FPS.
 */
class PolicySelectivity
    : public ::testing::TestWithParam<GraphicsWorkload>
{};

TEST_P(PolicySelectivity, CompliantDesignRetainsFps)
{
    hw::HardwareConfig compliant = hw::modeledA100();
    compliant.systolicDimX = 8;
    compliant.systolicDimY = 8;
    compliant.memBandwidth = 1.0 * units::TBPS;
    ASSERT_TRUE(policy::ArchPolicy::gamingFocused()
                    .compliant(compliant));
    const double base = GraphicsModel(hw::modeledA100())
                            .frameTime(GetParam())
                            .fps();
    const double kept =
        GraphicsModel(compliant).frameTime(GetParam()).fps();
    EXPECT_GT(kept / base, 0.90);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PolicySelectivity,
    ::testing::Values(GraphicsWorkload::esports1080p(),
                      GraphicsWorkload::aaa1440p(),
                      GraphicsWorkload::rayTraced4k()),
    [](const auto &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // anonymous namespace
} // namespace acs
