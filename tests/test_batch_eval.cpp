/**
 * @file
 * Bit-identity pinning of the batch kernels (perf/batch_eval.hh)
 * against the scalar op models: every lane of a batched evaluation
 * must reproduce the scalar MatmulModel/VectorModel/CommModel result
 * exactly (EXPECT_DOUBLE_EQ) across the fig06 design space and the
 * real op shapes of the paper's workloads, under every ANALYTIC-mode
 * params variation. End to end, the streaming sweep (batched in
 * ANALYTIC mode) must match evaluateAll, the scalar per-design path,
 * in every GEMM mode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "core/study.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"
#include "perf/batch_eval.hh"
#include "perf/comm_model.hh"
#include "perf/matmul_model.hh"
#include "perf/vector_model.hh"

namespace acs {
namespace perf {
namespace {

/** The fig06 space (Table 3 at TPP 4800, one device bandwidth). */
dse::SweepSpace
fig06Space()
{
    return dse::table3Space(4800.0, {600.0 * units::GBPS});
}

/** Per-op scalar-vs-batch comparison over every fig06 design. */
void
expectBatchMatchesScalar(const core::Workload &w, const PerfParams &params)
{
    const dse::SweepSpace space = fig06Space();
    const std::vector<hw::HardwareConfig> cfgs = space.generate();
    ASSERT_FALSE(cfgs.empty());

    DesignBatch batch;
    batch.reserve(cfgs.size());
    for (const hw::HardwareConfig &cfg : cfgs)
        batch.push(cfg);

    const dse::DesignEvaluator evaluator(w.model, w.setting, w.system,
                                         params);
    std::vector<double> out(cfgs.size());
    for (const model::LayerGraph *graph :
         {&evaluator.prefillGraph(), &evaluator.decodeGraph()}) {
        for (const model::Op &op : graph->ops) {
            switch (op.kind) {
              case model::OpKind::MATMUL:
                batchMatmulTotalS(batch, op, params, out.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const MatmulModel scalar(cfgs[i], params);
                    EXPECT_DOUBLE_EQ(out[i], scalar.time(op).totalS)
                        << op.name << " design " << i;
                }
                break;
              case model::OpKind::VECTOR:
                batchVectorTotalS(batch, op, params, out.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const VectorModel scalar(cfgs[i], params);
                    EXPECT_DOUBLE_EQ(out[i], scalar.time(op).totalS)
                        << op.name << " design " << i;
                }
                break;
              case model::OpKind::ALLREDUCE:
                batchAllreduceTotalS(batch, op,
                                     w.system.tensorParallel, params,
                                     out.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i) {
                    const CommModel scalar(cfgs[i], params);
                    EXPECT_DOUBLE_EQ(
                        out[i],
                        scalar.time(op, w.system.tensorParallel).totalS)
                        << op.name << " design " << i;
                }
                break;
            }
        }
    }
}

TEST(BatchEval, MatchesScalarModelsDefaultParams)
{
    expectBatchMatchesScalar(core::gpt3Workload(), PerfParams{});
}

TEST(BatchEval, MatchesScalarModelsSingleDevice)
{
    // TP=1: the allreduce kernel's degenerate zero-fill path.
    expectBatchMatchesScalar(core::llamaWorkload(), PerfParams{});
    core::Workload w = core::llamaWorkload();
    w.system.tensorParallel = 1;
    expectBatchMatchesScalar(w, PerfParams{});
}

TEST(BatchEval, MatchesScalarModelsAblations)
{
    // Every modeling switch the ANALYTIC kernels branch on.
    PerfParams p;
    p.modelTiling = false;
    expectBatchMatchesScalar(core::gpt3Workload(), p);

    p = PerfParams{};
    p.modelL2Blocking = false;
    expectBatchMatchesScalar(core::gpt3Workload(), p);

    p = PerfParams{};
    p.modelPipelineFill = false;
    expectBatchMatchesScalar(core::gpt3Workload(), p);

    p = PerfParams{};
    p.modelMultiPassVector = true;
    expectBatchMatchesScalar(core::gpt3Workload(), p);
}

TEST(BatchEval, ReusedEvaluatorMatchesFreshAcrossResets)
{
    // reset() keeps the memo slots and their buffers. Reusing one
    // evaluator over chunks of changing size and changing graphs must
    // give exactly what a fresh evaluator gives for each chunk.
    const std::vector<hw::HardwareConfig> cfgs = fig06Space().generate();
    const core::Workload gpt3 = core::gpt3Workload();
    const core::Workload llama = core::llamaWorkload();
    const dse::DesignEvaluator eval_g(gpt3.model, gpt3.setting,
                                      gpt3.system);
    const dse::DesignEvaluator eval_l(llama.model, llama.setting,
                                      llama.system);
    BatchEvaluator reused{PerfParams{}};
    const struct
    {
        const dse::DesignEvaluator *eval;
        int tp;
        std::size_t first, count;
    } chunks[] = {
        {&eval_g, gpt3.system.tensorParallel, 0, 64},
        {&eval_l, llama.system.tensorParallel, 64, 7},
        {&eval_g, gpt3.system.tensorParallel, 71, 64},
        {&eval_g, gpt3.system.tensorParallel, 135, 1},
        {&eval_l, llama.system.tensorParallel, 136, 64},
    };
    for (const auto &c : chunks) {
        DesignBatch batch;
        for (std::size_t i = 0; i < c.count; ++i)
            batch.push(cfgs[c.first + i]);
        BatchEvaluator fresh{PerfParams{}};
        reused.reset();
        for (const model::LayerGraph *graph :
             {&c.eval->prefillGraph(), &c.eval->decodeGraph()}) {
            std::vector<double> want(c.count, 0.0), got(c.count, 0.0);
            fresh.layerLatency(*graph, c.tp, batch, want.data());
            reused.layerLatency(*graph, c.tp, batch, got.data());
            for (std::size_t i = 0; i < c.count; ++i)
                EXPECT_EQ(got[i], want[i]) << graph->name << " " << i;
        }
    }
}

/** End to end: the streaming sweep (batched in ANALYTIC mode, the
 *  scalar/cache pipeline otherwise) must reproduce the argmins and
 *  tallies of evaluateAll, the scalar per-design path, folded in
 *  enumeration order. */
void
expectStreamABIdentical(const PerfParams &params)
{
    const core::Workload w = core::gpt3Workload();
    const dse::SweepSpace space = fig06Space();
    const dse::DesignEvaluator evaluator(w.model, w.setting, w.system,
                                         params);
    const dse::StreamStats a = evaluator.evaluateStream(space);

    const std::vector<dse::EvaluatedDesign> all =
        evaluator.evaluateAll(space.generate());
    dse::StreamStats b;
    for (std::size_t i = 0; i < all.size(); ++i)
        b.absorb(all[i], i, true);

    ASSERT_TRUE(a.bestTtft && b.bestTtft && a.bestTbt && b.bestTbt);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.underReticle, b.underReticle);
    EXPECT_EQ(a.oct2023Unregulated, b.oct2023Unregulated);
    EXPECT_EQ(a.bestTtftIndex, b.bestTtftIndex);
    EXPECT_EQ(a.bestTbtIndex, b.bestTbtIndex);
    EXPECT_EQ(a.bestTtft->ttftS, b.bestTtft->ttftS);
    EXPECT_EQ(a.bestTtft->tbtS, b.bestTtft->tbtS);
    EXPECT_EQ(a.bestTbt->ttftS, b.bestTbt->ttftS);
    EXPECT_EQ(a.bestTbt->tbtS, b.bestTbt->tbtS);
    EXPECT_EQ(a.bestTtft->config.name, b.bestTtft->config.name);
    EXPECT_EQ(a.bestTbt->config.name, b.bestTbt->config.name);
}

TEST(BatchEval, StreamBatchToggleBitIdenticalAnalytic)
{
    expectStreamABIdentical(PerfParams{});
}

TEST(BatchEval, StreamBatchToggleBitIdenticalTileSim)
{
    PerfParams p;
    p.gemmMode = GemmMode::TILE_SIM;
    expectStreamABIdentical(p);
}

} // namespace
} // namespace perf
} // namespace acs
