/**
 * @file
 * Step-by-step replays shared by the traced runs: a design's layer
 * latency op by op through the perf models (each call inside a tracer
 * span), and its area, cost and rule classification. Every replay
 * reproduces the fused library call bit for bit, which the traced run
 * checks.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <vector>

#include "area/area_model.hh"
#include "area/cost_model.hh"
#include "bench.hh"
#include "dse/evaluate.hh"
#include "model/ops.hh"
#include "perf/cycle_sim.hh"
#include "perf/gemm_cache.hh"

namespace perfbench {

/** GEMM bookkeeping of a simulated-mode replay. */
struct GemmReplay
{
    explicit GemmReplay(const acs::perf::PerfParams &params);

    acs::perf::PerfParams params;
    std::uint64_t paramsFp = 0;
    /** Distinct GEMMs simulate once, as under the sweep cache. */
    acs::perf::GemmCache cache;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    /** Wall seconds of each simulated GEMM. */
    std::vector<double> gemmSeconds;
    /** CYCLE_SIM statistics summed over the simulated GEMMs. */
    acs::perf::CycleStats totals;
};

/**
 * Latency of one layer graph on @p cfg, op by op in graph order as
 * InferenceSimulator::simulateLayer sums it. GEMMs go through the
 * wave (TILE_SIM) or cycle (CYCLE_SIM) engine — spans
 * "perf.tile.gemm" or "perf.cycle.{attn,weight,decode}" — vector and
 * collective ops through their models ("perf.vector", "perf.comm").
 */
double replayLayer(Tracer &tracer, const acs::hw::HardwareConfig &cfg,
                   const acs::model::LayerGraph &graph, int tensor_parallel,
                   bool decode, GemmReplay &gemms);

/** Area, cost and reticle fields of @p d, as DesignEvaluator sets
 *  them. */
void fillStatic(const acs::area::AreaModel &area,
                const acs::area::CostModel &cost,
                const acs::hw::HardwareConfig &cfg,
                acs::dse::EvaluatedDesign *d);

/** Whether a design escapes each rule generation. */
struct RuleOutcome
{
    bool oct2022Unregulated = false;
    bool oct2023Unregulated = false;
};

/** Both rule generations on @p d as a data-center product. */
RuleOutcome classify(const acs::dse::EvaluatedDesign &d);

/** p50 and the highest percentile with >= 10 samples beyond it. */
void countPercentiles(Tracer &tracer, const std::string &name,
                      std::vector<double> seconds);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
