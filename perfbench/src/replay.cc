#include "replay.hh"

#include <algorithm>

#include "perf/comm_model.hh"
#include "perf/tile_sim.hh"
#include "perf/vector_model.hh"
#include "policy/acr_rules.hh"

namespace perfbench {

using namespace acs;

GemmReplay::GemmReplay(const perf::PerfParams &p)
    : params(p), paramsFp(perf::fingerprintGemmParams(p))
{}

double
replayLayer(Tracer &tracer, const hw::HardwareConfig &cfg,
            const model::LayerGraph &graph, int tensor_parallel,
            bool decode, GemmReplay &gemms)
{
    const perf::PerfParams &params = gemms.params;
    const bool cycle = params.gemmMode == perf::GemmMode::CYCLE_SIM;
    const perf::VectorModel vector(cfg, params);
    const perf::CommModel comm(cfg, params);
    double latency = 0.0;
    for (const model::Op &op : graph.ops) {
        if (op.kind == model::OpKind::VECTOR) {
            const Tracer::Scope span(tracer, "perf.vector");
            latency += vector.time(op).totalS;
            continue;
        }
        if (op.kind == model::OpKind::ALLREDUCE) {
            const Tracer::Scope span(tracer, "perf.comm");
            latency += comm.time(op, tensor_parallel).totalS;
            continue;
        }
        const perf::GemmCacheKey key =
            perf::makeGemmCacheKey(cfg, op, params, gemms.paramsFp);
        perf::MatmulTiming timing;
        ++gemms.lookups;
        if (gemms.cache.find(key, &timing)) {
            ++gemms.hits;
            latency += timing.totalS;
            continue;
        }
        const char *name = !cycle ? "perf.tile.gemm"
                           : decode ? "perf.cycle.decode"
                           : op.mm.batchCount > 1 ? "perf.cycle.attn"
                                                  : "perf.cycle.weight";
        const auto t0 = Clock::now();
        if (cycle) {
            perf::CycleStats st;
            {
                const Tracer::Scope span(tracer, name);
                st = perf::simulateGemmCycles(cfg, op, params);
            }
            perf::CycleStats &sum = gemms.totals;
            sum.totalTiles += st.totalTiles;
            sum.cycles += st.cycles;
            sum.events += st.events;
            sum.replayedTiles += st.replayedTiles;
            sum.computeBusyCycles += st.computeBusyCycles;
            sum.fillStallCycles += st.fillStallCycles;
            sum.dramQueueCycles += st.dramQueueCycles;
            sum.l2QueueCycles += st.l2QueueCycles;
            sum.spadSerialCycles += st.spadSerialCycles;
            timing.totalS = st.totalS;
        } else {
            const Tracer::Scope span(tracer, name);
            timing.totalS = perf::simulateGemmSummary(cfg, op, params).totalS;
        }
        gemms.gemmSeconds.push_back(secondsSince(t0));
        gemms.cache.insert(key, timing);
        latency += timing.totalS;
    }
    return latency;
}

void
fillStatic(const area::AreaModel &area, const area::CostModel &cost,
           const hw::HardwareConfig &cfg, dse::EvaluatedDesign *d)
{
    d->tpp = cfg.tpp();
    d->dieAreaMm2 = area.dieArea(cfg);
    d->perfDensity = area.perfDensity(cfg, d->dieAreaMm2);
    d->underReticle = d->dieAreaMm2 <= area::RETICLE_LIMIT_MM2;
    d->dieCostUsd = 0.0;
    d->goodDieCostUsd = 0.0;
    if (cost.diesPerWafer(d->dieAreaMm2) > 0) {
        d->dieCostUsd = cost.dieCostUsd(d->dieAreaMm2, cfg.process);
        d->goodDieCostUsd = cost.goodDieCostUsd(d->dieAreaMm2, cfg.process);
    }
}

RuleOutcome
classify(const dse::EvaluatedDesign &d)
{
    const policy::DeviceSpec spec = d.toSpec();
    RuleOutcome out;
    out.oct2022Unregulated = policy::Oct2022Rule::classify(spec) ==
                             policy::Classification::NOT_APPLICABLE;
    out.oct2023Unregulated = policy::Oct2023Rule::classify(spec) ==
                             policy::Classification::NOT_APPLICABLE;
    return out;
}

void
countPercentiles(Tracer &tracer, const std::string &name,
                 std::vector<double> seconds)
{
    if (seconds.empty())
        return;
    std::sort(seconds.begin(), seconds.end());
    const std::size_t n = seconds.size();
    tracer.metric(name + "_p50_s", "s", seconds[n / 2]);
    double pct = 50.0;
    for (const double p : {90.0, 99.0, 99.9}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0)
            pct = p;
    }
    const std::size_t idx = std::min(
        n - 1, static_cast<std::size_t>(pct / 100.0 * static_cast<double>(n)));
    tracer.metric(name + "_tail_pct", "%", pct);
    tracer.metric(name + "_tail_s", "s", seconds[idx]);
}

} // namespace perfbench
