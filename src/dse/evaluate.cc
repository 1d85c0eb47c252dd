#include "evaluate.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "model/ops.hh"
#include "obs/obs.hh"
#include "perf/batch_eval.hh"
#include "perf/gemm_cache.hh"

namespace acs {
namespace dse {

namespace {

/**
 * Sweep-scoped GEMM-cache hoist: a params copy for one batch call,
 * with a batch-lifetime perf::GemmCache installed when the base
 * params run a simulating GEMM mode (TILE_SIM or CYCLE_SIM), allow
 * caching, and carry no caller-installed handle. In every other case
 * `params` is a plain copy and no cache is built. Results are
 * bit-identical with or without the hoist; only the sweep's cost
 * changes.
 */
struct SweepCacheScope
{
    std::optional<perf::GemmCache> cache; //!< built only when installed
    perf::PerfParams params;

    explicit SweepCacheScope(const perf::PerfParams &base) : params(base)
    {
        if (params.gemmMode != perf::GemmMode::ANALYTIC &&
            params.cacheTileSimGemms && !params.gemmCache) {
            params.gemmCache = &cache.emplace();
        }
    }

    /** Report hit/miss totals to obs (call once, after the batch). */
    void report() const
    {
        if (!obs::enabled() || !cache)
            return;
        const perf::GemmCache::Stats stats = cache->stats();
        obs::counterAdd("dse.gemm_cache.hits", stats.hits);
        obs::counterAdd("dse.gemm_cache.misses", stats.misses);
        obs::counterAdd("dse.gemm_cache.entries", stats.entries);
    }
};

} // anonymous namespace

double
EvaluatedDesign::ttftCostProduct() const
{
    return units::toMs(ttftS) * dieCostUsd;
}

double
EvaluatedDesign::tbtCostProduct() const
{
    return units::toMs(tbtS) * dieCostUsd;
}

policy::DeviceSpec
EvaluatedDesign::toSpec() const
{
    policy::DeviceSpec spec = unnamedSpec();
    spec.name = config.name;
    return spec;
}

policy::DeviceSpec
EvaluatedDesign::unnamedSpec() const
{
    policy::DeviceSpec spec;
    spec.tpp = tpp;
    spec.deviceBandwidthGBps = units::toGBps(config.deviceBandwidth());
    spec.dieAreaMm2 = dieAreaMm2;
    spec.nonPlanarTransistor = config.nonPlanarTransistor;
    spec.market = policy::MarketSegment::DATA_CENTER;
    spec.memCapacityGB = config.memCapacityBytes / units::GB;
    spec.memBandwidthGBps = units::toGBps(config.memBandwidth);
    return spec;
}

bool
EvaluatedDesign::oct2023Unregulated() const
{
    return policy::Oct2023Rule::classify(unnamedSpec()) ==
           policy::Classification::NOT_APPLICABLE;
}

DesignEvaluator::DesignEvaluator(const model::TransformerConfig &model_cfg,
                                 const model::InferenceSetting &setting,
                                 const perf::SystemConfig &sys,
                                 const perf::PerfParams &params)
    : modelCfg_(model_cfg), setting_(setting), sys_(sys), params_(params)
{
    modelCfg_.validate();
    setting_.validate();
    fatalIf(sys_.tensorParallel < 1,
            "DesignEvaluator: tensorParallel must be >= 1");
    // The layer graphs depend only on (model, setting, tensorParallel),
    // never on the hardware under evaluation: build them once here so
    // a sweep shares one pair across every design point.
    prefill_ = model::buildPrefillGraph(modelCfg_, setting_,
                                        sys_.tensorParallel);
    decode_ = model::buildDecodeGraph(modelCfg_, setting_,
                                      sys_.tensorParallel);
}

EvaluatedDesign
DesignEvaluator::evaluate(const hw::HardwareConfig &cfg) const
{
    return evaluateWith(cfg, params_);
}

void
DesignEvaluator::fillStaticFields(const hw::HardwareConfig &cfg,
                                  EvaluatedDesign *d) const
{
    d->config = cfg;
    d->tpp = cfg.tpp();
    d->dieAreaMm2 = areaModel_.dieArea(cfg);
    d->perfDensity = areaModel_.perfDensity(cfg, d->dieAreaMm2);
    d->underReticle = d->dieAreaMm2 <= area::RETICLE_LIMIT_MM2;
    // Assign unconditionally: the batched chunk path reuses one
    // EvaluatedDesign across designs, so stale costs must never leak
    // from a previous (wafer-fitting) design into an oversized one.
    d->dieCostUsd = 0.0;
    d->goodDieCostUsd = 0.0;
    if (costModel_.diesPerWafer(d->dieAreaMm2) > 0) {
        d->dieCostUsd = costModel_.dieCostUsd(d->dieAreaMm2, cfg.process);
        d->goodDieCostUsd =
            costModel_.goodDieCostUsd(d->dieAreaMm2, cfg.process);
    }
}

EvaluatedDesign
DesignEvaluator::evaluateWith(const hw::HardwareConfig &cfg,
                              const perf::PerfParams &params) const
{
    const obs::ScopedTimer timer("dse.evaluate");
    EvaluatedDesign d;
    fillStaticFields(cfg, &d);

    const perf::InferenceSimulator sim(cfg, params);
    const perf::InferenceResult result =
        sim.run(modelCfg_, setting_, sys_, prefill_, decode_);
    d.ttftS = result.ttftS;
    d.tbtS = result.tbtS;
    return d;
}

/**
 * Per-worker chunk evaluation buffers: the materialized configs (name
 * buffers reused across chunks), the batch view, the per-phase latency
 * accumulators, and the batch evaluator holding the op-shape memo.
 */
struct DesignEvaluator::ChunkScratch
{
    std::vector<hw::HardwareConfig> cfgs;
    perf::DesignBatch batch;
    std::vector<double> prefillS;
    std::vector<double> decodeS;
    std::unique_ptr<perf::BatchEvaluator> batchEval;
    hw::HardwareConfig cfg; //!< scalar-path scratch config
    EvaluatedDesign design; //!< batched-path scratch design
};

void
DesignEvaluator::evaluateChunk(const SweepPlan &plan, std::size_t base,
                               std::size_t count,
                               const std::size_t *indices,
                               const perf::PerfParams &params,
                               ChunkScratch &scratch,
                               const ChunkSink &sink) const
{
    const auto planIndex = [&](std::size_t j) {
        return indices ? indices[base + j] : base + j;
    };
    if (params.gemmMode == perf::GemmMode::ANALYTIC) {
        if (!scratch.batchEval) {
            scratch.batchEval =
                std::make_unique<perf::BatchEvaluator>(params);
        }
        if (scratch.cfgs.size() < count)
            scratch.cfgs.resize(count);
        scratch.batch.clear();
        scratch.batch.reserve(count);
        for (std::size_t j = 0; j < count; ++j) {
            plan.point(planIndex(j), &scratch.cfgs[j]);
            scratch.batch.push(scratch.cfgs[j]);
        }
        // One batch pass per op per phase; the memo spans both phases
        // like the scalar per-run OpShapeMemo.
        scratch.prefillS.assign(count, 0.0);
        scratch.decodeS.assign(count, 0.0);
        scratch.batchEval->reset();
        scratch.batchEval->layerLatency(prefill_, sys_.tensorParallel,
                                        scratch.batch,
                                        scratch.prefillS.data());
        scratch.batchEval->layerLatency(decode_, sys_.tensorParallel,
                                        scratch.batch,
                                        scratch.decodeS.data());
        if (obs::enabled()) {
            obs::counterAdd("dse.batch.designs", count);
            obs::counterAdd("dse.batch.chunks");
        }
        for (std::size_t j = 0; j < count; ++j) {
            fillStaticFields(scratch.cfgs[j], &scratch.design);
            scratch.design.ttftS = scratch.prefillS[j];
            scratch.design.tbtS = scratch.decodeS[j];
            sink(scratch.design, planIndex(j), base + j);
        }
    } else {
        for (std::size_t j = 0; j < count; ++j) {
            plan.point(planIndex(j), &scratch.cfg);
            sink(evaluateWith(scratch.cfg, params), planIndex(j),
                 base + j);
        }
    }
}

std::vector<EvaluatedDesign>
DesignEvaluator::evaluateAll(const std::vector<hw::HardwareConfig> &cfgs)
    const
{
    const obs::TraceSpan span("dse.evaluateAll");
    obs::counterAdd("dse.designs.evaluated", cfgs.size());
    SweepCacheScope scope(params_);
    std::vector<EvaluatedDesign> out;
    out.reserve(cfgs.size());
    for (const hw::HardwareConfig &cfg : cfgs)
        out.push_back(evaluateWith(cfg, scope.params));
    scope.report();
    return out;
}

std::vector<EvaluatedDesign>
DesignEvaluator::evaluateAllParallel(
    const std::vector<hw::HardwareConfig> &cfgs, unsigned threads) const
{
    common::ThreadPool &pool = common::ThreadPool::shared();
    if (threads == 0)
        threads = pool.concurrency();
    threads = std::min<unsigned>(
        threads, std::max<std::size_t>(1, cfgs.size()));
    if (threads <= 1 || cfgs.size() < 2)
        return evaluateAll(cfgs);

    const obs::TraceSpan span("dse.evaluateAllParallel");
    obs::counterAdd("dse.designs.evaluated", cfgs.size());
    obs::counterAdd("dse.parallel.threads", threads);
    const auto wall_start = std::chrono::steady_clock::now();

    // `threads` tasks on the shared pool, each claiming designs in
    // chunks off one atomic cursor: this caps concurrency at the
    // requested level even when the pool is wider, and reuses the
    // warm worker crew instead of spawning a crew per batch.
    SweepCacheScope scope(params_);
    std::vector<EvaluatedDesign> out(cfgs.size());
    std::atomic<std::size_t> next{0};
    const std::size_t chunk = std::clamp<std::size_t>(
        cfgs.size() / (static_cast<std::size_t>(threads) * 8), 1, 64);
    pool.parallelFor(
        threads,
        [&](std::size_t) {
            // Per-worker tallies land in obs's per-thread buffers, so
            // the summary exposes work-stealing balance across the
            // pool.
            for (;;) {
                const std::size_t start = next.fetch_add(chunk);
                if (start >= cfgs.size())
                    break;
                const std::size_t end =
                    std::min(start + chunk, cfgs.size());
                for (std::size_t i = start; i < end; ++i) {
                    out[i] = evaluateWith(cfgs[i], scope.params);
                    obs::counterAdd("dse.worker.designs");
                }
            }
        },
        1);
    scope.report();

    if (obs::enabled()) {
        // Batch wall time; designs/sec = dse.designs.evaluated over
        // this series' total (kept as a histogram so repeated sweeps
        // stay distinguishable).
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        obs::recordDuration("dse.parallel.batch_wall", wall_s);
    }
    return out;
}

// ---- streaming pipeline ----------------------------------------------------

void
StreamStats::absorb(const EvaluatedDesign &design, std::size_t index,
                    bool keep)
{
    ++evaluated;
    if (!keep)
        return;
    ++kept;
    if (design.underReticle)
        ++underReticle;
    if (design.oct2023Unregulated())
        ++oct2023Unregulated;
    // Strict-< with an index tie-break reproduces std::min_element's
    // first-wins semantics over the enumeration order.
    if (!bestTtft || design.ttftS < bestTtft->ttftS ||
        (design.ttftS == bestTtft->ttftS && index < bestTtftIndex)) {
        bestTtft = design;
        bestTtftIndex = index;
    }
    if (!bestTbt || design.tbtS < bestTbt->tbtS ||
        (design.tbtS == bestTbt->tbtS && index < bestTbtIndex)) {
        bestTbt = design;
        bestTbtIndex = index;
    }
}

void
StreamStats::merge(const StreamStats &other)
{
    evaluated += other.evaluated;
    kept += other.kept;
    underReticle += other.underReticle;
    oct2023Unregulated += other.oct2023Unregulated;
    if (other.bestTtft &&
        (!bestTtft || other.bestTtft->ttftS < bestTtft->ttftS ||
         (other.bestTtft->ttftS == bestTtft->ttftS &&
          other.bestTtftIndex < bestTtftIndex))) {
        bestTtft = other.bestTtft;
        bestTtftIndex = other.bestTtftIndex;
    }
    if (other.bestTbt &&
        (!bestTbt || other.bestTbt->tbtS < bestTbt->tbtS ||
         (other.bestTbt->tbtS == bestTbt->tbtS &&
          other.bestTbtIndex < bestTbtIndex))) {
        bestTbt = other.bestTbt;
        bestTbtIndex = other.bestTbtIndex;
    }
}

StreamStats
DesignEvaluator::evaluateStream(const SweepSpace &space,
                                const StreamPredicate &predicate,
                                const StreamVisitor &visitor,
                                unsigned threads) const
{
    const obs::TraceSpan span("dse.evaluateStream");
    const SweepPlan plan(space);
    const std::size_t n = plan.pointCount();
    obs::counterAdd("dse.sweep.points", n);
    if (n == 0)
        return StreamStats{};

    common::ThreadPool &pool = common::ThreadPool::shared();
    if (threads == 0)
        threads = pool.concurrency();
    threads = std::min<unsigned>(threads, n);
    threads = std::max(threads, 1u);

    obs::counterAdd("dse.designs.evaluated", n);
    obs::counterAdd("dse.parallel.threads", threads);
    const auto wall_start = std::chrono::steady_clock::now();

    // One partial reduction per streaming task; designs are claimed
    // in chunks off the atomic cursor, built via plan.point(i), and
    // folded immediately — at no point does more than one design per
    // task exist. Partials are padded to cache lines: absorb() writes
    // its partial on every design, and unpadded adjacent StreamStats
    // would false-share, which is measurable at streaming rates
    // (results/BENCH_gemm.json's TILE_SIM rows stream > 100k
    // designs/s through here).
    struct alignas(64) PaddedStreamStats
    {
        StreamStats stats;
    };
    // One GEMM cache for the whole stream (simulating modes only):
    // the plan
    // enumerates comm-only axes innermost, so each compute-class run
    // of commOnlyRunLength() designs simulates its GEMMs once.
    SweepCacheScope scope(params_);
    std::vector<PaddedStreamStats> partials(threads);
    std::atomic<std::size_t> next{0};
    // Larger claims than the materializing path: workers touch no
    // shared output array, so the only cursor pressure is the claim
    // itself — 4 claims per worker amortizes it without risking
    // imbalance on these homogeneous design points.
    const std::size_t chunk = std::clamp<std::size_t>(
        n / (static_cast<std::size_t>(threads) * 4), 1, 64);
    pool.parallelFor(
        threads,
        [&](std::size_t task) {
            StreamStats &local = partials[task].stats;
            // Per-worker scratch buffers: in-place point() reuses
            // name buffers, keeping the per-design build off the
            // allocator (which serializes across workers). ANALYTIC
            // chunks route through the batch kernel inside
            // evaluateChunk; results are bit-identical either way.
            ChunkScratch scratch;
            const ChunkSink sink = [&](const EvaluatedDesign &d,
                                       std::size_t i, std::size_t) {
                const bool keep = !predicate || predicate(d);
                local.absorb(d, i, keep);
                if (keep && visitor)
                    visitor(d, i);
                obs::counterAdd("dse.worker.designs");
            };
            for (;;) {
                const std::size_t start = next.fetch_add(chunk);
                if (start >= n)
                    break;
                const std::size_t end = std::min(start + chunk, n);
                evaluateChunk(plan, start, end - start, nullptr,
                              scope.params, scratch, sink);
            }
        },
        1);

    StreamStats out;
    for (const PaddedStreamStats &p : partials)
        out.merge(p.stats);
    scope.report();

    if (obs::enabled()) {
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        obs::recordDuration("dse.parallel.batch_wall", wall_s);
        obs::counterAdd("dse.stream.kept", out.kept);
    }
    return out;
}

DesignEvaluator::WaveScratch::WaveScratch() = default;
DesignEvaluator::WaveScratch::~WaveScratch() = default;

void
DesignEvaluator::evaluatePlanIndices(const SweepPlan &plan,
                                     const std::size_t *indices,
                                     std::size_t count,
                                     const StreamPredicate &predicate,
                                     PointSample *out,
                                     unsigned threads) const
{
    WaveScratch scratch;
    evaluatePlanIndices(plan, indices, count, count, predicate, out,
                        threads, scratch);
}

void
DesignEvaluator::evaluatePlanIndices(const SweepPlan &plan,
                                     const std::size_t *indices,
                                     std::size_t count, std::size_t fresh,
                                     const StreamPredicate &predicate,
                                     PointSample *out, unsigned threads,
                                     WaveScratch &scratch) const
{
    panicIf(fresh > count, "evaluatePlanIndices: fresh > count");
    if (count == 0)
        return;
    common::ThreadPool &pool = common::ThreadPool::shared();
    if (threads == 0)
        threads = pool.concurrency();
    threads = std::min<unsigned>(threads, count);
    threads = std::max(threads, 1u);

    obs::counterAdd("dse.designs.evaluated", fresh);

    if (scratch.owner_ != this) {
        scratch.workers_.clear();
        scratch.owner_ = this;
    }
    if (scratch.workers_.size() < threads)
        scratch.workers_.resize(threads);

    // Same scaffolding as evaluateStream, but positions map through
    // the caller's index array and results land in out[pos] — each
    // slot written by exactly one worker, so no reduction is needed
    // and the output is scheduling-independent. Task t owns
    // scratch.workers_[t]. The lambdas capture at most two words, so
    // neither std::function allocates.
    struct Wave
    {
        const SweepPlan &plan;
        const std::size_t *indices;
        std::size_t count;
        std::size_t fresh;
        std::size_t chunk;
        const StreamPredicate &predicate;
        PointSample *out;
        WaveScratch &scratch;
        SweepCacheScope scope;
        std::atomic<std::size_t> next{0};
    };
    Wave wave{plan,
              indices,
              count,
              fresh,
              std::clamp<std::size_t>(
                  count / (static_cast<std::size_t>(threads) * 4), 1, 64),
              predicate,
              out,
              scratch,
              SweepCacheScope(params_)};
    pool.parallelFor(
        threads,
        [this, &wave](std::size_t task) {
            ChunkScratch &cs = wave.scratch.workers_[task];
            const ChunkSink sink = [&wave](const EvaluatedDesign &d,
                                           std::size_t, std::size_t pos) {
                PointSample &s = wave.out[pos];
                s.ttftS = d.ttftS;
                s.tbtS = d.tbtS;
                s.kept = !wave.predicate || wave.predicate(d);
                s.underReticle = d.underReticle;
                s.oct2023Unregulated = d.oct2023Unregulated();
                obs::counterAdd("dse.worker.designs");
            };
            for (;;) {
                const std::size_t start = wave.next.fetch_add(wave.chunk);
                if (start >= wave.count)
                    break;
                const std::size_t end =
                    std::min(start + wave.chunk, wave.count);
                // Positions before `fresh` are timed; the rest carry
                // stored latencies and only need the predicate.
                const std::size_t split = std::clamp(wave.fresh, start, end);
                if (split > start) {
                    evaluateChunk(wave.plan, start, split - start,
                                  wave.indices, wave.scope.params, cs, sink);
                }
                for (std::size_t pos = split; pos < end; ++pos) {
                    PointSample &s = wave.out[pos];
                    if (!wave.predicate) {
                        s.kept = true;
                        continue;
                    }
                    wave.plan.point(wave.indices[pos], &cs.cfg);
                    fillStaticFields(cs.cfg, &cs.design);
                    cs.design.ttftS = s.ttftS;
                    cs.design.tbtS = s.tbtS;
                    s.kept = wave.predicate(cs.design);
                }
            }
        },
        1);
    wave.scope.report();
}

std::vector<EvaluatedDesign>
filterReticle(const std::vector<EvaluatedDesign> &designs)
{
    std::vector<EvaluatedDesign> out;
    for (const EvaluatedDesign &d : designs) {
        if (d.underReticle)
            out.push_back(d);
    }
    return out;
}

std::vector<EvaluatedDesign>
filterReticle(std::vector<EvaluatedDesign> &&designs)
{
    designs.erase(std::remove_if(designs.begin(), designs.end(),
                                 [](const EvaluatedDesign &d) {
                                     return !d.underReticle;
                                 }),
                  designs.end());
    return std::move(designs);
}

std::vector<EvaluatedDesign>
filterOct2023Unregulated(const std::vector<EvaluatedDesign> &designs)
{
    const obs::TraceSpan span("dse.filterOct2023");
    obs::counterAdd("policy.classified.oct2023", designs.size());
    std::vector<EvaluatedDesign> out;
    for (const EvaluatedDesign &d : designs) {
        if (d.oct2023Unregulated())
            out.push_back(d);
    }
    obs::counterAdd("policy.unregulated.oct2023", out.size());
    return out;
}

std::vector<EvaluatedDesign>
filterOct2023Unregulated(std::vector<EvaluatedDesign> &&designs)
{
    const obs::TraceSpan span("dse.filterOct2023");
    obs::counterAdd("policy.classified.oct2023", designs.size());
    designs.erase(
        std::remove_if(designs.begin(), designs.end(),
                       [](const EvaluatedDesign &d) {
                           return !d.oct2023Unregulated();
                       }),
        designs.end());
    obs::counterAdd("policy.unregulated.oct2023", designs.size());
    return std::move(designs);
}

const EvaluatedDesign &
minTtft(const std::vector<EvaluatedDesign> &designs)
{
    fatalIf(designs.empty(), "minTtft: empty design set");
    return *std::min_element(designs.begin(), designs.end(),
                             [](const EvaluatedDesign &a,
                                const EvaluatedDesign &b) {
                                 return a.ttftS < b.ttftS;
                             });
}

const EvaluatedDesign &
minTbt(const std::vector<EvaluatedDesign> &designs)
{
    fatalIf(designs.empty(), "minTbt: empty design set");
    return *std::min_element(designs.begin(), designs.end(),
                             [](const EvaluatedDesign &a,
                                const EvaluatedDesign &b) {
                                 return a.tbtS < b.tbtS;
                             });
}

} // namespace dse
} // namespace acs
