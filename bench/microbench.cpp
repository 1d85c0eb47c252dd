/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot paths: one
 * design evaluation, a full Table-3 sweep, and rule classification —
 * plus a sweep-throughput section (--dse / --dse-only) comparing the
 * legacy per-batch-thread pipeline against the shared-pool and
 * streaming paths and the adaptive coarse-to-fine engine, emitting
 * results/BENCH_dse.json, and a GEMM-mode
 * section (--gemm / --gemm-only) comparing TILE_SIM sweep evaluation
 * under the aggregated fast path vs the per-tile wave walk reference,
 * emitting results/BENCH_gemm.json, a cycle-level section
 * (--cycle / --cycle-only) comparing the event-coalesced CYCLE_SIM
 * engine (with tile-class replay) against the naive per-cycle tick
 * reference and timing a GemmCache-warm fig06-scale
 * cycle-mode sweep, emitting results/BENCH_cycle.json, and a
 * serving-simulator section
 * (--sim / --sim-only) replaying a trace-scale diurnal request stream
 * through the fast path (calendar queue, flat memos, streaming
 * histograms) vs the legacy path (binary heap, map memos, sort-based
 * rollups), emitting results/BENCH_sim.json, and a policy
 * co-evolution section (--coevo / --coevo-only) timing full
 * regulator-vs-designer arms races for both mechanisms, emitting
 * results/BENCH_coevo.json (designer best-responses/s,
 * evaluated fraction, rounds to fixed point).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coevo/arms_race.hh"
#include "common/thread_pool.hh"
#include "core/acs.hh"
#include "perf/gemm_cache.hh"

using namespace acs;

namespace {

void
BM_EvaluateDesign(benchmark::State &state)
{
    const core::SanctionsStudy study;
    const core::Workload workload = core::gpt3Workload();
    const dse::DesignEvaluator evaluator(workload.model,
                                         workload.setting,
                                         workload.system);
    const hw::HardwareConfig cfg = hw::modeledA100();
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluator.evaluate(cfg));
    }
}
BENCHMARK(BM_EvaluateDesign);

void
BM_Table3Sweep(benchmark::State &state)
{
    const core::SanctionsStudy study;
    const core::Workload workload = core::gpt3Workload();
    const dse::SweepSpace space =
        dse::table3Space(4800.0, {600.0 * units::GBPS});
    for (auto _ : state) {
        benchmark::DoNotOptimize(study.runSweep(space, workload));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(space.size()));
}
BENCHMARK(BM_Table3Sweep);

void
BM_ClassifyDatabase(benchmark::State &state)
{
    const devices::Database db;
    const auto specs = db.allSpecs();
    for (auto _ : state) {
        for (const auto &spec : specs) {
            benchmark::DoNotOptimize(
                policy::Oct2023Rule::classify(spec));
        }
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_ClassifyDatabase);

void
BM_PrefillGraphBuild(benchmark::State &state)
{
    const auto cfg = model::gpt3_175b();
    const model::InferenceSetting setting;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model::buildPrefillGraph(cfg, setting, 4));
    }
}
BENCHMARK(BM_PrefillGraphBuild);

// ---- DSE sweep throughput (designs/second) ---------------------------------

/**
 * The seed implementation formatted every validation message eagerly
 * (fourteen string concatenations per validate() call, several calls
 * per design); reproduce that cost so the legacy baseline reflects
 * what the pre-optimization pipeline actually spent.
 */
void
legacyEagerValidate(const hw::HardwareConfig &cfg)
{
    volatile std::size_t sink = 0;
    for (const char *suffix :
         {": coreCount must be >= 1", ": lanesPerCore must be >= 1",
          ": systolic array dims must be >= 1",
          ": vectorWidth must be >= 1", ": clockHz must be > 0",
          ": opBitwidth must be >= 1", ": L1 size must be > 0",
          ": L2 size must be > 0", ": HBM capacity must be > 0",
          ": HBM bandwidth must be > 0", ": PHY count must be >= 0",
          ": PHY bandwidth must be >= 0",
          ": diesPerPackage must be >= 1"}) {
        sink = sink + (cfg.name + suffix).size();
    }
}

/**
 * Reconstruction of the pre-optimization evaluate(): layer graphs
 * rebuilt for every design, the performance density recomputed from a
 * second full area breakdown, eager validation-message formatting at
 * every model construction, and VectorModel's former throwaway inner
 * MatmulModel (it built one just to read the global-buffer
 * bandwidth). The seed also ran without the op-shape memo; the memo is
 * no longer optional, so this baseline runs with it and understates
 * the seed's cost.
 */
dse::EvaluatedDesign
legacyEvaluate(const hw::HardwareConfig &cfg, const core::Workload &w,
               const area::AreaModel &area_model,
               const area::CostModel &cost_model,
               const perf::PerfParams &params)
{
    // Simulator ctor + 3 model ctors + inner MatmulModel + area
    // breakdown each validated eagerly in the seed.
    for (int i = 0; i < 6; ++i)
        legacyEagerValidate(cfg);
    const perf::MatmulModel throwaway(cfg, params);
    benchmark::DoNotOptimize(throwaway.globalBufferBandwidth());

    dse::EvaluatedDesign d;
    d.config = cfg;
    d.tpp = cfg.tpp();
    d.dieAreaMm2 = area_model.dieArea(cfg);
    d.perfDensity = area_model.perfDensity(cfg);
    d.underReticle = d.dieAreaMm2 <= area::RETICLE_LIMIT_MM2;
    if (cost_model.diesPerWafer(d.dieAreaMm2) > 0) {
        d.dieCostUsd = cost_model.dieCostUsd(d.dieAreaMm2, cfg.process);
        d.goodDieCostUsd =
            cost_model.goodDieCostUsd(d.dieAreaMm2, cfg.process);
    }
    const perf::InferenceSimulator sim(cfg, params);
    const perf::InferenceResult result =
        sim.run(w.model, w.setting, w.system);
    d.ttftS = result.ttftS;
    d.tbtS = result.tbtS;
    return d;
}

/** Legacy parallel batch: a fresh std::thread crew per call. */
std::vector<dse::EvaluatedDesign>
legacyEvaluateAllParallel(const std::vector<hw::HardwareConfig> &cfgs,
                          const core::Workload &w, unsigned threads)
{
    const perf::PerfParams params;
    const area::AreaModel area_model;
    const area::CostModel cost_model;
    std::vector<dse::EvaluatedDesign> out(cfgs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < cfgs.size();
             i = next.fetch_add(1)) {
            out[i] = legacyEvaluate(cfgs[i], w, area_model, cost_model,
                                    params);
        }
    };
    std::vector<std::thread> crew;
    crew.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        crew.emplace_back(worker);
    for (std::thread &t : crew)
        t.join();
    return out;
}

/** Best designs/second over @p reps repetitions of @p run. */
template <typename Fn>
double
bestThroughput(std::size_t designs, int reps, Fn &&run)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        best = std::max(best, designs / s);
    }
    return best;
}

void
runDseThroughput(int reps)
{
    // The Fig. 6 space and workload: GPT-3 175B, TPP 4800, 600 GB/s.
    const core::Workload workload = core::gpt3Workload();
    const dse::SweepSpace space =
        dse::table3Space(4800.0, {600.0 * units::GBPS});
    const auto cfgs = space.generate();
    const dse::DesignEvaluator evaluator(workload.model,
                                         workload.setting,
                                         workload.system);
    constexpr unsigned THREADS = 8;

    std::cout << "\nDSE sweep throughput (fig06 space, "
              << cfgs.size() << " designs, " << THREADS
              << " threads, best of " << reps << ")\n";

    // Each row times the full pipeline from the SweepSpace, which is
    // what core::SanctionsStudy::runSweep pays: the materializing rows
    // include generate(), the streaming row fuses point-building into
    // its workers.
    const double legacy = bestThroughput(cfgs.size(), reps, [&] {
        legacyEvaluateAllParallel(space.generate(), workload, THREADS);
    });
    const double serial = bestThroughput(cfgs.size(), reps, [&] {
        evaluator.evaluateAll(space.generate());
    });
    const double pooled = bestThroughput(cfgs.size(), reps, [&] {
        evaluator.evaluateAllParallel(space.generate(), THREADS);
    });
    const double streaming = bestThroughput(cfgs.size(), reps, [&] {
        evaluator.evaluateStream(space, nullptr, nullptr, THREADS);
    });

    // Adaptive coarse-to-fine search (docs/DSE.md) over the fine
    // space: the rate is EFFECTIVE designs/second — space covered per
    // wall-clock second — because the engine prunes instead of
    // evaluating every point. fractionEvaluated reports how much it
    // actually computed.
    const dse::SweepSpace fine = dse::fineSpace();
    dse::AdaptiveConfig acfg;
    acfg.threads = THREADS;
    dse::AdaptiveResult adaptive_res;
    const double adaptive =
        bestThroughput(dse::SweepPlan(fine).pointCount(), reps, [&] {
            dse::AdaptiveSearch search(evaluator, fine, acfg);
            adaptive_res = search.run();
        });

    const auto row = [](const char *name, double v, double base) {
        std::cout << "  " << name << ": " << static_cast<long>(v)
                  << " designs/s (" << v / base << "x legacy)\n";
    };
    row("legacy   ", legacy, legacy);
    row("serial   ", serial, legacy);
    row("pooled   ", pooled, legacy);
    row("streaming", streaming, legacy);
    std::cout << "  adaptive : " << static_cast<long>(adaptive)
              << " effective designs/s ("
              << adaptive / streaming << "x streaming; fine space, "
              << adaptive_res.evaluated << " of "
              << adaptive_res.spacePoints << " evaluated)\n";

    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::ofstream out("results/BENCH_dse.json");
    out << "{\n"
        << "  \"space\": \"table3/fig06\",\n"
        << "  \"designs\": " << cfgs.size() << ",\n"
        << "  \"threads\": " << THREADS << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"legacy_designs_per_s\": " << legacy << ",\n"
        << "  \"serial_designs_per_s\": " << serial << ",\n"
        << "  \"pooled_designs_per_s\": " << pooled << ",\n"
        << "  \"streaming_designs_per_s\": " << streaming << ",\n"
        << "  \"pooled_speedup_vs_legacy\": " << pooled / legacy
        << ",\n"
        << "  \"streaming_speedup_vs_legacy\": " << streaming / legacy
        << ",\n"
        << "  \"adaptive_space\": \"fine\",\n"
        << "  \"adaptive_space_designs\": "
        << adaptive_res.spacePoints << ",\n"
        << "  \"adaptive_evaluated\": " << adaptive_res.evaluated
        << ",\n"
        << "  \"fraction_evaluated\": "
        << adaptive_res.fractionEvaluated << ",\n"
        << "  \"frontier_size\": " << adaptive_res.frontier.size()
        << ",\n"
        << "  \"adaptive_designs_per_s\": " << adaptive << ",\n"
        << "  \"adaptive_speedup_vs_streaming\": "
        << adaptive / streaming << "\n"
        << "}\n";
    std::cout << "[json] results/BENCH_dse.json\n";
}

// ---- TILE_SIM GEMM-mode throughput -----------------------------------------

/**
 * Designs/second for full TILE_SIM-mode sweep evaluation on the
 * Fig. 6 space: the aggregated wave-class fast path vs the per-tile
 * walk reference (plus the analytic mode for scale). The walk row
 * runs simulateGemmWalk over every distinct GEMM shape of each
 * design's prefill and decode graphs — the GEMM work a TILE_SIM
 * sweep does per design behind its op-shape memo — on the same pool
 * and thread count; it skips the (cheap) vector, collective and area
 * models, so its rate is an upper bound for a walk-backed sweep. The
 * walk and the aggregated engine are bit-identical
 * (tests/test_gemm_property.cpp), so the ratio is pure
 * implementation cost.
 *
 * The cached row measures the steady state of a session-scoped
 * perf::GemmCache installed through PerfParams::gemmCache: the cache
 * persists across repetitions, so after the warm-up rep every GEMM is
 * a hit and the sweep pays only key derivation plus the non-GEMM
 * models. That is the cost profile of the sweep drivers' own hoisted
 * per-sweep cache on any space with a populated comm-only axis (the
 * fig06 space has a single deviceBandwidth, so its within-sweep reuse
 * comes only from design pairs that share a compute projection).
 */
void
runGemmThroughput(int reps)
{
    const core::Workload workload = core::gpt3Workload();
    const dse::SweepSpace space =
        dse::table3Space(4800.0, {600.0 * units::GBPS});
    const auto cfgs = space.generate();
    constexpr unsigned THREADS = 8;

    perf::PerfParams analytic_params;
    perf::PerfParams fast_params;
    fast_params.gemmMode = perf::GemmMode::TILE_SIM;
    // The uncached rows measure pure engine cost: without this the
    // evaluator's default hoisted per-sweep cache (cacheTileSimGemms)
    // would fold cross-design reuse into them and the cached row's
    // speedup would be measured against a partially cached baseline.
    fast_params.cacheTileSimGemms = false;
    perf::GemmCache session_cache;
    perf::PerfParams cached_params = fast_params;
    cached_params.gemmCache = &session_cache;

    const dse::DesignEvaluator analytic(workload.model, workload.setting,
                                        workload.system, analytic_params);
    const dse::DesignEvaluator fast(workload.model, workload.setting,
                                    workload.system, fast_params);
    const dse::DesignEvaluator cached(workload.model, workload.setting,
                                      workload.system, cached_params);

    std::cout << "\nGEMM-mode sweep throughput (fig06 space, "
              << cfgs.size() << " designs, " << THREADS
              << " threads, best of " << reps << ")\n";

    // The distinct GEMM shapes of one design's run (op-shape memo
    // semantics: one timing per shape across both phases).
    std::vector<model::Op> gemms;
    for (const model::LayerGraph *graph :
         {&analytic.prefillGraph(), &analytic.decodeGraph()}) {
        for (const model::Op &op : graph->ops) {
            if (op.kind == model::OpKind::MATMUL &&
                std::none_of(gemms.begin(), gemms.end(),
                             [&](const model::Op &seen) {
                                 return perf::sameOpShape(seen, op);
                             }))
                gemms.push_back(op);
        }
    }
    const double legacy_walk = bestThroughput(cfgs.size(), reps, [&] {
        std::atomic<std::size_t> next{0};
        common::ThreadPool::shared().parallelFor(
            THREADS,
            [&](std::size_t) {
                for (std::size_t i = next.fetch_add(1); i < cfgs.size();
                     i = next.fetch_add(1)) {
                    for (const model::Op &op : gemms)
                        benchmark::DoNotOptimize(perf::simulateGemmWalk(
                            cfgs[i], op, fast_params));
                }
            },
            1);
    });
    const double aggregated = bestThroughput(cfgs.size(), reps, [&] {
        fast.evaluateAllParallel(cfgs, THREADS);
    });
    // Warm the session cache outside the timed reps so even a
    // single-rep run (--dse-reps=1) reports the steady state.
    cached.evaluateAllParallel(cfgs, THREADS);
    const double cached_mode = bestThroughput(cfgs.size(), reps, [&] {
        cached.evaluateAllParallel(cfgs, THREADS);
    });
    const perf::GemmCache::Stats cache_stats = session_cache.stats();
    const double analytic_mode = bestThroughput(cfgs.size(), reps, [&] {
        analytic.evaluateAllParallel(cfgs, THREADS);
    });

    const auto row = [&](const char *name, double v) {
        std::cout << "  " << name << ": " << static_cast<long>(v)
                  << " designs/s (" << v / legacy_walk
                  << "x legacy walk)\n";
    };
    row("tile_sim legacy walk", legacy_walk);
    row("tile_sim aggregated ", aggregated);
    row("tile_sim cached     ", cached_mode);
    row("analytic            ", analytic_mode);
    std::cout << "  gemm cache: " << cache_stats.entries << " entries, "
              << cache_stats.hits << " hits / " << cache_stats.misses
              << " misses (hit rate " << cache_stats.hitRate() << ")\n";

    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::ofstream out("results/BENCH_gemm.json");
    out << "{\n"
        << "  \"space\": \"table3/fig06\",\n"
        << "  \"designs\": " << cfgs.size() << ",\n"
        << "  \"threads\": " << THREADS << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"tile_sim_legacy_walk_designs_per_s\": " << legacy_walk
        << ",\n"
        << "  \"tile_sim_aggregated_designs_per_s\": " << aggregated
        << ",\n"
        << "  \"tile_sim_cached_designs_per_s\": " << cached_mode
        << ",\n"
        << "  \"analytic_designs_per_s\": " << analytic_mode << ",\n"
        << "  \"aggregated_speedup_vs_legacy_walk\": "
        << aggregated / legacy_walk << ",\n"
        << "  \"cached_speedup_vs_aggregated\": "
        << cached_mode / aggregated << ",\n"
        << "  \"gemm_cache_hit_rate\": " << cache_stats.hitRate()
        << "\n"
        << "}\n";
    std::cout << "[json] results/BENCH_gemm.json\n";
}

// ---- CYCLE_SIM throughput --------------------------------------------------

/**
 * The two speed claims behind the cycle-level backend (docs/PERF.md):
 *
 *  1. Per-GEMM, the event-coalesced engine (with tile-class replay)
 *     must beat the naive per-cycle tick reference
 *     (simulateGemmCyclesTick) by a wide
 *     margin on representative llama-shaped GEMMs — the randomized
 *     property suite in tests/test_cycle_sim.cpp proves the two are
 *     bit-identical, so this measures pure implementation cost. The
 *     compare_bench.py bar is >= 10x; the shapes below sit around
 *     530-620x (4-vCPU 2.0 GHz Xeon, gcc 12.2, Release).
 *
 *  2. Per-sweep, CYCLE_SIM must stay tractable on a fig06-scale
 *     space through the session perf::GemmCache (mode-aware key):
 *     after one cold pass every repeated (config, GEMM) pair is a
 *     hit, so the warm rate approaches the non-GEMM evaluation cost.
 *     The cold rate is also reported; replay is what keeps it usable.
 */
void
runCycleThroughput(int reps)
{
    const hw::HardwareConfig cfg = hw::modeledA100();

    // Representative GEMM shapes (llama 3 8B TP=1): decode
    // projections, a prefill block, and a batched decode attention
    // score. Small enough that the naive tick engine finishes in CI,
    // large enough that coalescing and replay both engage.
    const auto shape = [](long m, long n, long k, long batch) {
        model::Op op;
        op.name = "bench-gemm";
        op.kind = model::OpKind::MATMUL;
        op.mm = {m, n, k, batch, true};
        op.flops = 2.0 * batch * m * n * k;
        op.weightBytes = 2.0 * batch * k * n;
        op.inputBytes = 2.0 * batch * m * k;
        op.outputBytes = 2.0 * batch * m * n;
        return op;
    };
    const std::vector<model::Op> shapes = {
        shape(32, 6144, 4096, 1),     // decode qkv-proj
        shape(32, 4096, 14336, 1),    // decode ffn-down
        shape(32, 28672, 4096, 1),    // decode ffn-gate-up
        shape(2048, 4096, 4096, 1),   // prefill block
        shape(1, 2560, 128, 1024),    // batched decode attn-score
    };

    perf::PerfParams coalesced_params;
    coalesced_params.gemmMode = perf::GemmMode::CYCLE_SIM;

    std::cout << "\nCYCLE_SIM engine throughput (" << shapes.size()
              << " GEMM shapes, best of " << reps << ")\n";

    const double naive = bestThroughput(shapes.size(), reps, [&] {
        for (const model::Op &op : shapes)
            benchmark::DoNotOptimize(
                perf::simulateGemmCyclesTick(cfg, op, coalesced_params));
    });
    const double coalesced = bestThroughput(shapes.size(), reps, [&] {
        for (const model::Op &op : shapes)
            benchmark::DoNotOptimize(
                perf::simulateGemmCycles(cfg, op, coalesced_params));
    });
    std::int64_t total_tiles = 0;
    std::int64_t replayed_tiles = 0;
    for (const model::Op &op : shapes) {
        const perf::CycleStats st =
            perf::simulateGemmCycles(cfg, op, coalesced_params);
        total_tiles += st.totalTiles;
        replayed_tiles += st.replayedTiles;
    }
    const double replay_fraction =
        total_tiles > 0
            ? static_cast<double>(replayed_tiles) / total_tiles
            : 0.0;

    // Fig06-scale cycle-mode sweep on the cheapest workload (llama 3
    // 8B TP=1): a subset of the space keeps the cold warm-up pass
    // inside the CI budget; the cached rate is the steady state a
    // full-space sweep pays per design once the session cache is hot.
    const core::Workload workload = core::llamaWorkload();
    auto cfgs =
        dse::table3Space(4800.0, {600.0 * units::GBPS}).generate();
    cfgs.resize(std::min<std::size_t>(cfgs.size(), 32));
    constexpr unsigned THREADS = 8;

    perf::GemmCache session_cache;
    perf::PerfParams cycle_params = coalesced_params;
    cycle_params.gemmCache = &session_cache;
    perf::SystemConfig system = workload.system;
    system.tensorParallel = 1;
    const dse::DesignEvaluator cycle(workload.model, workload.setting,
                                     system, cycle_params);

    // The cold pass doubles as cache warm-up, so even --dse-reps=1
    // reports the steady state for the cached row.
    const double cold = bestThroughput(cfgs.size(), 1, [&] {
        cycle.evaluateAllParallel(cfgs, THREADS);
    });
    const double cached = bestThroughput(cfgs.size(), reps, [&] {
        cycle.evaluateAllParallel(cfgs, THREADS);
    });
    const perf::GemmCache::Stats cache_stats = session_cache.stats();

    std::cout << "  naive tick    : " << naive << " gemms/s\n"
              << "  coalesced     : " << coalesced << " gemms/s ("
              << coalesced / naive << "x naive)\n"
              << "  replayed tiles: " << replay_fraction
              << " of " << total_tiles << "\n"
              << "  sweep cold    : " << cold << " designs/s ("
              << cfgs.size() << " designs, " << THREADS
              << " threads)\n"
              << "  sweep cached  : " << cached << " designs/s\n"
              << "  gemm cache    : " << cache_stats.entries
              << " entries, " << cache_stats.hits << " hits / "
              << cache_stats.misses << " misses (hit rate "
              << cache_stats.hitRate() << ")\n";

    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::ofstream out("results/BENCH_cycle.json");
    out << "{\n"
        << "  \"space\": \"table3/fig06 subset\",\n"
        << "  \"designs\": " << cfgs.size() << ",\n"
        << "  \"gemm_shapes\": " << shapes.size() << ",\n"
        << "  \"threads\": " << THREADS << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"naive_gemms_per_s\": " << naive << ",\n"
        << "  \"coalesced_gemms_per_s\": " << coalesced << ",\n"
        << "  \"coalesced_speedup_vs_naive\": " << coalesced / naive
        << ",\n"
        << "  \"replayed_tile_fraction\": " << replay_fraction << ",\n"
        << "  \"cycle_cold_designs_per_s\": " << cold << ",\n"
        << "  \"cycle_cached_designs_per_s\": " << cached << ",\n"
        << "  \"cached_speedup_vs_cold\": " << cached / cold << ",\n"
        << "  \"gemm_cache_hit_rate\": " << cache_stats.hitRate()
        << "\n"
        << "}\n";
    std::cout << "[json] results/BENCH_cycle.json\n";
}

// ---- Serving-simulator trace-scale throughput ------------------------------

/**
 * Engine-independent digest of one replica run: the counters and
 * streaming histograms simulateReplica populates regardless of the
 * record switches, printed with full double precision. The fast row
 * (calendar queue, flat memos, recording off) and the legacy row
 * (binary heap, mutex+map memos, recording on) must produce the same
 * string — that is the fingerprint_match gate in BENCH_sim.json.
 */
std::string
replicaFingerprint(const sim::ReplicaMetrics &m)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << m.arrivals << ' ' << m.completed << ' '
        << m.prefillIterations << ' ' << m.decodeIterations << ' '
        << m.generatedTokens << ' ' << m.lastEventS;
    out << " ttft " << m.ttftHist.count << ' ' << m.ttftHist.sumS
        << ' ' << m.ttftHist.maxS;
    for (std::uint64_t b : m.ttftHist.buckets)
        out << ' ' << b;
    out << " tbt " << m.tbtHist.count << ' ' << m.tbtHist.sumS << ' '
        << m.tbtHist.maxS;
    for (std::uint64_t b : m.tbtHist.buckets)
        out << ' ' << b;
    out << " depth " << m.queueDepth.maxDepth << ' '
        << m.queueDepth.samples;
    for (std::uint64_t b : m.queueDepth.buckets)
        out << ' ' << b;
    return out.str();
}

/**
 * Requests/second through one replica replaying a diurnal trace of
 * roughly @p requests requests, legacy path vs fast path.
 *
 * The legacy row reproduces the seed configuration end to end:
 * binary-heap event queue, mutex-protected map memos, every request
 * record and decode gap kept, and percentiles extracted by the
 * sort-based LatencyRollup — at a million requests that is ~10^8
 * stored gaps, gigabyte-scale vector growth, and an O(n log n) sort
 * per rollup. The fast row is the trace-scale path: calendar queue,
 * lock-free flat memos, recording off (O(1) memory), streaming
 * histogram percentiles. Both rows must agree on the engine-
 * independent fingerprint above; the speedup is the headline number
 * scripts/compare_bench.py gates (>= 10x).
 */
void
runSimThroughput(int reps, long requests)
{
    const core::SanctionsStudy study;
    // Same workload/device as the serving benches: Llama-3 70B at
    // TP=4 on the modeled A100.
    core::Workload workload = core::workloadByName("llama70b");
    workload.setting.batch = 32;
    const sim::IterationCostModel fast_cost =
        study.makeCostModel(hw::modeledA100(), workload);
    const sim::IterationCostModel legacy_cost = study.makeCostModel(
        hw::modeledA100(), workload, sim::MemoEngine::LEGACY_MAP);

    // Offer ~55% of the replica's decode-bound capacity on average:
    // prefill interference eats part of that bound, so the diurnal
    // peaks and bursts transiently oversubscribe the replica (queues
    // build and drain) while the mean keeps the run stable.
    const double capacity =
        32.0 / fast_cost.decodeStepS(32) / 128.0; // 128 = mean output
    sim::DiurnalTraceSpec spec;
    spec.baseRatePerS = 0.55 * capacity;
    spec.peakToTrough = 3.0;
    spec.burstMultiplier = 2.0;
    spec.burstMeanS = 30.0;
    spec.calmMeanS = 300.0;
    spec.promptLen = sim::LengthDistribution::fixed(512);
    spec.outputLen = sim::LengthDistribution::uniform(64, 192, 32);
    spec.horizonS = static_cast<double>(requests) / spec.baseRatePerS;
    spec.periodS = spec.horizonS / 4.0; // four diurnal cycles
    spec.seed = 2026;

    struct SimRow
    {
        double simS = 0.0;     //!< event-loop wall time
        double extractS = 0.0; //!< percentile-extraction wall time
        double ttftP99S = 0.0;
        double tbtP99S = 0.0;
        std::string fingerprint;
        sim::ReplicaMetrics metrics;
    };
    const auto run_once = [&](const sim::IterationCostModel &cost,
                              sim::QueueEngine engine, bool record) {
        SimRow row;
        auto trace = sim::TraceWorkload::diurnal(spec);
        sim::ReplicaConfig rc;
        rc.scheduler.queueEngine = engine;
        rc.recordRequests = record;
        rc.recordTbtGaps = record;
        auto start = std::chrono::steady_clock::now();
        row.metrics = sim::simulateReplica(cost, rc, *trace);
        row.simS = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        start = std::chrono::steady_clock::now();
        if (record) {
            // The seed's extraction: sort-based order statistics over
            // every request / gap.
            row.ttftP99S = row.metrics.ttft().p99S;
            row.tbtP99S = row.metrics.tbt().p99S;
        } else {
            row.ttftP99S = row.metrics.ttftHist.percentileS(99.0);
            row.tbtP99S = row.metrics.tbtHist.percentileS(99.0);
        }
        row.extractS = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        row.fingerprint = replicaFingerprint(row.metrics);
        return row;
    };

    std::cout << "\nServing-simulator throughput (diurnal trace, ~"
              << requests << " requests, best of " << reps << ")\n";

    SimRow legacy;
    SimRow fast;
    double legacy_rate = 0.0;
    double fast_rate = 0.0;
    for (int r = 0; r < reps; ++r) {
        SimRow l = run_once(legacy_cost,
                            sim::QueueEngine::LEGACY_HEAP, true);
        SimRow f =
            run_once(fast_cost, sim::QueueEngine::CALENDAR, false);
        fatalIf(l.fingerprint != f.fingerprint,
                "fast-path replica metrics diverged from the legacy "
                "path (fingerprint mismatch)");
        const double lr = static_cast<double>(l.metrics.completed) /
                          (l.simS + l.extractS);
        const double fr = static_cast<double>(f.metrics.completed) /
                          (f.simS + f.extractS);
        if (lr > legacy_rate) {
            legacy_rate = lr;
            legacy = std::move(l);
        }
        if (fr > fast_rate) {
            fast_rate = fr;
            fast = std::move(f);
        }
    }
    const double speedup = fast_rate / legacy_rate;
    const double events =
        static_cast<double>(fast.metrics.arrivals) +
        static_cast<double>(fast.metrics.prefillIterations) +
        static_cast<double>(fast.metrics.decodeIterations);
    const double events_per_s =
        events / (fast.simS + fast.extractS);
    const double tokens_per_s =
        static_cast<double>(fast.metrics.generatedTokens) /
        (fast.simS + fast.extractS);

    std::cout << "  legacy (heap+map, recording, sort rollups): "
              << static_cast<long>(legacy_rate) << " requests/s ("
              << legacy.simS + legacy.extractS << " s)\n"
              << "  fast (calendar+flat, histograms)          : "
              << static_cast<long>(fast_rate) << " requests/s ("
              << fast.simS + fast.extractS << " s, " << speedup
              << "x legacy)\n"
              << "  fast event rate: "
              << static_cast<long>(events_per_s) << " events/s, "
              << static_cast<long>(tokens_per_s) << " tokens/s\n"
              << "  p99 ttft " << fast.ttftP99S << " s (legacy "
              << legacy.ttftP99S << "), p99 tbt " << fast.tbtP99S
              << " s (legacy " << legacy.tbtP99S << ")\n";

    // Fleet sizing on the shared flat memo: the searches' replicas
    // all hit one read-mostly table, so the whole plan costs a
    // handful of cold lattice evaluations.
    sim::FleetDemand demand;
    demand.ratePerS = 4.0;
    demand.promptLen = sim::LengthDistribution::fixed(512);
    demand.outputLen = sim::LengthDistribution::fixed(128);
    demand.horizonS = 180.0;
    demand.seed = 2026;
    sim::SloTargets targets;
    targets.ttftMaxS = 5.0;
    targets.tbtMaxS = 0.200;
    const auto size_start = std::chrono::steady_clock::now();
    const sim::FleetSizingResult sized = sim::sizeFleet(
        fast_cost, demand, sim::SchedulerConfig{}, targets, 512);
    const double size_wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - size_start)
            .count();
    std::cout << "  sizeFleet: " << sized.replicas << " replicas in "
              << size_wall << " s (" << sized.probes << " probes)\n";

    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::ofstream out("results/BENCH_sim.json");
    out << "{\n"
        << "  \"workload\": \"llama70b-tp4 on modeled A100\",\n"
        << "  \"trace\": \"diurnal\",\n"
        << "  \"trace_requests\": " << fast.metrics.completed
        << ",\n"
        << "  \"trace_tokens\": " << fast.metrics.generatedTokens
        << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"legacy_requests_per_s\": " << legacy_rate << ",\n"
        << "  \"fast_requests_per_s\": " << fast_rate << ",\n"
        << "  \"fast_speedup_vs_legacy\": " << speedup << ",\n"
        << "  \"fast_events_per_s\": " << events_per_s << ",\n"
        << "  \"fast_tokens_per_s\": " << tokens_per_s << ",\n"
        << "  \"legacy_wall_s\": " << legacy.simS + legacy.extractS
        << ",\n"
        << "  \"fast_wall_s\": " << fast.simS + fast.extractS
        << ",\n"
        << "  \"size_fleet_wall_s\": " << size_wall << ",\n"
        << "  \"size_fleet_replicas\": " << sized.replicas << ",\n"
        << "  \"size_fleet_probes\": " << sized.probes << ",\n"
        << "  \"fingerprint_match\": 1\n"
        << "}\n";
    std::cout << "[json] results/BENCH_sim.json\n";
}

// ---- Policy co-evolution throughput ----------------------------------------

/**
 * The speed claim behind the arms race: a designer best response is
 * an AdaptiveSearch over the whole escape portfolio (five sub-spaces,
 * ~190k raw points under the canonical rule), so a multi-round,
 * multi-budget frontier stays interactive only because the adaptive
 * engine evaluates a small fraction of each space and the race memoizes
 * repeated rules. Each rep times a *fresh* ArmsRace (cold memo, cold
 * reference) running the full default race for both mechanisms;
 * best-responses/s counts distinct designer oracles computed.
 */
void
runCoevoThroughput(int reps)
{
    coevo::ArmsRaceConfig cfg;
    cfg.rounds = 8;
    cfg.collateralBudget = 0.10;

    std::cout << "\nPolicy co-evolution throughput (" << cfg.rounds
              << " rounds, budget " << cfg.collateralBudget
              << ", best of " << reps << ")\n";

    double best_rate = 0.0;
    coevo::ArmsRaceResult thr, fw;
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        cfg.mechanism = coevo::Mechanism::THRESHOLD;
        coevo::ArmsRace threshold_race(cfg);
        thr = threshold_race.run();
        cfg.mechanism = coevo::Mechanism::FIRMWARE;
        coevo::ArmsRace firmware_race(cfg);
        fw = firmware_race.run();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        const std::size_t responses = thr.bestResponses + fw.bestResponses;
        best_rate = std::max(best_rate, responses / wall);
    }

    const std::size_t evaluated = thr.totalEvaluated + fw.totalEvaluated;
    const std::size_t points = thr.totalSpacePoints + fw.totalSpacePoints;
    const double fraction =
        points > 0 ? static_cast<double>(evaluated) / points : 0.0;
    // Visits that reached the perf kernels: each race keeps one search
    // per escape space, so re-classified points are not timed again.
    const std::size_t timed = thr.totalTimed + fw.totalTimed;
    const double timed_fraction =
        evaluated > 0 ? static_cast<double>(timed) / evaluated : 0.0;

    std::cout << "  best responses: " << best_rate << " /s ("
              << thr.bestResponses + fw.bestResponses
              << " distinct rules per race pair)\n"
              << "  evaluated     : " << evaluated << " of " << points
              << " space points (fraction " << fraction << ")\n"
              << "  timed         : " << timed << " of " << evaluated
              << " visits (fraction " << timed_fraction << ")\n"
              << "  fixed point   : threshold round "
              << thr.roundsToFixedPoint << ", firmware round "
              << fw.roundsToFixedPoint << "\n"
              << "  final escaped : threshold "
              << thr.rounds.back().designer.escapedPerf << ", firmware "
              << fw.rounds.back().designer.escapedPerf << "\n";

    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::ofstream out("results/BENCH_coevo.json");
    out << "{\n"
        << "  \"workload\": \"" << cfg.workload << "\",\n"
        << "  \"rounds\": " << cfg.rounds << ",\n"
        << "  \"collateral_budget\": " << cfg.collateralBudget << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"designer_best_responses_per_s\": " << best_rate << ",\n"
        << "  \"best_responses_per_race_pair\": "
        << thr.bestResponses + fw.bestResponses << ",\n"
        << "  \"evaluated_points\": " << evaluated << ",\n"
        << "  \"timed_points\": " << timed << ",\n"
        << "  \"timed_fraction\": " << timed_fraction << ",\n"
        << "  \"space_points\": " << points << ",\n"
        << "  \"fraction_evaluated\": " << fraction << ",\n"
        << "  \"threshold_rounds_to_fixed_point\": "
        << thr.roundsToFixedPoint << ",\n"
        << "  \"firmware_rounds_to_fixed_point\": "
        << fw.roundsToFixedPoint << ",\n"
        << "  \"threshold_final_escaped_perf\": "
        << thr.rounds.back().designer.escapedPerf << ",\n"
        << "  \"firmware_final_escaped_perf\": "
        << fw.rounds.back().designer.escapedPerf << "\n"
        << "}\n";
    std::cout << "[json] results/BENCH_coevo.json\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool dse = false;
    bool gemm = false;
    bool cycle = false;
    bool sim = false;
    bool coevo_bench = false;
    bool skip_micro = false;
    int reps = 3;
    long sim_requests = 1'000'000;
    std::vector<char *> bench_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dse") == 0) {
            dse = true;
        } else if (std::strcmp(argv[i], "--dse-only") == 0) {
            dse = skip_micro = true;
        } else if (std::strcmp(argv[i], "--gemm") == 0) {
            gemm = true;
        } else if (std::strcmp(argv[i], "--gemm-only") == 0) {
            gemm = skip_micro = true;
        } else if (std::strcmp(argv[i], "--cycle") == 0) {
            cycle = true;
        } else if (std::strcmp(argv[i], "--cycle-only") == 0) {
            cycle = skip_micro = true;
        } else if (std::strcmp(argv[i], "--sim") == 0) {
            sim = true;
        } else if (std::strcmp(argv[i], "--sim-only") == 0) {
            sim = skip_micro = true;
        } else if (std::strcmp(argv[i], "--coevo") == 0) {
            coevo_bench = true;
        } else if (std::strcmp(argv[i], "--coevo-only") == 0) {
            coevo_bench = skip_micro = true;
        } else if (std::strncmp(argv[i], "--sim-requests=", 15) == 0) {
            sim_requests = std::max(1000L, std::atol(argv[i] + 15));
        } else if (std::strncmp(argv[i], "--dse-reps=", 11) == 0) {
            reps = std::max(1, std::atoi(argv[i] + 11));
        } else {
            bench_argv.push_back(argv[i]);
        }
    }
    if (!skip_micro) {
        int bench_argc = static_cast<int>(bench_argv.size());
        benchmark::Initialize(&bench_argc, bench_argv.data());
        if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                                   bench_argv.data()))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    if (dse)
        runDseThroughput(reps);
    if (gemm)
        runGemmThroughput(reps);
    if (cycle)
        runCycleThroughput(reps);
    if (sim)
        runSimThroughput(reps, sim_requests);
    if (coevo_bench)
        runCoevoThroughput(reps);
    return 0;
}
