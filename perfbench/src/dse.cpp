/**
 * @file
 * Workload "dse": the compliant-optimum search, in three parts.
 *
 *  1. Exhaustive analytic evaluation: DesignEvaluator::evaluateStream
 *     over the paper's fig06/fig07 Table-3 spaces (argmins checked
 *     against the committed results/ CSVs) and evaluatePlanIndices over
 *     seeded contiguous windows of dse::fineSpace — contiguous so that
 *     outer-cell reuse and comm-only run lengths behave as in a real
 *     sweep — as single-threaded tasks over the shared pool.
 *  2. SanctionsStudy::runAdaptiveSweep on the fine space for
 *     {gpt3, llama} x {1600, 2400, 4800} TPP, the six searches as
 *     single-threaded tasks over the shared pool.
 *  3. A TILE_SIM Table-3 sweep (the fig06/fig07 spaces) through
 *     SanctionsStudy::runSweep, whose evaluator hoists a cold GemmCache
 *     per call, so cache inserts and hits both occur.
 *
 * Why: it loads the perf batch kernels, dse enumeration and pruning,
 * tile_sim and the GEMM cache, and almost no sim or cycle_sim work.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "core/study.hh"
#include "perf/batch_eval.hh"
#include "replay.hh"

namespace perfbench {
namespace {

using namespace acs;

/** A model under study: workload and its analytic evaluator. */
struct Model
{
    std::string label; //!< "gpt3" / "llama"
    std::string slug;  //!< results/*.csv file-name slug
    core::Workload workload;
    std::unique_ptr<dse::DesignEvaluator> evaluator;
};

/** One of the paper's Table-3 spaces (Figs. 6 and 7). */
struct TableSpace
{
    std::string figure; //!< "fig06" or "fig07_<tpp>"
    dse::SweepSpace space;
    std::unique_ptr<dse::SweepPlan> plan;
};

/** A seeded window of the fine space: [offset, offset + size). */
struct Window
{
    std::size_t model = 0;
    std::vector<std::size_t> indices;
};

/** Expected argmin design names read from a results CSV. */
struct CsvArgmin
{
    std::string bestTtft;
    std::string bestTbt;
};

/**
 * Min-TTFT / min-TBT names among under-reticle rows of a fig06/fig07
 * CSV (first row wins ties, like dse::minTtft over enumeration order).
 */
CsvArgmin
readCsvArgmin(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::string line;
    std::getline(in, line); // header
    CsvArgmin out;
    double best_ttft = INFINITY;
    double best_tbt = INFINITY;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::stringstream row(line);
        std::string cell;
        while (std::getline(row, cell, ','))
            f.push_back(cell);
        if (f.size() < 16)
            throw std::runtime_error("short row in " + path);
        if (f[14] != "1")
            continue;
        const double ttft = std::stod(f[12]);
        const double tbt = std::stod(f[13]);
        if (ttft < best_ttft) {
            best_ttft = ttft;
            out.bestTtft = f[0];
        }
        if (tbt < best_tbt) {
            best_tbt = tbt;
            out.bestTbt = f[0];
        }
    }
    return out;
}

/** Digest of a window's point samples (all exact). */
std::string
windowDigest(const Window &w, const dse::PointSample *s, std::size_t n)
{
    double sum_ttft = 0.0, sum_tbt = 0.0;
    std::size_t best_ttft = 0, best_tbt = 0, reticle = 0, na = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum_ttft += s[i].ttftS;
        sum_tbt += s[i].tbtS;
        if (s[i].ttftS < s[best_ttft].ttftS)
            best_ttft = i;
        if (s[i].tbtS < s[best_tbt].tbtS)
            best_tbt = i;
        reticle += s[i].underReticle;
        na += s[i].oct2023Unregulated;
    }
    return std::to_string(w.indices.front()) + " " + exact(sum_ttft) +
           " " + exact(sum_tbt) + " " +
           std::to_string(w.indices[best_ttft]) + " " +
           std::to_string(w.indices[best_tbt]) + " " +
           std::to_string(reticle) + " " + std::to_string(na);
}

std::string
argminText(const dse::EvaluatedDesign &d)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.3f %.5f", units::toMs(d.ttftS),
                  units::toMs(d.tbtS));
    return d.config.name + buf;
}

bool
keepReticle(const dse::EvaluatedDesign &d)
{
    return d.underReticle;
}

class DseWorkload final : public Workload
{
  public:
    explicit DseWorkload(const Options &opts) : opts_(opts) {}

    void
    setup() override
    {
        models_.clear();
        models_.push_back({"gpt3", "gpt_3_175b", core::gpt3Workload(), {}});
        models_.push_back({"llama", "llama_3_8b", core::llamaWorkload(), {}});
        for (Model &m : models_) {
            m.evaluator = std::make_unique<dse::DesignEvaluator>(
                m.workload.model, m.workload.setting, m.workload.system);
        }

        tables_.clear();
        tables_.push_back(
            {"fig06", dse::table3Space(4800.0, {600.0 * units::GBPS}), {}});
        for (const double tpp : {1600.0, 2400.0, 4800.0}) {
            tables_.push_back(
                {"fig07_" + std::to_string(static_cast<int>(tpp)) + "tpp",
                 dse::table3Space(tpp, {500.0 * units::GBPS,
                                        700.0 * units::GBPS,
                                        900.0 * units::GBPS}),
                 {}});
        }
        tableCfgs_.clear();
        for (TableSpace &t : tables_) {
            t.plan = std::make_unique<dse::SweepPlan>(t.space);
            tableCfgs_.push_back(t.space.generate());
        }

        fine_.clear();
        for (const double tpp : {1600.0, 2400.0, 4800.0})
            fine_.push_back(dse::fineSpace(tpp));
        finePlan_ = std::make_unique<dse::SweepPlan>(fine_.back());

        // Seeded contiguous windows of the 4800-TPP fine space,
        // alternating models.
        Rng rng(opts_.seed * 0x9e3779b97f4a7c15ULL + 3);
        const std::size_t count = opts_.tiny ? 2 : 12;
        const std::size_t size = opts_.tiny ? 512 : 32768;
        windows_.assign(count, {});
        for (std::size_t w = 0; w < count; ++w) {
            windows_[w].model = w % models_.size();
            const std::size_t start =
                rng.below(finePlan_->pointCount() - size);
            windows_[w].indices.resize(size);
            for (std::size_t i = 0; i < size; ++i)
                windows_[w].indices[i] = start + i;
        }
    }

    void
    run(Samples &samples, Outputs &out) override
    {
        // Part 1: exhaustive analytic evaluation. The windows and the
        // Table-3 streams are independent single-threaded tasks over
        // the shared pool, largest first, as a sharded sweep runs them.
        common::ThreadPool &workers = common::ThreadPool::shared();
        const std::size_t n_windows = windows_.size();
        const std::size_t n_tasks =
            n_windows + tables_.size() * models_.size();
        std::vector<dse::StreamStats> streams(n_tasks - n_windows);
        points_.resize(n_windows);
        auto t0 = Clock::now();
        workers.parallelFor(
            n_tasks,
            [&](std::size_t k) {
                if (k < n_windows) {
                    const Window &win = windows_[k];
                    points_[k].resize(win.indices.size());
                    models_[win.model].evaluator->evaluatePlanIndices(
                        *finePlan_, win.indices.data(), win.indices.size(),
                        nullptr, points_[k].data(), 1);
                    return;
                }
                const std::size_t i = k - n_windows;
                streams[i] =
                    models_[i % models_.size()].evaluator->evaluateStream(
                        tables_[i / models_.size()].space, keepReticle,
                        nullptr, 1);
            },
            1);
        const double stream_s = secondsSince(t0);
        std::size_t designs = 0;
        for (std::size_t w = 0; w < n_windows; ++w) {
            designs += windows_[w].indices.size();
            out["window." + std::to_string(w)] = windowDigest(
                windows_[w], points_[w].data(), points_[w].size());
        }
        for (std::size_t i = 0; i < streams.size(); ++i) {
            designs += streams[i].evaluated;
            const std::string key =
                "fixed.stream." + tables_[i / models_.size()].figure + "." +
                models_[i % models_.size()].label;
            out[key + ".best_ttft"] = argminText(*streams[i].bestTtft);
            out[key + ".best_tbt"] = argminText(*streams[i].bestTbt);
        }
        samples.add("dse.stream_designs_per_s", "1/s", designs / stream_s);

        // Part 2: adaptive search on the fine spaces, the six searches
        // as single-threaded tasks over the shared pool (one search's
        // small waves synchronize too often to time steadily on a
        // shared host).
        if (!opts_.tiny) {
            const std::size_t n = fine_.size() * models_.size();
            std::vector<dse::AdaptiveResult> results(n);
            std::vector<double> seconds(n);
            common::ThreadPool::shared().parallelFor(
                n,
                [&](std::size_t k) {
                    dse::AdaptiveConfig cfg;
                    cfg.threads = 1;
                    const auto k0 = Clock::now();
                    results[k] = study_.runAdaptiveSweep(
                        fine_[k / models_.size()],
                        models_[k % models_.size()].workload, cfg);
                    seconds[k] = secondsSince(k0);
                },
                1);
            for (std::size_t k = 0; k < n; ++k) {
                const dse::AdaptiveResult &r = results[k];
                samples.add("dse.adaptive_search_s", "s", seconds[k]);
                out["fixed.adaptive." +
                    std::to_string(static_cast<int>(
                        fine_[k / models_.size()].tppTarget)) +
                    "." + models_[k % models_.size()].label] =
                    std::to_string(r.bestTtftIndex) + " " +
                    std::to_string(r.bestTbtIndex) + " " +
                    std::to_string(r.evaluated) + " " +
                    std::to_string(r.waves) + " " +
                    exact(r.bestTtft->ttftS) + " " + exact(r.bestTbt->tbtS);
            }
        }

        // Part 3: TILE_SIM Table-3 sweeps with a cold GEMM cache.
        std::size_t tiled = 0;
        t0 = Clock::now();
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            if (opts_.tiny && t > 0)
                break;
            for (const Model &m : models_) {
                const auto designs_t =
                    tileStudy_.runSweep(tables_[t].space, m.workload);
                tiled += designs_t.size();
                const auto ok = dse::filterReticle(designs_t);
                out["fixed.tile." + tables_[t].figure + "." + m.label] =
                    argminText(dse::minTtft(ok)) + " " +
                    argminText(dse::minTbt(ok));
            }
        }
        samples.add("dse.tile_designs_per_s", "1/s",
                    tiled / secondsSince(t0));
    }

    const char *headline() const override
    {
        return "dse.stream_designs_per_s";
    }

    void
    verify(Checks &checks) override
    {
        // The streamed argmins equal the committed paper CSVs.
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            for (const Model &m : models_) {
                const std::string csv =
                    t == 0 ? "results/fig06_" + m.slug + ".csv"
                           : "results/fig07_" + m.slug + "_" +
                                 tables_[t].figure.substr(6) + ".csv";
                checks.guard(csv, [&] {
                    const CsvArgmin want = readCsvArgmin(csv);
                    const dse::StreamStats st = m.evaluator->evaluateStream(
                        tables_[t].space, keepReticle, nullptr,
                        opts_.threads);
                    checks.expect(st.bestTtft->config.name == want.bestTtft,
                                  csv + " min-TTFT row " + want.bestTtft);
                    checks.expect(st.bestTbt->config.name == want.bestTbt,
                                  csv + " min-TBT row " + want.bestTbt);
                });
            }
        }

        // Adaptive argmin == exhaustive argmin on exactness-tested
        // spaces (fig06 for both models, one fig07 space).
        for (std::size_t t = 0; t < 2; ++t) {
            for (const Model &m : models_) {
                dse::AdaptiveConfig cfg;
                cfg.threads = opts_.threads;
                dse::AdaptiveSearch search(*m.evaluator, tables_[t].space,
                                           cfg);
                const dse::AdaptiveResult a = search.run();
                const dse::StreamStats e = m.evaluator->evaluateStream(
                    tables_[t].space, nullptr, nullptr, opts_.threads);
                checks.expect(a.bestTtftIndex == e.bestTtftIndex &&
                                  a.bestTbtIndex == e.bestTbtIndex,
                              "adaptive == exhaustive argmin on " +
                                  tables_[t].figure + " " + m.label);
            }
        }

        // GemmCache on == off on a TILE_SIM sample.
        perf::PerfParams off = tileParams_;
        off.cacheTileSimGemms = false;
        const Model &m = models_[1];
        const dse::DesignEvaluator cached(m.workload.model,
                                          m.workload.setting,
                                          m.workload.system, tileParams_);
        const dse::DesignEvaluator plain(m.workload.model,
                                         m.workload.setting,
                                         m.workload.system, off);
        const std::vector<hw::HardwareConfig> sample(
            tableCfgs_[1].begin(), tableCfgs_[1].begin() + 24);
        const auto a = cached.evaluateAll(sample);
        const auto b = plain.evaluateAll(sample);
        bool same = a.size() == b.size();
        for (std::size_t i = 0; same && i < a.size(); ++i)
            same = a[i].ttftS == b[i].ttftS && a[i].tbtS == b[i].tbtS;
        checks.expect(same, "TILE_SIM GemmCache on equals off");
    }

    double
    replay(Tracer &tracer, Outputs &out) override
    {
        {
            const Tracer::Scope span(tracer, "dse.plan");
            const dse::SweepPlan plan(fine_.back());
            tracer.metric("dse.plan.points", "count",
                          static_cast<double>(plan.pointCount()));
        }
        std::vector<std::pair<model::LayerGraph, model::LayerGraph>> graphs;
        for (const Model &m : models_) {
            const Tracer::Scope span(tracer, "model.graph");
            const int tp = m.workload.system.tensorParallel;
            graphs.emplace_back(
                model::buildPrefillGraph(m.workload.model,
                                         m.workload.setting, tp),
                model::buildDecodeGraph(m.workload.model,
                                        m.workload.setting, tp));
        }

        // Part 1, decomposed: plan.point -> SoA batch kernel -> area
        // and cost -> rule classification, one span per call group of
        // a 64-design chunk (the fused pipeline's chunk size).
        const area::AreaModel area_model;
        const area::CostModel cost_model;
        perf::BatchEvaluator batch_eval{perf::PerfParams{}};
        std::vector<hw::HardwareConfig> cfgs(64);
        std::vector<dse::EvaluatedDesign> chunk(64);
        std::vector<RuleOutcome> rules(64);
        perf::DesignBatch batch;
        std::vector<double> prefill_s, decode_s;
        const auto evaluate = [&](const dse::SweepPlan &plan,
                                  const std::size_t *indices, std::size_t n,
                                  std::size_t model,
                                  const std::function<void(
                                      const dse::EvaluatedDesign &,
                                      const RuleOutcome &, std::size_t)>
                                      &sink) {
            const Tracer::Scope span(tracer, "dse.stream");
            const int tp = models_[model].workload.system.tensorParallel;
            for (std::size_t base = 0; base < n; base += 64) {
                tracer.beginOp();
                const std::size_t count = std::min<std::size_t>(64, n - base);
                {
                    const Tracer::Scope s(tracer, "dse.plan.point");
                    for (std::size_t j = 0; j < count; ++j)
                        plan.point(indices[base + j], &cfgs[j]);
                }
                {
                    const Tracer::Scope s(tracer, "perf.batch.layer");
                    batch.clear();
                    for (std::size_t j = 0; j < count; ++j)
                        batch.push(cfgs[j]);
                    prefill_s.assign(count, 0.0);
                    decode_s.assign(count, 0.0);
                    batch_eval.reset();
                    batch_eval.layerLatency(graphs[model].first, tp, batch,
                                            prefill_s.data());
                    batch_eval.layerLatency(graphs[model].second, tp, batch,
                                            decode_s.data());
                }
                {
                    const Tracer::Scope s(tracer, "area.die");
                    for (std::size_t j = 0; j < count; ++j) {
                        chunk[j].config = cfgs[j];
                        fillStatic(area_model, cost_model, cfgs[j],
                                   &chunk[j]);
                        chunk[j].ttftS = prefill_s[j];
                        chunk[j].tbtS = decode_s[j];
                    }
                }
                {
                    const Tracer::Scope s(tracer, "policy.classify");
                    for (std::size_t j = 0; j < count; ++j)
                        rules[j] = classify(chunk[j]);
                }
                for (std::size_t j = 0; j < count; ++j)
                    sink(chunk[j], rules[j], base + j);
            }
        };

        auto r0 = Clock::now();
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            std::vector<std::size_t> all(tables_[t].plan->pointCount());
            for (std::size_t i = 0; i < all.size(); ++i)
                all[i] = i;
            for (std::size_t mi = 0; mi < models_.size(); ++mi) {
                // Reticle-kept argmins, first index winning ties, as
                // StreamStats reduces them.
                std::optional<dse::EvaluatedDesign> best_ttft, best_tbt;
                evaluate(*tables_[t].plan, all.data(), all.size(), mi,
                         [&](const dse::EvaluatedDesign &d,
                             const RuleOutcome &, std::size_t) {
                             if (!d.underReticle)
                                 return;
                             if (!best_ttft || d.ttftS < best_ttft->ttftS)
                                 best_ttft = d;
                             if (!best_tbt || d.tbtS < best_tbt->tbtS)
                                 best_tbt = d;
                         });
                const std::string key = "fixed.stream." +
                                        tables_[t].figure + "." +
                                        models_[mi].label;
                out[key + ".best_ttft"] = argminText(*best_ttft);
                out[key + ".best_tbt"] = argminText(*best_tbt);
            }
        }
        std::vector<dse::PointSample> points;
        for (std::size_t w = 0; w < windows_.size(); ++w) {
            const Window &win = windows_[w];
            points.assign(win.indices.size(), {});
            evaluate(*finePlan_, win.indices.data(), win.indices.size(),
                     win.model,
                     [&](const dse::EvaluatedDesign &d, const RuleOutcome &r,
                         std::size_t pos) {
                         dse::PointSample &p = points[pos];
                         p.ttftS = d.ttftS;
                         p.tbtS = d.tbtS;
                         p.kept = true;
                         p.underReticle = d.underReticle;
                         p.oct2023Unregulated = r.oct2023Unregulated;
                     });
            out["window." + std::to_string(w)] =
                windowDigest(win, points.data(), points.size());
        }
        double decomposed = secondsSince(r0);

        // Part 2: the adaptive engine is one fused call; its span and
        // its own result counters are what the benchmark can see.
        double evaluated = 0.0, space_points = 0.0, waves = 0.0;
        std::size_t searches = 0;
        if (!opts_.tiny) {
            for (const dse::SweepSpace &space : fine_) {
                for (const Model &m : models_) {
                    tracer.beginOp();
                    dse::AdaptiveConfig cfg;
                    cfg.threads = 1;
                    const Tracer::Scope span(tracer, "dse.adaptive");
                    const dse::AdaptiveResult r =
                        study_.runAdaptiveSweep(space, m.workload, cfg);
                    evaluated += static_cast<double>(r.evaluated);
                    space_points += static_cast<double>(r.shardPoints);
                    waves += static_cast<double>(r.waves);
                    ++searches;
                }
            }
        }

        // Part 3, decomposed per design and per distinct GEMM.
        GemmReplay gemms(tileParams_);
        r0 = Clock::now();
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            if (opts_.tiny && t > 0)
                break;
            for (std::size_t mi = 0; mi < models_.size(); ++mi) {
                const int tp = models_[mi].workload.system.tensorParallel;
                // One cold cache per sweep, as runSweep hoists it.
                gemms.cache.clear();
                std::vector<dse::EvaluatedDesign> designs;
                designs.reserve(tableCfgs_[t].size());
                for (const hw::HardwareConfig &cfg : tableCfgs_[t]) {
                    tracer.beginOp();
                    dse::EvaluatedDesign d;
                    d.config = cfg;
                    {
                        const Tracer::Scope span(tracer, "area.die");
                        fillStatic(area_model, cost_model, cfg, &d);
                    }
                    const Tracer::Scope span(tracer, "perf.scalar.run");
                    d.ttftS = replayLayer(tracer, cfg, graphs[mi].first, tp,
                                          false, gemms);
                    d.tbtS = replayLayer(tracer, cfg, graphs[mi].second, tp,
                                         true, gemms);
                    designs.push_back(std::move(d));
                }
                const auto ok = dse::filterReticle(std::move(designs));
                out["fixed.tile." + tables_[t].figure + "." +
                    models_[mi].label] = argminText(dse::minTtft(ok)) +
                                         " " + argminText(dse::minTbt(ok));
            }
        }
        decomposed += secondsSince(r0);

        const auto self = [&](const char *name) {
            return tracer.selfSeconds(name);
        };
        tracer.metric("dse.plan_s", "s", self("dse.plan"));
        tracer.metric("dse.plan.point_s", "s", self("dse.plan.point"));
        tracer.metric("dse.stream.self_s", "s", self("dse.stream"));
        tracer.metric("dse.adaptive.self_s", "s", self("dse.adaptive"));
        tracer.metric("dse.adaptive.searches", "count",
                      static_cast<double>(searches));
        tracer.metric("dse.adaptive.evaluated", "count", evaluated);
        tracer.metric("dse.adaptive.fraction_evaluated", "ratio",
                      space_points > 0 ? evaluated / space_points : 0.0);
        tracer.metric("dse.adaptive.waves", "count", waves);
        tracer.metric("perf.batch.layer_s", "s", self("perf.batch.layer"));
        tracer.metric("perf.scalar.run_s", "s", self("perf.scalar.run"));
        tracer.metric("perf.tile.gemm_s", "s", self("perf.tile.gemm"));
        tracer.metric("perf.tile.gemms", "count",
                      static_cast<double>(gemms.gemmSeconds.size()));
        countPercentiles(tracer, "perf.tile.gemm", gemms.gemmSeconds);
        tracer.metric("perf.gemm_cache.hit_rate", "ratio",
                      gemms.lookups ? static_cast<double>(gemms.hits) /
                                          gemms.lookups
                                    : 0.0);
        tracer.metric("perf.gemm_cache.entries", "count",
                      static_cast<double>(gemms.cache.stats().entries));
        tracer.metric("model.graph_s", "s", self("model.graph"));
        tracer.metric("area.die_s", "s", self("area.die"));
        tracer.metric("policy.classify_s", "s", self("policy.classify"));
        return decomposed;
    }

    double
    fusedSerial() override
    {
        // Parts 1 and 3, the calls the replay decomposes.
        const auto t0 = Clock::now();
        for (const TableSpace &t : tables_)
            for (const Model &m : models_)
                m.evaluator->evaluateStream(t.space, keepReticle, nullptr, 1);
        std::vector<dse::PointSample> points;
        for (const Window &win : windows_) {
            points.resize(win.indices.size());
            models_[win.model].evaluator->evaluatePlanIndices(
                *finePlan_, win.indices.data(), win.indices.size(), nullptr,
                points.data(), 1);
        }
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            if (opts_.tiny && t > 0)
                break;
            for (const Model &m : models_) {
                const dse::DesignEvaluator tile(m.workload.model,
                                                m.workload.setting,
                                                m.workload.system,
                                                tileParams_);
                tile.evaluateAllParallel(tableCfgs_[t], 1);
            }
        }
        return secondsSince(t0);
    }

  private:
    static perf::PerfParams
    tileMode()
    {
        perf::PerfParams p;
        p.gemmMode = perf::GemmMode::TILE_SIM;
        return p;
    }

    Options opts_;
    const perf::PerfParams tileParams_ = tileMode();
    core::SanctionsStudy study_;
    core::SanctionsStudy tileStudy_{tileParams_};
    std::vector<Model> models_;
    std::vector<TableSpace> tables_;
    std::vector<std::vector<hw::HardwareConfig>> tableCfgs_;
    std::vector<dse::SweepSpace> fine_;
    std::unique_ptr<dse::SweepPlan> finePlan_;
    std::vector<Window> windows_;
    std::vector<std::vector<dse::PointSample>> points_; //!< per window
};

} // anonymous namespace

std::unique_ptr<Workload>
makeDse(const Options &opts)
{
    return std::make_unique<DseWorkload>(opts);
}

} // namespace perfbench
