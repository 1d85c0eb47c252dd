#include "adaptive.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace acs {
namespace dse {

namespace {

/** FNV-1a (same scheme as sweep.cc's feasibility fingerprint). */
std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnvValue(const T &v, std::uint64_t h)
{
    return fnv1a(&v, sizeof(v), h);
}

template <typename T>
std::uint64_t
fnvList(const std::vector<T> &values, std::uint64_t h)
{
    const std::size_t n = values.size();
    h = fnvValue(n, h);
    for (const T &v : values)
        h = fnvValue(v, h);
    return h;
}

/**
 * Initial refinement stride of an inner axis with @p n values
 * (power of two, halved once per refinement round).
 *
 * Short axes (the Table 3/5 lists) start from their corners — the
 * largest power of two under the axis span, so one halving already
 * probes the interior. Dense axes (fineSpace) start from the stride
 * that puts about five points on the coarse sub-lattice.
 */
std::size_t
coarseStride(std::size_t n)
{
    if (n <= 1)
        return 1;
    if (n <= 7)
        return std::bit_floor(n - 1);
    std::size_t s = 1;
    while ((n - 2 + s) / s + 1 > 5) // ceil((n-1)/s) + 1 grid points
        s <<= 1;
    return s;
}

/** Round-0 sample indices of an axis: corners, or a strided grid
 *  (multiples of coarseStride plus the endpoint). */
std::vector<std::size_t>
coarseGrid(std::size_t n)
{
    if (n <= 1)
        return {0};
    if (n <= 7)
        return {0, n - 1};
    std::vector<std::size_t> grid;
    const std::size_t s = coarseStride(n);
    for (std::size_t i = 0; i < n - 1; i += s)
        grid.push_back(i);
    grid.push_back(n - 1);
    return grid;
}

bool
strictlyAscending(const std::vector<double> &v)
{
    for (std::size_t i = 1; i < v.size(); ++i) {
        if (!(v[i - 1] < v[i]))
            return false;
    }
    return true;
}

/** AdaptiveSearch::visit_ bits: visited by this run, kept by it. */
constexpr std::uint8_t VISITED = 1;
constexpr std::uint8_t KEPT = 2;

} // anonymous namespace

std::size_t
AdaptiveSearch::PointStore::slotOf(std::size_t index) const
{
    // Fibonacci hashing: plan indices are strided lattices, and the
    // multiply spreads them over the high bits the shift keeps.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ull) >>
        shift_);
}

std::uint32_t
AdaptiveSearch::PointStore::find(std::size_t index) const
{
    if (slots_.empty())
        return NONE;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slotOf(index);; s = (s + 1) & mask) {
        const std::uint32_t v = slots_[s];
        if (v == 0)
            return NONE;
        if (records_[v - 1].index == index)
            return v - 1;
    }
}

void
AdaptiveSearch::PointStore::grow()
{
    const std::size_t cap = std::max<std::size_t>(64, slots_.size() * 2);
    slots_.assign(cap, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    const std::size_t mask = cap - 1;
    for (std::size_t id = 0; id < records_.size(); ++id) {
        std::size_t s = slotOf(records_[id].index);
        while (slots_[s] != 0)
            s = (s + 1) & mask;
        slots_[s] = static_cast<std::uint32_t>(id + 1);
    }
}

std::uint32_t
AdaptiveSearch::PointStore::insert(std::size_t index, const PointSample &s)
{
    panicIf(index >> 62 != 0 || records_.size() >= NONE - 1,
            "AdaptiveSearch: point store overflow");
    // Load factor <= 1/2 keeps linear-probe chains short; records
    // grow by 1.5x, not the vector's 2x, so that with the index a
    // point costs at most ~53 bytes (about 43 on average).
    if ((records_.size() + 1) * 2 > slots_.size())
        grow();
    if (records_.size() == records_.capacity())
        records_.reserve(std::max<std::size_t>(64, records_.size() * 3 / 2));
    const auto id = static_cast<std::uint32_t>(records_.size());
    records_.push_back({s.ttftS, s.tbtS, index, s.underReticle,
                        s.oct2023Unregulated});
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = slotOf(index);
    while (slots_[slot] != 0)
        slot = (slot + 1) & mask;
    slots_[slot] = id + 1;
    return id;
}

/** Per compute-class run bookkeeping: the run's base flat index
 *  (its dev=0 point) and its best metrics over evaluated kept
 *  points. */
struct AdaptiveSearch::RunState
{
    std::size_t base = 0;
    double bestTtft = 0.0;
    double bestTbt = 0.0;
    bool hasKept = false;
    /** Smallest stride-sum this run has spawned neighborhoods at
     *  (pattern-search gate: spawn once per refinement level). */
    std::size_t spawnedAt = std::numeric_limits<std::size_t>::max();
};

AdaptiveSearch::AdaptiveSearch(const DesignEvaluator &evaluator,
                               const SweepSpace &space,
                               AdaptiveConfig cfg)
    : evaluator_(evaluator), space_(space), cfg_(std::move(cfg)),
      plan_(space)
{
}

std::uint64_t
AdaptiveSearch::searchFingerprint(const SweepSpace &space,
                                  const perf::PerfParams &params,
                                  const AdaptiveConfig &cfg)
{
    std::uint64_t h = 14695981039346656037ull;
    // The space (same fields as SweepSpace's feasibility fingerprint).
    h = fnvValue(space.tppTarget, h);
    h = fnvValue(space.base.clockHz, h);
    h = fnvValue(space.base.opBitwidth, h);
    h = fnvList(space.systolicDims, h);
    h = fnvList(space.lanesPerCore, h);
    h = fnvList(space.l1BytesPerCore, h);
    h = fnvList(space.l2Bytes, h);
    h = fnvList(space.memBandwidths, h);
    h = fnvList(space.deviceBandwidths, h);
    h = fnvList(space.diesPerPackage, h);
    // Every perf constant that reaches a timing expression. The
    // bit-identical cache switches (cacheTileSimGemms, the cache
    // handle) are deliberately excluded: they change cost, never
    // results. The two constants below stand where the retired
    // tile-sim engine (0) and op-memo (true) switches were hashed, so
    // existing checkpoints stay valid.
    h = fnvValue(static_cast<int>(params.gemmMode), h);
    h = fnvValue(0, h);
    h = fnvValue(params.modelMultiPassVector, h);
    h = fnvValue(params.memEfficiency, h);
    h = fnvValue(params.l2Efficiency, h);
    h = fnvValue(params.l2BytesPerCyclePerFpu, h);
    h = fnvValue(params.l2BlockingFraction, h);
    h = fnvValue(params.l1TileFraction, h);
    h = fnvValue(params.kernelOverheadS, h);
    h = fnvValue(params.allreduceStepLatencyS, h);
    h = fnvValue(params.interconnectEfficiency, h);
    h = fnvValue(params.modelPipelineFill, h);
    h = fnvValue(params.pipelineFillOverlap, h);
    h = fnvValue(params.modelTiling, h);
    h = fnvValue(true, h);
    h = fnvValue(params.modelL2Blocking, h);
    // The workload and the trajectory-shaping adaptive knobs. Shard
    // assignment and checkpoint cadence are excluded on purpose:
    // shards of one search must share a fingerprint, and pausing a
    // search must not invalidate its own snapshot.
    h = fnvValue(cfg.workloadTag.size(), h);
    h = fnv1a(cfg.workloadTag.data(), cfg.workloadTag.size(), h);
    h = fnvValue(cfg.bandFraction, h);
    h = fnvValue(cfg.topK, h);
    h = fnvValue(cfg.cellTopK, h);
    h = fnvValue(cfg.maxSurvivors, h);
    h = fnvValue(cfg.bracketCommAxis, h);
    return h;
}

AdaptiveResult
AdaptiveSearch::run(const DesignEvaluator::StreamPredicate &predicate)
{
    const std::size_t n1 = space_.l1BytesPerCore.size();
    const std::size_t n2 = space_.l2Bytes.size();
    const std::size_t n3 = space_.memBandwidths.size();
    const std::size_t n4 = space_.deviceBandwidths.size();
    const std::size_t inner_block = plan_.innerBlockSize();
    const auto [o_begin, o_end] =
        shardOuterRange(cfg_.shard, plan_.outerCount());
    const std::uint64_t fp =
        searchFingerprint(space_, evaluator_.params(), cfg_);

    // Bracketing preconditions: metrics must be monotone along the
    // dev axis (ascending bandwidth list) and the argmin must be over
    // the full run (no keep-predicate carving holes in the plateau).
    const bool bracket = cfg_.bracketCommAxis && predicate == nullptr &&
                         n4 > 1 &&
                         strictlyAscending(space_.deviceBandwidths);

    // ---- Trajectory state -------------------------------------------
    // The store outlives the run; everything else here is the run's
    // own, starting with its visited set over the store (visit_).
    visit_.assign(store_.size(), 0);
    std::vector<std::size_t> visited_bases; // sorted run base indices
    std::vector<RunState> runs;             // deterministic order
    std::size_t new_evals = 0;              // new to this run
    std::size_t since_ckpt = 0;
    std::size_t waves = 0;
    bool stopped = false;

    const auto markVisit = [&](std::uint32_t id, bool kept) {
        if (visit_.size() <= id)
            visit_.resize(store_.size(), 0);
        visit_[id] = VISITED | (kept ? KEPT : 0);
    };

    // ---- Resume -----------------------------------------------------
    if (!cfg_.checkpointPath.empty()) {
        Checkpoint ck;
        if (readCheckpoint(cfg_.checkpointPath, &ck)) {
            fatalIf(ck.fingerprint != fp,
                    "adaptive resume: checkpoint fingerprint mismatch "
                    "(different space/params/workload/knobs): " +
                        cfg_.checkpointPath);
            fatalIf(!(ck.shard == cfg_.shard),
                    "adaptive resume: checkpoint belongs to shard " +
                        std::to_string(ck.shard.index) + "/" +
                        std::to_string(ck.shard.count) + ", not " +
                        std::to_string(cfg_.shard.index) + "/" +
                        std::to_string(cfg_.shard.count));
            for (const CheckpointPoint &p : ck.points) {
                PointSample s;
                s.ttftS = p.ttftS;
                s.tbtS = p.tbtS;
                s.kept = (p.flags & POINT_KEPT) != 0;
                s.underReticle = (p.flags & POINT_UNDER_RETICLE) != 0;
                s.oct2023Unregulated =
                    (p.flags & POINT_UNREGULATED) != 0;
                std::uint32_t id = store_.find(p.index);
                if (id == PointStore::NONE) {
                    id = store_.insert(p.index, s);
                } else if (id < visit_.size() && visit_[id]) {
                    continue; // repeated index: the first one wins
                } else {
                    // The snapshot's values are what this run resumes
                    // from, as a fresh object would.
                    PointStore::Record &r = store_[id];
                    r.ttftS = s.ttftS;
                    r.tbtS = s.tbtS;
                    r.underReticle = s.underReticle;
                    r.oct2023Unregulated = s.oct2023Unregulated;
                }
                markVisit(id, s.kept);
            }
            inform("adaptive: resumed " +
                 std::to_string(ck.points.size()) + " points from " +
                 cfg_.checkpointPath);
        }
    }

    // ---- Wave machinery ---------------------------------------------
    // This run's visited points in index order: the checkpoint body
    // and the source of every result field.
    const auto sortedPoints = [&]() {
        std::vector<CheckpointPoint> pts;
        pts.reserve(static_cast<std::size_t>(
            std::count_if(visit_.begin(), visit_.end(),
                          [](std::uint8_t v) { return v & VISITED; })));
        for (std::uint32_t id = 0; id < visit_.size(); ++id) {
            if (!(visit_[id] & VISITED))
                continue;
            const PointStore::Record &r = store_[id];
            pts.push_back(
                {r.index, r.ttftS, r.tbtS,
                 ((visit_[id] & KEPT) ? POINT_KEPT : 0u) |
                     (r.underReticle ? POINT_UNDER_RETICLE : 0u) |
                     (r.oct2023Unregulated ? POINT_UNREGULATED : 0u)});
        }
        std::sort(pts.begin(), pts.end(),
                  [](const CheckpointPoint &a, const CheckpointPoint &b) {
                      return a.index < b.index;
                  });
        return pts;
    };

    const auto writeCkpt = [&](bool complete) {
        if (cfg_.checkpointPath.empty())
            return;
        Checkpoint ck;
        ck.fingerprint = fp;
        ck.shard = cfg_.shard;
        ck.spacePoints = plan_.pointCount();
        ck.complete = complete;
        ck.waves = waves;
        ck.points = sortedPoints();
        writeCheckpoint(cfg_.checkpointPath, ck);
        since_ckpt = 0;
    };

    // Evaluate one wave of plan indices against the run's visited
    // set. Points new to the run split into fresh ones (timed by the
    // perf kernels, then stored) and stored ones (only the predicate
    // is re-applied); one evaluatePlanIndices pass handles both, and
    // only this thread writes the store, between waves. Returns false
    // when the evaluation budget is exhausted (wave-aligned stop: the
    // wave is not evaluated at all, so a resumed run replays it
    // whole).
    DesignEvaluator::WaveScratch scratch; // kept across the run's waves
    std::vector<std::size_t> wave_idx;    // fresh points, then stored
    std::vector<std::uint32_t> hit_ids;   // store ids of the stored ones
    std::vector<PointSample> wave_out;
    const auto evalWave = [&](std::vector<std::size_t> &idxs) {
        ++waves;
        std::sort(idxs.begin(), idxs.end());
        idxs.erase(std::unique(idxs.begin(), idxs.end()), idxs.end());
        wave_idx.clear();
        hit_ids.clear();
        for (std::size_t idx : idxs) {
            const std::uint32_t id = store_.find(idx);
            if (id == PointStore::NONE)
                wave_idx.push_back(idx);
            else if (!(visit_[id] & VISITED))
                hit_ids.push_back(id);
        }
        const std::size_t fresh = wave_idx.size();
        const std::size_t news = fresh + hit_ids.size();
        if (news == 0)
            return true;
        if (cfg_.maxEvaluations != 0 &&
            new_evals + news > cfg_.maxEvaluations) {
            stopped = true;
            return false;
        }
        wave_out.resize(news);
        for (std::size_t k = 0; k < hit_ids.size(); ++k) {
            const PointStore::Record &r = store_[hit_ids[k]];
            wave_idx.push_back(r.index);
            wave_out[fresh + k] = {r.ttftS, r.tbtS, false,
                                   static_cast<bool>(r.underReticle),
                                   static_cast<bool>(r.oct2023Unregulated)};
        }
        evaluator_.evaluatePlanIndices(plan_, wave_idx.data(), news, fresh,
                                       predicate, wave_out.data(),
                                       cfg_.threads, scratch);
        for (std::size_t i = 0; i < fresh; ++i)
            markVisit(store_.insert(wave_idx[i], wave_out[i]),
                      wave_out[i].kept);
        for (std::size_t k = 0; k < hit_ids.size(); ++k)
            markVisit(hit_ids[k], wave_out[fresh + k].kept);
        new_evals += news;
        since_ckpt += news;
        if (obs::enabled()) {
            obs::counterAdd("dse.prune.points.evaluated", news);
            obs::counterAdd("dse.adaptive.points.timed", fresh);
            obs::counterAdd("dse.adaptive.points.reused", news - fresh);
        }
        if (cfg_.checkpointEveryPoints != 0 &&
            since_ckpt >= cfg_.checkpointEveryPoints)
            writeCkpt(false);
        return true;
    };

    // The store record of a point this run has visited.
    const auto recordAt = [&](std::size_t idx) -> const PointStore::Record & {
        return store_[store_.find(idx)];
    };

    // Evaluate the dev axis of each newly discovered run and append
    // its RunState. Bracketing path: evaluate the top of the axis
    // (the run's best — metrics are non-increasing in bandwidth),
    // then lock-step binary searches find the first index attaining
    // each metric's plateau, i.e. exactly the in-run index exhaustive
    // first-wins argmin selection would keep.
    const auto processRuns = [&](const std::vector<std::size_t> &bases) {
        if (bases.empty())
            return true;
        if (obs::enabled())
            obs::counterAdd("dse.prune.runs.visited", bases.size());
        if (!bracket) {
            std::vector<std::size_t> wave;
            wave.reserve(bases.size() * n4);
            for (std::size_t base : bases) {
                for (std::size_t j = 0; j < n4; ++j)
                    wave.push_back(base + j);
            }
            if (!evalWave(wave))
                return false;
            for (std::size_t base : bases) {
                RunState r;
                r.base = base;
                for (std::size_t j = 0; j < n4; ++j) {
                    const std::uint32_t id = store_.find(base + j);
                    if (!(visit_[id] & KEPT))
                        continue;
                    const PointStore::Record &s = store_[id];
                    if (!r.hasKept) {
                        r.bestTtft = s.ttftS;
                        r.bestTbt = s.tbtS;
                        r.hasKept = true;
                    } else {
                        r.bestTtft = std::min(r.bestTtft, s.ttftS);
                        r.bestTbt = std::min(r.bestTbt, s.tbtS);
                    }
                }
                runs.push_back(r);
            }
            return true;
        }

        std::vector<std::size_t> wave;
        wave.reserve(bases.size());
        for (std::size_t base : bases)
            wave.push_back(base + n4 - 1);
        if (!evalWave(wave))
            return false;

        struct Bracket
        {
            std::size_t loT = 0, hiT = 0, loB = 0, hiB = 0;
            double bestT = 0.0, bestB = 0.0;
        };
        std::vector<Bracket> st(bases.size());
        for (std::size_t i = 0; i < bases.size(); ++i) {
            const PointStore::Record &top = recordAt(bases[i] + n4 - 1);
            st[i] = {0, n4 - 1, 0, n4 - 1, top.ttftS, top.tbtS};
        }
        for (;;) {
            wave.clear();
            for (std::size_t i = 0; i < bases.size(); ++i) {
                if (st[i].loT < st[i].hiT)
                    wave.push_back(bases[i] +
                                   (st[i].loT + st[i].hiT) / 2);
                if (st[i].loB < st[i].hiB)
                    wave.push_back(bases[i] +
                                   (st[i].loB + st[i].hiB) / 2);
            }
            if (wave.empty())
                break;
            if (!evalWave(wave))
                return false;
            for (std::size_t i = 0; i < bases.size(); ++i) {
                Bracket &b = st[i];
                if (b.loT < b.hiT) {
                    const std::size_t mid = (b.loT + b.hiT) / 2;
                    if (recordAt(bases[i] + mid).ttftS == b.bestT)
                        b.hiT = mid;
                    else
                        b.loT = mid + 1;
                }
                if (b.loB < b.hiB) {
                    const std::size_t mid = (b.loB + b.hiB) / 2;
                    if (recordAt(bases[i] + mid).tbtS == b.bestB)
                        b.hiB = mid;
                    else
                        b.loB = mid + 1;
                }
            }
        }
        for (std::size_t i = 0; i < bases.size(); ++i) {
            RunState r;
            r.base = bases[i];
            r.bestTtft = st[i].bestT;
            r.bestTbt = st[i].bestB;
            r.hasKept = true; // no predicate on the bracketing path
            runs.push_back(r);
        }
        return true;
    };

    // Global survivor selection: top-k per metric plus the band
    // around each incumbent best, capped, deterministically ordered.
    //
    // The rankings persist across rounds: a run's metrics are final
    // once processRuns appends it, so each round sorts only the runs
    // appended since the last one and merges them in. Both orders are
    // total (ties break on the unique base index), so the merged
    // sequence is exactly what a full re-sort would produce.
    const auto ttftBefore = [&](std::size_t a, std::size_t b) {
        if (runs[a].bestTtft != runs[b].bestTtft)
            return runs[a].bestTtft < runs[b].bestTtft;
        return runs[a].base < runs[b].base;
    };
    const auto tbtBefore = [&](std::size_t a, std::size_t b) {
        if (runs[a].bestTbt != runs[b].bestTbt)
            return runs[a].bestTbt < runs[b].bestTbt;
        return runs[a].base < runs[b].base;
    };
    std::vector<std::size_t> by_ttft; // kept runs, ranked by TTFT
    std::vector<std::size_t> by_tbt;  // kept runs, ranked by TBT
    std::size_t ranked = 0;           // runs[0, ranked) are ranked
    std::vector<std::size_t> cell_count(o_end - o_begin);
    std::vector<char> chosen; // per run; cleared after each selection
    const auto rankNewRuns = [&](std::vector<std::size_t> &ranking,
                                 const auto &before) {
        const std::size_t old_size = ranking.size();
        for (std::size_t i = ranked; i < runs.size(); ++i) {
            if (runs[i].hasKept)
                ranking.push_back(i);
        }
        const auto mid = ranking.begin() + old_size;
        std::sort(mid, ranking.end(), before);
        std::inplace_merge(ranking.begin(), mid, ranking.end(), before);
    };
    const auto selectSurvivors = [&]() {
        rankNewRuns(by_ttft, ttftBefore);
        rankNewRuns(by_tbt, tbtBefore);
        ranked = runs.size();
        chosen.resize(runs.size());
        std::vector<std::size_t> out;
        if (by_ttft.empty())
            return out;
        const auto addEscort = [&](std::size_t i) {
            if (!chosen[i]) {
                chosen[i] = 1;
                out.push_back(i);
            }
        };
        // Per-cell escort first: uncapped, so every outer cell keeps
        // descending toward its own local optimum even when its runs
        // rank poorly globally.
        if (cfg_.cellTopK > 0) {
            for (const std::vector<std::size_t> *ranking :
                 {&by_ttft, &by_tbt}) {
                std::fill(cell_count.begin(), cell_count.end(), 0);
                for (std::size_t i : *ranking) {
                    const std::size_t cell =
                        runs[i].base / inner_block - o_begin;
                    if (cell_count[cell]++ < cfg_.cellTopK)
                        addEscort(i);
                }
            }
        }
        const std::size_t escorts = out.size();
        const auto add = [&](std::size_t i) {
            if (out.size() < escorts + cfg_.maxSurvivors && !chosen[i]) {
                chosen[i] = 1;
                out.push_back(i);
            }
        };
        for (std::size_t i = 0; i < std::min(cfg_.topK, by_ttft.size());
             ++i)
            add(by_ttft[i]);
        for (std::size_t i = 0; i < std::min(cfg_.topK, by_tbt.size());
             ++i)
            add(by_tbt[i]);
        const double band_t =
            runs[by_ttft.front()].bestTtft * (1.0 + cfg_.bandFraction);
        const double band_b =
            runs[by_tbt.front()].bestTbt * (1.0 + cfg_.bandFraction);
        for (std::size_t i : by_ttft) {
            if (out.size() >= escorts + cfg_.maxSurvivors)
                break;
            if (runs[i].bestTtft <= band_t || runs[i].bestTbt <= band_b)
                add(i);
        }
        for (std::size_t i : out)
            chosen[i] = 0;
        std::sort(out.begin(), out.end(),
                  [&](std::size_t a, std::size_t b) {
                      return runs[a].base < runs[b].base;
                  });
        return out;
    };

    // ---- Round 0: the coarse sub-lattice ----------------------------
    const std::vector<std::size_t> g1 = coarseGrid(n1);
    const std::vector<std::size_t> g2 = coarseGrid(n2);
    const std::vector<std::size_t> g3 = coarseGrid(n3);
    std::size_t s1 = coarseStride(n1);
    std::size_t s2 = coarseStride(n2);
    std::size_t s3 = coarseStride(n3);

    const auto runBase = [&](std::size_t o, std::size_t i1,
                             std::size_t i2, std::size_t i3) {
        return o * inner_block + ((i1 * n2 + i2) * n3 + i3) * n4;
    };

    std::vector<std::size_t> pending;
    for (std::size_t o = o_begin; o < o_end; ++o) {
        for (std::size_t i1 : g1) {
            for (std::size_t i2 : g2) {
                for (std::size_t i3 : g3)
                    pending.push_back(runBase(o, i1, i2, i3));
            }
        }
    }
    // Ascending by construction (o, i1, i2, i3 all ascend).
    visited_bases = pending;

    // ---- Refinement loop --------------------------------------------
    while (!pending.empty()) {
        if (!processRuns(pending))
            break; // budget exhausted (wave-aligned)

        const std::vector<std::size_t> survivors = selectSurvivors();

        s1 = std::max<std::size_t>(s1 / 2, 1);
        s2 = std::max<std::size_t>(s2 / 2, 1);
        s3 = std::max<std::size_t>(s3 / 2, 1);
        const std::size_t level = s1 + s2 + s3;

        pending.clear();
        for (std::size_t run_idx : survivors) {
            RunState &r = runs[run_idx];
            if (r.spawnedAt <= level)
                continue; // already expanded at this refinement level
            r.spawnedAt = level;

            const std::size_t o = r.base / inner_block;
            std::size_t rem = (r.base % inner_block) / n4;
            const std::size_t i3 = rem % n3;
            rem /= n3;
            const std::size_t i2 = rem % n2;
            const std::size_t i1 = rem / n2;

            const auto clampAxis = [](long v, std::size_t n) {
                if (v < 0)
                    return std::size_t{0};
                if (v >= static_cast<long>(n))
                    return n - 1;
                return static_cast<std::size_t>(v);
            };
            // Axis-aligned (compass) moves only: ±stride along one
            // axis at a time. Diagonal descent still happens — over
            // two rounds via an intermediate survivor — while the
            // expansion stays at 6 candidates per survivor instead of
            // the 26 of a full cross-product neighborhood, which is
            // what keeps the evaluated fraction low on the small
            // Table 3 axes.
            const long moves[][3] = {
                {-static_cast<long>(s1), 0, 0},
                {static_cast<long>(s1), 0, 0},
                {0, -static_cast<long>(s2), 0},
                {0, static_cast<long>(s2), 0},
                {0, 0, -static_cast<long>(s3)},
                {0, 0, static_cast<long>(s3)},
            };
            for (const long *m : moves) {
                const std::size_t base = runBase(
                    o, clampAxis(static_cast<long>(i1) + m[0], n1),
                    clampAxis(static_cast<long>(i2) + m[1], n2),
                    clampAxis(static_cast<long>(i3) + m[2], n3));
                pending.push_back(base);
            }
        }
        // New candidates only, ascending: drop repeats and runs this
        // search already visited, then fold the rest into the set.
        std::sort(pending.begin(), pending.end());
        pending.erase(std::unique(pending.begin(), pending.end()),
                      pending.end());
        pending.erase(std::remove_if(pending.begin(), pending.end(),
                                     [&](std::size_t base) {
                                         return std::binary_search(
                                             visited_bases.begin(),
                                             visited_bases.end(), base);
                                     }),
                      pending.end());
        const std::size_t old_size = visited_bases.size();
        visited_bases.insert(visited_bases.end(), pending.begin(),
                             pending.end());
        std::inplace_merge(visited_bases.begin(),
                           visited_bases.begin() + old_size,
                           visited_bases.end());
    }

    // ---- Final snapshot + result ------------------------------------
    const bool complete = !stopped;
    writeCkpt(complete);

    AdaptiveResult res;
    res.spacePoints = plan_.pointCount();
    res.shardPoints = (o_end - o_begin) * inner_block;
    res.complete = complete;
    res.waves = waves;

    const std::vector<CheckpointPoint> pts = sortedPoints();
    res.evaluated = pts.size();
    bool have_t = false, have_b = false;
    double best_t = 0.0, best_b = 0.0;
    for (const CheckpointPoint &p : pts) {
        if (!(p.flags & POINT_KEPT))
            continue;
        ++res.kept;
        if (p.flags & POINT_UNDER_RETICLE)
            ++res.underReticle;
        if (p.flags & POINT_UNREGULATED)
            ++res.oct2023Unregulated;
        // Ascending index scan with strict <: ties resolve to the
        // lowest index, matching StreamStats::absorb / min_element.
        if (!have_t || p.ttftS < best_t) {
            best_t = p.ttftS;
            res.bestTtftIndex = p.index;
            have_t = true;
        }
        if (!have_b || p.tbtS < best_b) {
            best_b = p.tbtS;
            res.bestTbtIndex = p.index;
            have_b = true;
        }
    }
    res.fractionEvaluated =
        res.shardPoints == 0
            ? 0.0
            : static_cast<double>(res.evaluated) /
                  static_cast<double>(res.shardPoints);
    res.frontier = frontierOfPoints(pts);
    if (have_t)
        res.bestTtft = evaluator_.evaluate(plan_.point(res.bestTtftIndex));
    if (have_b)
        res.bestTbt = evaluator_.evaluate(plan_.point(res.bestTbtIndex));

    if (obs::enabled()) {
        obs::counterAdd("dse.prune.waves", waves);
        obs::counterAdd("dse.prune.points.skipped",
                        res.shardPoints - res.evaluated);
    }
    return res;
}

std::vector<FrontierPoint>
frontierOfPoints(const std::vector<CheckpointPoint> &points)
{
    std::vector<FrontierPoint> kept;
    for (const CheckpointPoint &p : points) {
        if (p.flags & POINT_KEPT)
            kept.push_back({p.index, p.ttftS, p.tbtS});
    }
    std::sort(kept.begin(), kept.end(),
              [](const FrontierPoint &a, const FrontierPoint &b) {
                  if (a.ttftS != b.ttftS)
                      return a.ttftS < b.ttftS;
                  if (a.tbtS != b.tbtS)
                      return a.tbtS < b.tbtS;
                  return a.index < b.index;
              });
    std::vector<FrontierPoint> out;
    double best_tbt = std::numeric_limits<double>::infinity();
    for (const FrontierPoint &f : kept) {
        if (f.tbtS < best_tbt) {
            out.push_back(f);
            best_tbt = f.tbtS;
        }
    }
    return out;
}

} // namespace dse
} // namespace acs
