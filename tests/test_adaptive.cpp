/**
 * @file
 * Property tests of the adaptive DSE engine (dse/adaptive.hh) and its
 * checkpoint/shard machinery (dse/checkpoint.hh):
 *
 *  - Exactness: on the paper's fig06 (Table 3) and fig07 spaces the
 *    adaptive search returns bit-identical argmin designs — config,
 *    metrics, and enumeration-index tie-break — to the exhaustive
 *    stream, while evaluating under 30% of the space. A randomized
 *    space generator fuzzes the same property.
 *  - Checkpoint/resume: a run killed mid-search (maxEvaluations)
 *    resumes from its snapshot to a final checkpoint byte-identical
 *    to an uninterrupted run's.
 *  - Shard merge: independent shard runs merge deterministically and
 *    recover the global argmin.
 *  - Reuse: one search object run under a sequence of predicates
 *    returns, run for run, what fresh objects return, and never times
 *    a point twice.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/study.hh"
#include "dse/adaptive.hh"
#include "dse/checkpoint.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"

namespace acs {
namespace dse {
namespace {

core::Workload
cheapWorkload(int tensor_parallel)
{
    core::Workload w = core::llamaWorkload();
    w.system.tensorParallel = tensor_parallel;
    return w;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Adaptive argmins must equal the exhaustive stream's bit-for-bit. */
void
expectMatchesExhaustive(const SweepSpace &space, const core::Workload &w,
                        double max_fraction)
{
    const DesignEvaluator evaluator(w.model, w.setting, w.system);
    const StreamStats exhaustive = evaluator.evaluateStream(space);

    AdaptiveSearch search(evaluator, space);
    const AdaptiveResult res = search.run();

    ASSERT_TRUE(exhaustive.bestTtft.has_value());
    ASSERT_TRUE(res.bestTtft.has_value());
    ASSERT_TRUE(res.bestTbt.has_value());
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.bestTtftIndex, exhaustive.bestTtftIndex);
    EXPECT_EQ(res.bestTbtIndex, exhaustive.bestTbtIndex);
    EXPECT_EQ(res.bestTtft->ttftS, exhaustive.bestTtft->ttftS);
    EXPECT_EQ(res.bestTtft->tbtS, exhaustive.bestTtft->tbtS);
    EXPECT_EQ(res.bestTbt->ttftS, exhaustive.bestTbt->ttftS);
    EXPECT_EQ(res.bestTbt->tbtS, exhaustive.bestTbt->tbtS);
    EXPECT_EQ(res.bestTtft->config.name,
              exhaustive.bestTtft->config.name);
    EXPECT_EQ(res.bestTbt->config.name, exhaustive.bestTbt->config.name);
    EXPECT_EQ(res.spacePoints, space.feasibleSize());
    EXPECT_LE(res.evaluated, res.shardPoints);
    if (max_fraction < 1.0) {
        EXPECT_LT(res.fractionEvaluated, max_fraction);
    }
}

// ---- exactness on the paper's spaces ---------------------------------------

TEST(AdaptiveSearch, MatchesExhaustiveOnFig06Space)
{
    expectMatchesExhaustive(
        table3Space(4800.0, {600.0 * units::GBPS}), cheapWorkload(4),
        0.30);
}

TEST(AdaptiveSearch, MatchesExhaustiveOnFig06SpaceSingleDevice)
{
    // TP=1 zeroes every allreduce: the whole dev axis ties, the
    // hardest case for the first-wins index tie-break.
    expectMatchesExhaustive(
        table3Space(4800.0, {600.0 * units::GBPS}), cheapWorkload(1),
        0.30);
}

TEST(AdaptiveSearch, MatchesExhaustiveOnFig07Spaces)
{
    const std::vector<double> dev = {500.0 * units::GBPS,
                                     700.0 * units::GBPS,
                                     900.0 * units::GBPS};
    for (double tpp : {1600.0, 2400.0, 4800.0}) {
        SCOPED_TRACE(tpp);
        expectMatchesExhaustive(table3Space(tpp, dev), cheapWorkload(4),
                                0.30);
    }
}

TEST(AdaptiveSearch, MatchesExhaustiveOnTable5Space)
{
    expectMatchesExhaustive(table5Space(), cheapWorkload(4), 1.0);
}

// ---- randomized spaces -----------------------------------------------------

TEST(AdaptiveSearch, MatchesExhaustiveOnRandomizedSpaces)
{
    std::mt19937 rng(20250809u);
    const auto axis = [&](double lo, double hi, std::size_t max_n) {
        std::uniform_int_distribution<std::size_t> count(1, max_n);
        std::uniform_real_distribution<double> value(lo, hi);
        const std::size_t n = count(rng);
        std::vector<double> v(n);
        for (double &x : v)
            x = value(rng);
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        return v;
    };
    for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(trial);
        SweepSpace space = table3Space(4800.0, {});
        space.l1BytesPerCore =
            axis(128.0 * units::KIB, 1024.0 * units::KIB, 6);
        space.l2Bytes = axis(16.0 * units::MIB, 96.0 * units::MIB, 6);
        space.memBandwidths =
            axis(1.0 * units::TBPS, 3.2 * units::TBPS, 6);
        space.deviceBandwidths =
            axis(200.0 * units::GBPS, 900.0 * units::GBPS, 5);
        // Small spaces refine into full coverage; exactness is the
        // property under test here, not the pruning ratio.
        expectMatchesExhaustive(space, cheapWorkload(4), 1.0);
    }
}

// ---- reuse across predicates -----------------------------------------------

/** Every AdaptiveResult field, exactly. */
void
expectSameResult(const AdaptiveResult &a, const AdaptiveResult &b)
{
    EXPECT_EQ(a.spacePoints, b.spacePoints);
    EXPECT_EQ(a.shardPoints, b.shardPoints);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.underReticle, b.underReticle);
    EXPECT_EQ(a.oct2023Unregulated, b.oct2023Unregulated);
    EXPECT_EQ(a.fractionEvaluated, b.fractionEvaluated);
    EXPECT_EQ(a.bestTtftIndex, b.bestTtftIndex);
    EXPECT_EQ(a.bestTbtIndex, b.bestTbtIndex);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.waves, b.waves);
    for (const auto &[x, y] : {std::pair(&a.bestTtft, &b.bestTtft),
                               std::pair(&a.bestTbt, &b.bestTbt)}) {
        ASSERT_EQ(x->has_value(), y->has_value());
        if (!x->has_value())
            continue;
        const EvaluatedDesign &dx = **x, &dy = **y;
        EXPECT_EQ(dx.config, dy.config);
        EXPECT_EQ(dx.tpp, dy.tpp);
        EXPECT_EQ(dx.dieAreaMm2, dy.dieAreaMm2);
        EXPECT_EQ(dx.perfDensity, dy.perfDensity);
        EXPECT_EQ(dx.dieCostUsd, dy.dieCostUsd);
        EXPECT_EQ(dx.goodDieCostUsd, dy.goodDieCostUsd);
        EXPECT_EQ(dx.ttftS, dy.ttftS);
        EXPECT_EQ(dx.tbtS, dy.tbtS);
        EXPECT_EQ(dx.underReticle, dy.underReticle);
    }
    ASSERT_EQ(a.frontier.size(), b.frontier.size());
    for (std::size_t i = 0; i < a.frontier.size(); ++i) {
        EXPECT_EQ(a.frontier[i].index, b.frontier[i].index);
        EXPECT_EQ(a.frontier[i].ttftS, b.frontier[i].ttftS);
        EXPECT_EQ(a.frontier[i].tbtS, b.frontier[i].tbtS);
    }
}

/**
 * Run @p preds in order on one AdaptiveSearch and each on a fresh
 * object with the same config: results and final checkpoint bytes
 * must match run for run. Returns the reused object's results;
 * @p timed receives its timedPoints() after each run.
 */
std::vector<AdaptiveResult>
expectReuseMatchesFresh(
    const DesignEvaluator &evaluator, const SweepSpace &space,
    AdaptiveConfig cfg,
    const std::vector<DesignEvaluator::StreamPredicate> &preds,
    std::vector<std::size_t> *timed)
{
    const std::string path =
        testing::TempDir() + "acs-adaptive-reuse.ckpt";
    cfg.checkpointPath = path;
    AdaptiveSearch reused(evaluator, space, cfg);
    std::vector<AdaptiveResult> out;
    for (std::size_t k = 0; k < preds.size(); ++k) {
        SCOPED_TRACE("run " + std::to_string(k));
        // Each run starts from no snapshot, so both objects search
        // from scratch and their final snapshots are comparable.
        std::remove(path.c_str());
        out.push_back(reused.run(preds[k]));
        timed->push_back(reused.timedPoints());
        const std::string reused_bytes = slurp(path);
        std::remove(path.c_str());
        const AdaptiveResult fresh =
            AdaptiveSearch(evaluator, space, cfg).run(preds[k]);
        expectSameResult(out.back(), fresh);
        EXPECT_EQ(reused_bytes, slurp(path));
    }
    std::remove(path.c_str());
    return out;
}

TEST(AdaptiveReuse, PredicateSequenceMatchesFreshObjects)
{
    const SweepSpace space = table3Space(
        4800.0, {400.0 * units::GBPS, 600.0 * units::GBPS});
    const core::Workload w = cheapWorkload(4);
    const DesignEvaluator evaluator(w.model, w.setting, w.system);

    const DesignEvaluator::StreamPredicate p1 =
        [](const EvaluatedDesign &d) { return d.underReticle; };
    // A latency-dependent predicate: stored points must reach it with
    // their stored TTFT. The cut excludes P1's best design, so P2's
    // trajectory differs from P1's.
    AdaptiveConfig cfg;
    cfg.threads = 7;
    const AdaptiveResult first = AdaptiveSearch(evaluator, space, cfg).run(p1);
    ASSERT_TRUE(first.bestTtft.has_value());
    const double cut = first.bestTtft->ttftS;
    const DesignEvaluator::StreamPredicate p2 =
        [cut](const EvaluatedDesign &d) {
            return d.ttftS > cut && d.oct2023Unregulated();
        };

    const std::vector<DesignEvaluator::StreamPredicate> seq = {
        p1, p2, p1, nullptr, p2};
    std::vector<std::size_t> timed;
    const std::vector<AdaptiveResult> runs =
        expectReuseMatchesFresh(evaluator, space, cfg, seq, &timed);
    ASSERT_EQ(runs.size(), seq.size());
    EXPECT_NE(runs[0].bestTtftIndex, runs[1].bestTtftIndex);
    for (const AdaptiveResult &r : runs)
        EXPECT_TRUE(r.complete);
    // The first run times all it visits; repeating a predicate times
    // nothing new, and the store never exceeds the points visited.
    EXPECT_EQ(timed[0], runs[0].evaluated);
    EXPECT_EQ(timed[2], timed[1]);
    EXPECT_EQ(timed[4], timed[3]);
    EXPECT_LT(timed[4], runs[0].evaluated + runs[1].evaluated +
                            runs[3].evaluated);

    // The same sequence under a budget that stops the P2 runs: a
    // reused object stops at the same wave as a fresh one, because
    // the budget counts points new to the run, not to the store.
    AdaptiveConfig budget = cfg;
    budget.maxEvaluations = runs[1].evaluated - 1;
    timed.clear();
    const std::vector<AdaptiveResult> stopped =
        expectReuseMatchesFresh(evaluator, space, budget, seq, &timed);
    EXPECT_FALSE(stopped[1].complete);
    EXPECT_FALSE(stopped.back().complete);
}

TEST(AdaptiveReuse, CoveredSpaceTimesNothingTwice)
{
    // Two values per inner axis: the coarse lattice is the whole
    // space, so the first run covers every point.
    SweepSpace space = table3Space(4800.0, {400.0 * units::GBPS,
                                            600.0 * units::GBPS});
    space.l1BytesPerCore.resize(2);
    space.l2Bytes.resize(2);
    space.memBandwidths.resize(2);
    const core::Workload w = cheapWorkload(4);
    const DesignEvaluator evaluator(w.model, w.setting, w.system);
    AdaptiveConfig cfg;
    cfg.threads = 7;
    AdaptiveSearch search(evaluator, space, cfg);

    const AdaptiveResult all = search.run();
    EXPECT_EQ(all.evaluated, all.shardPoints);
    EXPECT_EQ(search.timedPoints(), all.evaluated);
    const AdaptiveResult kept = search.run(
        [](const EvaluatedDesign &d) { return d.oct2023Unregulated(); });
    EXPECT_EQ(search.timedPoints(), all.evaluated); // nothing re-timed
    expectSameResult(kept,
                     AdaptiveSearch(evaluator, space, cfg)
                         .run([](const EvaluatedDesign &d) {
                             return d.oct2023Unregulated();
                         }));
}

// ---- checkpoint/resume -----------------------------------------------------

TEST(AdaptiveCheckpoint, KillResumeIsByteIdenticalToStraightRun)
{
    const SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    const core::Workload w = cheapWorkload(1);
    const DesignEvaluator evaluator(w.model, w.setting, w.system);

    const std::string full_path =
        testing::TempDir() + "acs-adaptive-full.ckpt";
    const std::string kill_path =
        testing::TempDir() + "acs-adaptive-kill.ckpt";
    std::remove(full_path.c_str());
    std::remove(kill_path.c_str());

    AdaptiveConfig cfg;
    cfg.checkpointPath = full_path;
    const AdaptiveResult straight =
        AdaptiveSearch(evaluator, space, cfg).run();
    EXPECT_TRUE(straight.complete);

    // Kill: the budget stops the search wave-aligned after the coarse
    // round; the final (incomplete) snapshot still lands on disk.
    AdaptiveConfig kill = cfg;
    kill.checkpointPath = kill_path;
    kill.maxEvaluations = 70;
    const AdaptiveResult killed =
        AdaptiveSearch(evaluator, space, kill).run();
    EXPECT_FALSE(killed.complete);
    EXPECT_LE(killed.evaluated, 70u);

    {
        Checkpoint ck;
        ASSERT_TRUE(readCheckpoint(kill_path, &ck));
        EXPECT_FALSE(ck.complete);
        EXPECT_EQ(ck.points.size(), killed.evaluated);
    }

    // Resume without a budget: replays the trajectory with cache hits
    // and runs to convergence.
    AdaptiveConfig resume = cfg;
    resume.checkpointPath = kill_path;
    const AdaptiveResult resumed =
        AdaptiveSearch(evaluator, space, resume).run();
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.evaluated, straight.evaluated);
    EXPECT_EQ(resumed.waves, straight.waves);
    EXPECT_EQ(resumed.bestTtftIndex, straight.bestTtftIndex);
    EXPECT_EQ(resumed.bestTbtIndex, straight.bestTbtIndex);
    ASSERT_EQ(resumed.frontier.size(), straight.frontier.size());
    for (std::size_t i = 0; i < resumed.frontier.size(); ++i) {
        EXPECT_EQ(resumed.frontier[i].index, straight.frontier[i].index);
        EXPECT_EQ(resumed.frontier[i].ttftS, straight.frontier[i].ttftS);
        EXPECT_EQ(resumed.frontier[i].tbtS, straight.frontier[i].tbtS);
    }

    // The resumed final checkpoint is byte-identical to the straight
    // run's — the whole file, frontier included by construction.
    EXPECT_EQ(slurp(kill_path), slurp(full_path));

    std::remove(full_path.c_str());
    std::remove(kill_path.c_str());
}

TEST(AdaptiveCheckpoint, WriteReadRoundTripIsExact)
{
    Checkpoint ck;
    ck.fingerprint = 0xdeadbeefcafef00dull;
    ck.shard = ShardSpec{2, 8};
    ck.spacePoints = 123456789;
    ck.complete = false;
    ck.waves = 17;
    // Awkward doubles: subnormal, negative zero, huge, tiny.
    ck.points.push_back({0, 5e-324, -0.0, POINT_KEPT});
    ck.points.push_back({41, 1.0 / 3.0, 2.0 / 3.0,
                         POINT_KEPT | POINT_UNDER_RETICLE});
    ck.points.push_back({999999999999ull, 1e308, 2.5e-308,
                         POINT_UNREGULATED});

    const std::string path =
        testing::TempDir() + "acs-ckpt-roundtrip.ckpt";
    writeCheckpoint(path, ck);
    Checkpoint back;
    ASSERT_TRUE(readCheckpoint(path, &back));
    EXPECT_EQ(back.version, CHECKPOINT_VERSION);
    EXPECT_EQ(back.fingerprint, ck.fingerprint);
    EXPECT_TRUE(back.shard == ck.shard);
    EXPECT_EQ(back.spacePoints, ck.spacePoints);
    EXPECT_EQ(back.complete, ck.complete);
    EXPECT_EQ(back.waves, ck.waves);
    ASSERT_EQ(back.points.size(), ck.points.size());
    for (std::size_t i = 0; i < ck.points.size(); ++i) {
        EXPECT_EQ(back.points[i].index, ck.points[i].index);
        // Bit-level comparison (EXPECT_EQ on -0.0 would pass vs 0.0).
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.points[i].ttftS),
                  std::bit_cast<std::uint64_t>(ck.points[i].ttftS));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.points[i].tbtS),
                  std::bit_cast<std::uint64_t>(ck.points[i].tbtS));
        EXPECT_EQ(back.points[i].flags, ck.points[i].flags);
    }
    std::remove(path.c_str());
}

TEST(AdaptiveCheckpoint, MissingFileReadsFalse)
{
    Checkpoint ck;
    EXPECT_FALSE(
        readCheckpoint(testing::TempDir() + "acs-no-such.ckpt", &ck));
}

/**
 * Write a valid two-point checkpoint, replace its line @p key ... with
 * @p forged, read it back, and return the FatalError message (empty
 * when the read succeeded or threw anything else).
 */
std::string
readForged(const std::string &key, const std::string &forged)
{
    Checkpoint ck;
    ck.fingerprint = 0xfeedull;
    ck.shard = ShardSpec{0, 1};
    ck.spacePoints = 1000;
    ck.waves = 3;
    ck.points.push_back({4, 1.5, 2.5, POINT_KEPT});
    ck.points.push_back({9, 0.5, 0.25, 0});
    const std::string path = testing::TempDir() + "acs-ckpt-forged.ckpt";
    writeCheckpoint(path, ck);

    std::string text = slurp(path);
    const std::size_t at = text.find("\n" + key + " ") + 1;
    EXPECT_NE(at, 0u) << key;
    text.replace(at, text.find('\n', at) - at, forged);
    std::ofstream(path, std::ios::trunc) << text;

    std::string message;
    try {
        Checkpoint back;
        readCheckpoint(path, &back);
    } catch (const FatalError &e) {
        message = e.what();
    } catch (...) {
    }
    std::remove(path.c_str());
    return message;
}

TEST(AdaptiveCheckpoint, ForgedPointCountIsNamedError)
{
    // Once ended in std::bad_alloc from reserve().
    const std::string huge = readForged("points", "points 99999999999999");
    EXPECT_NE(huge.find("acs-ckpt-forged.ckpt:7: points 99999999999999 "
                        "exceeds space_points 1000"),
              std::string::npos)
        << huge;

    // Within space_points but more lines than the file has bytes for.
    const std::string long_count = readForged("points", "points 900");
    EXPECT_NE(long_count.find(":7: points 900 cannot fit in the"),
              std::string::npos)
        << long_count;
}

TEST(AdaptiveCheckpoint, BadValueNamesFileAndLine)
{
    // Once "numeric argument expected" (std::invalid_argument), with
    // no file or line.
    const std::string waves = readForged("waves", "waves xyz");
    EXPECT_NE(waves.find("acs-ckpt-forged.ckpt:6: waves: 'xyz' is not "
                         "a number"),
              std::string::npos)
        << waves;

    // Prefix parsing once read "12x" as 12.
    const std::string trailing =
        readForged("space_points", "space_points 12x");
    EXPECT_NE(trailing.find(":4: space_points: '12x' has trailing"),
              std::string::npos)
        << trailing;

    const std::string flags = readForged("p", "p 9 3fe0000000000000 "
                                              "3fd0000000000000 zz");
    EXPECT_NE(flags.find(":8: flags: 'zz' is not a number"),
              std::string::npos)
        << flags;

    EXPECT_NE(readForged("complete", "complete 2").find(
                  ":5: complete must be 0 or 1"),
              std::string::npos);
    EXPECT_NE(readForged("shard", "shard 0").find(
                  ":3: expected 2 space-separated fields, got 1"),
              std::string::npos);
}

TEST(AdaptiveCheckpoint, SearchFingerprintPinned)
{
    // Checkpoints written by earlier builds resume only while the
    // default search fingerprint stays put: these are the values
    // every earlier release computed for the fig06 space.
    const SweepSpace space = table3Space(4800.0, {600.0 * units::GBPS});
    EXPECT_EQ(AdaptiveSearch::searchFingerprint(space, perf::PerfParams{},
                                                AdaptiveConfig{}),
              0xfd6d399a0c85559eull);
    perf::PerfParams tile;
    tile.gemmMode = perf::GemmMode::TILE_SIM;
    EXPECT_EQ(AdaptiveSearch::searchFingerprint(space, tile,
                                                AdaptiveConfig{}),
              0xa614eb981cb0f367ull);
}

// ---- sharding --------------------------------------------------------------

TEST(ShardSpec, ParseAndRange)
{
    const ShardSpec s = parseShardSpec("2/8");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 8u);
    EXPECT_THROW(parseShardSpec("8/8"), FatalError);
    EXPECT_THROW(parseShardSpec("nope"), FatalError);
    EXPECT_THROW(parseShardSpec("1x/8"), FatalError);
    EXPECT_THROW(parseShardSpec("-1/8"), FatalError);

    // Ranges partition [0, outers) contiguously, remainder up front.
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        const auto [first, last] = shardOuterRange({i, 3}, 8);
        EXPECT_EQ(first, prev_end);
        prev_end = last;
        covered += last - first;
    }
    EXPECT_EQ(prev_end, 8u);
    EXPECT_EQ(covered, 8u);
}

TEST(AdaptiveShards, MergedShardsRecoverGlobalArgmin)
{
    const SweepSpace space = table3Space(
        2400.0, {500.0 * units::GBPS, 700.0 * units::GBPS,
                 900.0 * units::GBPS});
    const core::Workload w = cheapWorkload(4);
    const DesignEvaluator evaluator(w.model, w.setting, w.system);
    const StreamStats exhaustive = evaluator.evaluateStream(space);

    std::vector<Checkpoint> shards;
    for (std::size_t i = 0; i < 2; ++i) {
        const std::string path = testing::TempDir() + "acs-shard-" +
                                 std::to_string(i) + ".ckpt";
        std::remove(path.c_str());
        AdaptiveConfig cfg;
        cfg.shard = ShardSpec{i, 2};
        cfg.checkpointPath = path;
        const AdaptiveResult res =
            AdaptiveSearch(evaluator, space, cfg).run();
        EXPECT_TRUE(res.complete);
        Checkpoint ck;
        ASSERT_TRUE(readCheckpoint(path, &ck));
        EXPECT_TRUE(ck.complete);
        shards.push_back(std::move(ck));
        std::remove(path.c_str());
    }

    // Merge validates coverage and keeps points sorted by index.
    const Checkpoint merged = mergeShardCheckpoints(shards);
    EXPECT_TRUE(merged.complete);
    EXPECT_EQ(merged.shard.count, 1u);
    for (std::size_t i = 1; i < merged.points.size(); ++i)
        EXPECT_LT(merged.points[i - 1].index, merged.points[i].index);

    // The global argmin is the min over shard-local argmins, each of
    // which the per-shard search found exactly.
    bool have = false;
    double best = 0.0;
    std::size_t best_index = 0;
    for (const CheckpointPoint &p : merged.points) {
        if (!(p.flags & POINT_KEPT))
            continue;
        if (!have || p.ttftS < best) {
            best = p.ttftS;
            best_index = p.index;
            have = true;
        }
    }
    ASSERT_TRUE(have && exhaustive.bestTtft.has_value());
    EXPECT_EQ(best_index, exhaustive.bestTtftIndex);
    EXPECT_EQ(best, exhaustive.bestTtft->ttftS);

    // Frontier of the merged set: strictly tradeoff-ordered.
    const std::vector<FrontierPoint> frontier =
        frontierOfPoints(merged.points);
    ASSERT_FALSE(frontier.empty());
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].ttftS, frontier[i - 1].ttftS);
        EXPECT_LT(frontier[i].tbtS, frontier[i - 1].tbtS);
    }
    EXPECT_EQ(frontier.front().ttftS, exhaustive.bestTtft->ttftS);

    // Mismatched fingerprints must refuse to merge.
    std::vector<Checkpoint> bad = shards;
    bad[1].fingerprint ^= 1;
    EXPECT_THROW(mergeShardCheckpoints(bad), FatalError);
}

} // namespace
} // namespace dse
} // namespace acs
