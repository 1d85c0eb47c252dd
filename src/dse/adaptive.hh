/**
 * @file
 * Coarse-to-fine adaptive design-space search (docs/DSE.md).
 *
 * Exhaustive streaming (DesignEvaluator::evaluateStream) is the right
 * tool up to ~10^6 designs; the fine-grained spaces this engine
 * targets (dse::fineSpace, 10^8-10^9 points) need pruning. The
 * engine exploits the sweep's AxisEffect factorization:
 *
 *  - Outer (dies, dim, lanes, cores) combinations are enumerated
 *    exactly — there are only hundreds, and die-local timing is
 *    discontinuous across them.
 *  - The inner COMPUTE axes (L1, L2, HBM bandwidth) are searched
 *    coarse-to-fine: a strided sub-lattice first, then survivors —
 *    the global top-k per metric plus everything within a band of the
 *    incumbent best — seed recursively refined neighborhoods at
 *    halved strides, down to stride 1 (pattern-search closure).
 *  - The COMM_ONLY device-bandwidth axis is never scanned: metrics
 *    are monotone non-increasing along it (wire time is volume over
 *    bandwidth), so per compute-class run a lock-step binary search
 *    brackets the first index attaining the run's best metric — the
 *    exact point exhaustive first-wins argmin selection would pick.
 *
 * Evaluation happens in deterministic waves (batches of plan indices
 * handed to DesignEvaluator::evaluatePlanIndices) against the run's
 * visited set, which makes the search a replay machine: resuming from
 * a checkpoint (dse/checkpoint.hh) replays the same wave sequence
 * with hits for completed work and lands in a byte-identical final
 * state. Shards (contiguous outer-cell ranges) run independently and
 * merge deterministically.
 *
 * A search object is reusable across keep-predicates: it keeps a
 * store of every point it has timed (TTFT, TBT and the two static
 * compliance flags, none of which depend on the predicate), and a
 * later run() re-applies its own predicate to stored points instead of
 * timing them again. Each run's result is exactly what a fresh search
 * object would return.
 */

#ifndef ACS_DSE_ADAPTIVE_HH
#define ACS_DSE_ADAPTIVE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dse/checkpoint.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"

namespace acs {
namespace dse {

/** Tuning knobs of AdaptiveSearch (defaults pass the exactness
 *  property tests on the Table 3 and Fig. 7 spaces while evaluating
 *  well under 30% of either space; tests/test_adaptive.cpp). */
struct AdaptiveConfig
{
    /**
     * Survivor band: every compute-class run whose best metric is
     * within (1 + bandFraction) of the incumbent best survives into
     * the next refinement round.
     */
    double bandFraction = 0.001;

    /** Global top-k runs per metric that always survive. */
    std::size_t topK = 2;

    /**
     * Per-outer-cell top-k runs per metric that always survive
     * (exempt from maxSurvivors). Outer cells are discontinuous
     * compute regimes — core count jumps with dies/dim/lanes — so a
     * cell whose coarse corners look mediocre can still hide the
     * global argmin at an interior point (the Table 5 space does
     * exactly this on the L1 axis). The escort guarantees every cell
     * completes its own local descent.
     */
    std::size_t cellTopK = 1;

    /** Cap on globally selected survivors per round (deterministic
     *  metric ordering; the per-cell escort is exempt). */
    std::size_t maxSurvivors = 16;

    /**
     * Bracket the COMM_ONLY device-bandwidth axis by binary search
     * instead of scanning it. Automatically disabled per search when
     * its preconditions fail: a keep-predicate is installed (kept-set
     * argmins need not be monotone) or the deviceBandwidths list is
     * not strictly ascending.
     */
    bool bracketCommAxis = true;

    /**
     * Stop (wave-aligned) once this many points have been evaluated
     * by this call (points new to the run, timed or taken from the
     * store alike); 0 = unlimited. A stopped search writes an
     * incomplete checkpoint and returns complete=false — this is the
     * preemption path (and how the tests simulate kill/resume).
     */
    std::size_t maxEvaluations = 0;

    /**
     * Snapshot cadence: write a checkpoint whenever this many new
     * points accumulated since the last write (checked at wave
     * boundaries). 0 = only at completion/stop.
     */
    std::size_t checkpointEveryPoints = 0;

    /**
     * Checkpoint file (dse::checkpointShardFile naming when driven
     * through the CLI). Empty disables checkpointing; when set, an
     * existing file is loaded and resumed from.
     */
    std::string checkpointPath;

    /** This process's shard (default: the whole space). */
    ShardSpec shard;

    /**
     * Caller-supplied workload identity mixed into the search
     * fingerprint (the evaluator itself is opaque); e.g.
     * "gpt3-tp8-batch4".
     */
    std::string workloadTag;

    /** Worker threads per evaluation wave; 0 = pool concurrency. */
    unsigned threads = 0;
};

/** One point of the evaluated Pareto frontier (TTFT vs TBT). */
struct FrontierPoint
{
    std::size_t index = 0; //!< flat plan index
    double ttftS = 0.0;
    double tbtS = 0.0;
};

/** Outcome of an adaptive search over one shard. */
struct AdaptiveResult
{
    std::size_t spacePoints = 0; //!< feasible points, whole space
    std::size_t shardPoints = 0; //!< feasible points in this shard
    std::size_t evaluated = 0;   //!< distinct points evaluated
    std::size_t kept = 0;        //!< evaluated && passed predicate
    std::size_t underReticle = 0;
    std::size_t oct2023Unregulated = 0;

    /** evaluated / shardPoints — the pruning headline. */
    double fractionEvaluated = 0.0;

    /**
     * Argmin designs over the evaluated kept set, materialized in
     * full (area/cost/compliance). On the spaces covered by the
     * exactness tests these equal the exhaustive stream's argmins
     * bit-for-bit, tie-broken to the lowest enumeration index.
     */
    std::optional<EvaluatedDesign> bestTtft;
    std::optional<EvaluatedDesign> bestTbt;
    std::size_t bestTtftIndex = 0;
    std::size_t bestTbtIndex = 0;

    /** Pareto frontier (TTFT vs TBT) over evaluated kept points,
     *  ascending TTFT / descending TBT, deduplicated, lowest-index
     *  representative per (ttft, tbt). */
    std::vector<FrontierPoint> frontier;

    /** False when maxEvaluations stopped the search early. */
    bool complete = true;

    /** Evaluation waves walked (cached waves included). */
    std::size_t waves = 0;
};

/**
 * The adaptive engine. Thread-compatible inputs (evaluator and space
 * must outlive the search); run() itself is single-threaded at the
 * orchestration level and parallelizes inside evaluation waves. One
 * object may run() many times, under different predicates; see the
 * file comment.
 */
class AdaptiveSearch
{
  public:
    /**
     * @param evaluator Workload-bound evaluator (shared layer graphs).
     * @param space     Space to search; compiled once into a plan.
     * @param cfg       Tuning knobs; see AdaptiveConfig.
     */
    AdaptiveSearch(const DesignEvaluator &evaluator,
                   const SweepSpace &space, AdaptiveConfig cfg = {});

    /**
     * Run the search (resuming from cfg.checkpointPath when the file
     * exists — fatal if its fingerprint does not match this search).
     *
     * Points an earlier run() of this object timed are not timed
     * again: the wave re-applies @p predicate to their stored
     * latencies. Everything the result reports (counts, waves,
     * frontier, argmins) and the checkpoint contents come from this
     * run's own visited set, so they equal a fresh object's run.
     *
     * @param predicate Keep-filter, as in evaluateStream. Installing
     *                  one disables COMM_ONLY bracketing (full dev
     *                  scans) — exactness over the kept set needs it.
     */
    AdaptiveResult
    run(const DesignEvaluator::StreamPredicate &predicate = nullptr);

    /** Distinct points timed by the perf kernels over this object's
     *  lifetime (the store's size; checkpoint-resumed points count). */
    std::size_t timedPoints() const { return store_.size(); }

    /**
     * Fingerprint of everything the search trajectory depends on:
     * space lists and base config, TPP target, the perf-model
     * constants, the workload tag, and the adaptive knobs — but NOT
     * the shard assignment or checkpoint cadence, so shards of one
     * search share a fingerprint and a pause/resume cycle never
     * invalidates its own snapshot.
     */
    static std::uint64_t
    searchFingerprint(const SweepSpace &space,
                      const perf::PerfParams &params,
                      const AdaptiveConfig &cfg);

    /** The compiled plan (for materializing frontier designs). */
    const SweepPlan &plan() const { return plan_; }

  private:
    struct RunState; // per compute-class run bookkeeping

    /**
     * The timed points: an append-only record vector in timing order
     * plus an open-addressed index (linear probing over a power-of-two
     * table of record ids), so a point costs no heap node — a 24-byte
     * record and 8-16 bytes of index.
     */
    class PointStore
    {
      public:
        static constexpr std::uint32_t NONE = 0xffffffffu;

        struct Record
        {
            double ttftS;
            double tbtS;
            std::uint64_t index : 62; //!< flat plan index
            std::uint64_t underReticle : 1;
            std::uint64_t oct2023Unregulated : 1;
        };

        /** Record id of plan index @p index, or NONE. */
        std::uint32_t find(std::size_t index) const;

        /** Append a record for an index not yet stored; its id. */
        std::uint32_t insert(std::size_t index, const PointSample &s);

        Record &operator[](std::uint32_t id) { return records_[id]; }
        const Record &operator[](std::uint32_t id) const
        {
            return records_[id];
        }
        std::size_t size() const { return records_.size(); }

      private:
        std::size_t slotOf(std::size_t index) const;
        void grow();

        std::vector<Record> records_;
        std::vector<std::uint32_t> slots_; //!< record id + 1; 0 = empty
        unsigned shift_ = 64;              //!< 64 - log2(slots_.size())
    };

    const DesignEvaluator &evaluator_;
    const SweepSpace &space_;
    AdaptiveConfig cfg_;
    SweepPlan plan_;
    PointStore store_;
    /** Per record: this run's visit (VISITED) and verdict (KEPT) bits. */
    std::vector<std::uint8_t> visit_;
};

/**
 * Build the pareto frontier of a merged checkpoint (or any point set)
 * without re-evaluating: kept points only, ascending TTFT with
 * strictly descending TBT, lowest index per coordinate pair.
 */
std::vector<FrontierPoint>
frontierOfPoints(const std::vector<CheckpointPoint> &points);

} // namespace dse
} // namespace acs

#endif // ACS_DSE_ADAPTIVE_HH
