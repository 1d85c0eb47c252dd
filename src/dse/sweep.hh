/**
 * @file
 * Design-space sweep generation (Sec. 3.3, Tables 3 and 5).
 *
 * A SweepSpace is the cartesian product of architectural parameter
 * lists at a fixed TPP target: systolic dims and lanes/core are swept
 * and the core count is solved from Eq. 1 to stay at/under the target.
 */

#ifndef ACS_DSE_SWEEP_HH
#define ACS_DSE_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "hw/config.hh"

namespace acs {
namespace dse {

class SweepPlan;

/**
 * How a sweep axis influences an evaluated design.
 *
 * COMPUTE axes change die-local timing (GEMM/vector latencies):
 * varying one invalidates any cached per-op simulation result.
 * COMM_ONLY axes change only the device-device interconnect (and the
 * classification metrics derived from it) — die-local GEMM timing is
 * invariant along them, which is what lets a sweep-scoped GEMM cache
 * (perf::GemmCache) reuse one simulation across the entire axis. See
 * docs/PERF.md ("Cross-design GEMM memoization").
 */
enum class AxisEffect
{
    COMPUTE,
    COMM_ONLY,
};

/** One sweep axis: its name, effect class, and value count. */
struct SweepAxis
{
    const char *name;
    AxisEffect effect;
    std::size_t count;
};

/** Parameter lists whose cartesian product is the design space. */
struct SweepSpace
{
    /** Base configuration supplying every non-swept field. */
    hw::HardwareConfig base;

    /** TPP ceiling; core count is maximized under it (Eq. 1). */
    double tppTarget = 4800.0;

    std::vector<int> systolicDims;          //!< square DIMX = DIMY
    std::vector<int> lanesPerCore;
    std::vector<double> l1BytesPerCore;
    std::vector<double> l2Bytes;
    std::vector<double> memBandwidths;      //!< bytes/s
    std::vector<double> deviceBandwidths;   //!< bytes/s, bidirectional
    std::vector<int> diesPerPackage = {1};  //!< chiplet counts

    /**
     * The *raw* cartesian-product size of the parameter lists — an
     * upper bound on what the space generates. generate() (and every
     * SweepPlan-backed enumeration) skips infeasible outer
     * combinations whose TPP budget cannot fit even one core, so the
     * actual point count is feasibleSize() <= size(). Spaces whose
     * lists all admit at least one core (the paper's Table 3/5
     * spaces) have feasibleSize() == size().
     */
    std::size_t size() const;

    /**
     * The number of design points the space actually enumerates:
     * size() minus the points of infeasible (dies, dim, lanes) outer
     * combinations. Exactly generate().size().
     *
     * Memoized: the first call compiles a SweepPlan (emitting its
     * one-per-combination skip warnings); repeat calls pay only a
     * fingerprint of the parameter lists, recomputed so mutating any
     * swept field (or tppTarget / the base clock) invalidates the
     * cached count automatically.
     */
    std::size_t feasibleSize() const;

    /**
     * feasibleSize() memo (fingerprint of the fields the count
     * depends on, plus the cached value). Mutable bookkeeping only —
     * public because SweepSpace is an aggregate; not part of the API.
     */
    mutable std::uint64_t feasibleFp_ = 0;
    mutable std::size_t feasibleCount_ = 0;
    mutable bool feasibleCached_ = false;

    /**
     * The sweep axes in enumeration order, outermost first, each
     * tagged compute-affecting or comm-only. The enumeration
     * invariant (held by SweepPlan and asserted in tests/test_dse.cpp)
     * is that comm-only axes are innermost: designs sharing all
     * die-local compute parameters occupy contiguous index runs, so a
     * cross-design GEMM cache hits on every design of a run after its
     * first.
     */
    std::vector<SweepAxis> axes() const;

    /**
     * Materialize every design point.
     *
     * Points whose TPP budget cannot fit even one core are skipped
     * with a warning (they cannot exist). Device bandwidth is realized
     * as 50 GB/s PHYs.
     */
    std::vector<hw::HardwareConfig> generate() const;

    /**
     * Streaming enumeration: invoke @p fn with every design point
     * generate() would materialize — same points, same order, same
     * names — plus the point's enumeration index, without ever holding
     * more than one config alive. This is the O(1)-memory producer the
     * fused sweep pipeline (DesignEvaluator::evaluateStream) builds
     * on.
     */
    void forEach(const std::function<void(const hw::HardwareConfig &,
                                          std::size_t)> &fn) const;
};

/**
 * A compiled sweep space: the feasible (dies, systolicDim, lanes,
 * cores) outer combinations, each spanning one contiguous block of
 * |l1| x |l2| x |memBw| x |devBw| enumeration indices.
 *
 * Solving the outer loop once makes every design point independently
 * addressable by its flat index (point(i)), which is what lets sweep
 * workers claim chunks of the space off an atomic cursor and build
 * only the points they own — the cartesian product is never
 * materialized. Construction performs the feasibility checks (and
 * emits the one-per-combination warnings) that generate() does.
 *
 * Thread-compatible: const after construction.
 */
class SweepPlan
{
  public:
    /** Compiles @p space (fatal on empty parameter lists). */
    explicit SweepPlan(const SweepSpace &space);

    /** Design points the plan enumerates (== generate().size()). */
    std::size_t pointCount() const { return pointCount_; }

    /** Feasible (dies, dim, lanes, cores) outer combinations. */
    std::size_t outerCount() const { return outers_.size(); }

    /**
     * Points per outer combination: |l1| x |l2| x |memBw| x |devBw|.
     * Outer cell o spans flat indices [o * innerBlockSize(), (o + 1) *
     * innerBlockSize()) — the natural shard boundary (dse::ShardSpec):
     * no compute-class run, and no inner-axis refinement neighborhood,
     * ever crosses an outer cell.
     */
    std::size_t innerBlockSize() const { return innerBlock_; }

    /**
     * Build the design point at flat index @p index (bounds-checked;
     * identical to generate()[index]).
     */
    hw::HardwareConfig point(std::size_t index) const;

    /**
     * Length of one compute-class run: the number of consecutive
     * enumeration indices that share every compute-affecting
     * parameter and differ only along comm-only axes (currently the
     * deviceBandwidths axis, which SweepPlan keeps innermost — see
     * SweepSpace::axes()). Designs i and j share die-local GEMM
     * timing whenever i / commOnlyRunLength() == j /
     * commOnlyRunLength().
     */
    std::size_t commOnlyRunLength() const
    {
        return space_.deviceBandwidths.size();
    }

    /**
     * Build the design point at flat index @p index into @p out.
     *
     * Same point as the returning overload, but reusing the caller's
     * config, and in particular its name string's heap buffer. This
     * is the first step of the per-design sweep path, which allocates
     * and formats nothing once its per-worker scratch is warm
     * (docs/DSE.md, "Hot-path rule"): the name is spliced from
     * fragments precompiled by the constructor, and the range check
     * builds its message only when it fails. Hot loops keep one
     * scratch config per worker and fill it in place;
     * tests/test_alloc_free.cpp pins the allocation count.
     */
    void point(std::size_t index, hw::HardwareConfig *out) const;

    /** The compiled space (kept by reference; must outlive the plan). */
    const SweepSpace &space() const { return space_; }

  private:
    struct OuterPoint
    {
        int dies;
        int dim;
        int lanes;
        int cores;
        std::string namePrefix; //!< "dse-<dim>x<dim>-l<lanes>-c<cores>-L1."
        std::string diesSuffix; //!< "-d<dies>", empty for single-die
    };

    const SweepSpace &space_;
    std::vector<OuterPoint> outers_;
    /**
     * Per inner-index name tail "<l1>K-L2.<l2>M-hbm<mem>T-dev<dev>G":
     * every design name is namePrefix + innerSuffix + diesSuffix, so
     * compiling the fragments here keeps all number formatting out of
     * point() (glibc's float printf serializes across sweep workers).
     *
     * The tails share one buffer (tail i spans offsets i to i + 1)
     * instead of taking one heap string each.
     *
     * Only built while innerBlock_ stays small (the paper's Table 3/5
     * spaces): a fine-grained adaptive space (dse::fineSpace) has
     * millions of inner points per outer cell, where a full suffix
     * table would cost hundreds of megabytes to enumerate a space the
     * adaptive engine then samples sparsely. Above the threshold
     * point() splices four per-axis fragments instead — byte-identical
     * names (same fragments, same order), one extra append per axis.
     */
    std::string innerSuffixChars_; //!< every tail, back to back
    std::vector<std::uint32_t> innerSuffixOffsets_; //!< tail i starts here
    std::vector<std::string> l1Frags_;  //!< "<l1>K-L2."
    std::vector<std::string> l2Frags_;  //!< "<l2>M-hbm"
    std::vector<std::string> memFrags_; //!< "<mem>T-dev"
    std::vector<std::string> devFrags_; //!< "<dev>G"
    std::size_t innerBlock_ = 0; //!< points per OuterPoint
    std::size_t pointCount_ = 0;
};

/**
 * The Table 3 space used for Figs. 6 and 7.
 *
 * @param tpp_target       4800 (Fig. 6) or one of {1600, 2400, 4800}
 *                         (Fig. 7).
 * @param device_bandwidths Device-bandwidth list in bytes/s:
 *                         {600 GB/s} for Fig. 6,
 *                         {500, 700, 900 GB/s} for Fig. 7.
 */
SweepSpace table3Space(double tpp_target,
                       std::vector<double> device_bandwidths);

/**
 * The Table 5 restricted space used for Fig. 12 (parameters at or
 * below the modeled A100; 2304 points).
 */
SweepSpace table5Space();

/**
 * A fine-grained Table-3-style space for the adaptive DSE engine
 * (docs/DSE.md): the Table 3 outer axes densified (systolic dims in
 * steps of 4, all lane counts, 1- and 2-die packages) and dense inner
 * grids — L1 in 32 KiB steps, L2 in 2 MiB steps, HBM bandwidth in
 * 0.05 TB/s steps, device bandwidth in 25 GB/s steps. ~1.7 x 10^8
 * feasible designs: three-plus orders of magnitude finer than Table 3,
 * sized for AdaptiveSearch (exhaustive enumeration at the streaming
 * rate would take most of an hour; see results/BENCH_dse.json).
 */
SweepSpace fineSpace(double tpp_target = 4800.0);

} // namespace dse
} // namespace acs

#endif // ACS_DSE_SWEEP_HH
