#include "cycle_sim.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "perf/matmul_model.hh"

namespace acs {
namespace perf {

namespace {

// FP16 element size; the tensor path the TPP definition regulates.
constexpr std::int64_t ELEM_BYTES = 2;

std::int64_t
ceilDivI(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Tile shape classes — the same <= 4-class insight TILE_SIM's
 * aggregation uses: with a fixed (tileM, tileN) grid, every tile job
 * is interior, m-edge, n-edge, or corner, so all per-tile constants
 * collapse to four precomputed values.
 */
enum TileClass
{
    INTERIOR = 0,
    M_EDGE,
    N_EDGE,
    CORNER,
    NUM_CLASSES,
};

/**
 * Every integer constant both engines read, computed once from
 * (device, op, params) so the coalesced and naive loops cannot
 * diverge. Timing is integer core clocks throughout: that is what
 * makes the bit-exactness contract (and exact replay) tractable.
 */
struct CycleModel
{
    long tileM = 0, tileN = 0;
    std::int64_t mTiles = 0, nTiles = 0;
    std::int64_t grid = 0; //!< tiles per batch slice (mTiles * nTiles)
    std::int64_t jobs = 0; //!< total tile jobs (batch * grid)
    int arrays = 0;        //!< systolic arrays (static job round-robin)
    bool hasMRem = false;  //!< last tile row is a true remainder
    bool hasNRem = false;  //!< last tile column is a true remainder
    bool overlapOk = true; //!< next-tile fill overlaps current compute

    /** Systolic cycles per tile: k/n passes + one-time fill/drain. */
    std::int64_t computeCycles[NUM_CLASSES] = {};
    /** Shared L2->scratchpad pipe occupancy per tile fill. */
    std::int64_t l2Cycles[NUM_CLASSES] = {};

    std::int64_t fillReqs = 0;  //!< DRAM requests per tile fill
    std::int64_t svcCycles = 0; //!< bank service time per request
    int banks = 1;              //!< DRAM bank timelines
    int window = 1;             //!< max outstanding requests per array

    // An array's next job is `arrays` further on, so its grid slot and
    // tile column advance by fixed steps and its bank cursor ends each
    // fill `fillReqs % banks` past where it started: no per-tile
    // division.
    std::int64_t slotStep = 0; //!< arrays % grid
    std::int64_t colStep = 0;  //!< arrays % nTiles
    int bankRewind = 0;        //!< fillReqs % banks

    /** Class of the tile at grid @p slot, tile column @p col. */
    std::uint8_t
    classAt(std::int64_t slot, std::int64_t col) const
    {
        const bool m_edge = hasMRem && slot >= grid - nTiles;
        const bool n_edge = hasNRem && col == nTiles - 1;
        return m_edge ? (n_edge ? CORNER : M_EDGE)
                      : (n_edge ? N_EDGE : INTERIOR);
    }
};

CycleModel
buildModel(const hw::HardwareConfig &cfg, const model::Op &op,
           const PerfParams &params)
{
    const auto &mm = op.mm;
    CycleModel cm;

    // Same tile-selection policy as MatmulModel/TILE_SIM, so the three
    // modes time the same schedule and stay directly comparable.
    const TileChoice tiles = chooseTiles(cfg, mm, params);
    cm.tileM = tiles.tileM;
    cm.tileN = tiles.tileN;
    cm.mTiles = ceilDivI(mm.m, cm.tileM);
    cm.nTiles = ceilDivI(mm.n, cm.tileN);
    cm.grid = cm.mTiles * cm.nTiles;
    cm.jobs = static_cast<std::int64_t>(mm.batchCount) * cm.grid;
    cm.arrays = cfg.totalSystolicArrays();

    const std::int64_t m_rem = mm.m - (cm.mTiles - 1) * cm.tileM;
    const std::int64_t n_rem = mm.n - (cm.nTiles - 1) * cm.tileN;
    cm.hasMRem = m_rem != cm.tileM;
    cm.hasNRem = n_rem != cm.tileN;
    const std::int64_t tm[NUM_CLASSES] = {cm.tileM, m_rem, cm.tileM,
                                          m_rem};
    const std::int64_t tn[NUM_CLASSES] = {cm.tileN, cm.tileN, n_rem,
                                          n_rem};

    // Compute: each of the ceil(k/DIMX) x ceil(tn/DIMY) passes streams
    // tm rows through the array plus the exposed fraction of the
    // fill/drain bubble; one full fill + drain is charged per tile
    // (the prologue/drain the closed forms amortize away).
    const std::int64_t pipe_depth = cfg.systolicDimX + cfg.systolicDimY;
    const std::int64_t exposed_fill =
        params.modelPipelineFill
            ? static_cast<std::int64_t>(
                  std::ceil((1.0 - params.pipelineFillOverlap) *
                            static_cast<double>(pipe_depth)))
            : 0;
    // L2->scratchpad fill pipe: shared across arrays, sized like the
    // global-buffer bandwidth the analytic model uses. A fetches once
    // per tile, the B slab is shared by the core's lanes.
    const double l2_bytes_per_cycle =
        params.l2BytesPerCyclePerFpu *
        static_cast<double>(cfg.totalSystolicFpus()) * params.l2Efficiency;
    panicIf(l2_bytes_per_cycle <= 0.0,
            "cycle_sim: global-buffer bandwidth must be positive");
    const std::int64_t k_chunks = ceilDivI(mm.k, cfg.systolicDimX);
    for (int c = 0; c < NUM_CLASSES; ++c) {
        const std::int64_t n_chunks = ceilDivI(tn[c], cfg.systolicDimY);
        cm.computeCycles[c] =
            k_chunks * n_chunks * (tm[c] + exposed_fill) + pipe_depth;
        const std::int64_t l2_bytes =
            (tm[c] * mm.k + ceilDivI(mm.k * tn[c], cfg.lanesPerCore)) *
            ELEM_BYTES;
        cm.l2Cycles[c] = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(std::ceil(
                   static_cast<double>(l2_bytes) / l2_bytes_per_cycle)));
    }

    // DRAM: every tile fill carries a uniform share of the blocked HBM
    // traffic (the same L2-blocking model the other modes charge),
    // split into bounded-size requests interleaved across banks.
    cm.banks = std::max(1, params.cycleDramBanks);
    cm.window = std::max(1, params.cycleDramWindow);
    const std::int64_t req_bytes =
        std::max<long>(1, params.cycleDramReqBytes);
    const double hbm_total = blockedHbmTraffic(cfg, op, params);
    const std::int64_t tile_bytes = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(hbm_total / static_cast<double>(cm.jobs))));
    cm.fillReqs = ceilDivI(tile_bytes, req_bytes);
    const double bank_bytes_per_cycle = cfg.memBandwidth *
                                        params.memEfficiency /
                                        cm.banks / cfg.clockHz;
    panicIf(bank_bytes_per_cycle <= 0.0,
            "cycle_sim: HBM bandwidth must be positive");
    cm.svcCycles = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(static_cast<double>(req_bytes) /
                         bank_bytes_per_cycle)));

    // Double-buffered fill/compute overlap needs two tile working sets
    // (A chunk, B chunk, C accumulator) resident per lane; when they
    // do not fit, the next fill waits for the current compute to drain
    // — the scratchpad-capacity stall regime the closed forms miss.
    const std::int64_t k_chunk = std::min<std::int64_t>(mm.k, cm.tileM);
    const std::int64_t footprint =
        (cm.tileM * k_chunk + k_chunk * cm.tileN + cm.tileM * cm.tileN) *
        ELEM_BYTES;
    cm.overlapOk = 2.0 * static_cast<double>(footprint) <=
                   cfg.l1BytesPerLane();

    cm.slotStep = cm.arrays % cm.grid;
    cm.colStep = cm.arrays % cm.nTiles;
    cm.bankRewind = static_cast<int>(cm.fillReqs % cm.banks);
    return cm;
}

/** Per-array tile pipeline position. */
enum class Stage : std::uint8_t
{
    FILL_ISSUE, //!< issuing the next window of DRAM requests
    FILL_L2,    //!< operands queued on the L2->scratchpad pipe
    COMPUTE,    //!< waiting to start (or starting) systolic compute
    DONE,       //!< no jobs left
};

struct ArrayState
{
    Stage stage = Stage::DONE;
    std::uint8_t tileClass = INTERIOR; //!< class of fillJob's tile
    int bank = 0; //!< next request's bank: (a + reqsDone) % banks
    std::int64_t due = 0;         //!< when the pending transition fires
    std::int64_t fillJob = 0;     //!< job being filled (global index)
    std::int64_t reqsDone = 0;    //!< DRAM requests retired for the fill
    std::int64_t spadReady = 0;   //!< when the fill lands in scratchpad
    std::int64_t computeFree = 0; //!< when the array's MACs go idle
    std::int64_t slot = 0;        //!< fillJob % grid
    std::int64_t col = 0;         //!< fillJob's tile column
};

/** Point @p st at @p job, deriving its slot, column and class. */
void
setJob(const CycleModel &cm, ArrayState &st, std::int64_t job)
{
    st.fillJob = job;
    st.slot = job % cm.grid;
    st.col = st.slot % cm.nTiles;
    st.tileClass = cm.classAt(st.slot, st.col);
}

/** Advance @p st to its next job (fillJob + arrays) by fixed steps. */
void
nextJob(const CycleModel &cm, ArrayState &st)
{
    st.fillJob += cm.arrays;
    st.slot += cm.slotStep;
    if (st.slot >= cm.grid)
        st.slot -= cm.grid;
    st.col += cm.colStep;
    if (st.col >= cm.nTiles)
        st.col -= cm.nTiles;
    st.tileClass = cm.classAt(st.slot, st.col);
    st.bank -= cm.bankRewind;
    if (st.bank < 0)
        st.bank += cm.banks;
}

/** The full mutable simulation state both engines advance. */
struct Machine
{
    std::vector<ArrayState> arr;
    std::vector<std::int64_t> bankFree;
    std::int64_t l2Free = 0;
    std::int64_t makespan = 0;
    int live = 0;
    CycleStats stats;
};

void
initMachine(const CycleModel &cm, Machine &m)
{
    m.arr.assign(static_cast<std::size_t>(cm.arrays), ArrayState{});
    m.bankFree.assign(static_cast<std::size_t>(cm.banks), 0);
    const int active =
        static_cast<int>(std::min<std::int64_t>(cm.arrays, cm.jobs));
    for (int a = 0; a < active; ++a) {
        ArrayState &st = m.arr[static_cast<std::size_t>(a)];
        st.stage = Stage::FILL_ISSUE;
        st.due = 0;
        setJob(cm, st, a);
        st.bank = a % cm.banks;
    }
    m.live = active;
    m.stats.tileM = cm.tileM;
    m.stats.tileN = cm.tileN;
    m.stats.totalTiles = cm.jobs;
    m.stats.overlapOk = cm.overlapOk;
}

/**
 * Fire array @p a's pending transition at time @p now (== due).
 *
 * This is the single transition function both engines share: the
 * naive tick reaches it by polling every cycle, the coalesced loop by
 * jumping straight to the due time. All scheduling decisions read
 * only integer machine state, so the two orders are identical.
 */
void
process(const CycleModel &cm, Machine &m, int a, std::int64_t now,
        bool *array0_fresh_fill)
{
    ArrayState &st = m.arr[static_cast<std::size_t>(a)];
    ++m.stats.events;
    switch (st.stage) {
      case Stage::FILL_ISSUE: {
        // Issue one window of requests; the next window waits for this
        // one to drain (bounded outstanding requests per array).
        const std::int64_t todo = std::min<std::int64_t>(
            cm.window, cm.fillReqs - st.reqsDone);
        std::int64_t group_end = now;
        std::int64_t queued = 0;
        int bank = st.bank;
        for (std::int64_t i = 0; i < todo; ++i) {
            std::int64_t &free = m.bankFree[static_cast<std::size_t>(bank)];
            const std::int64_t start = std::max(now, free);
            queued += start - now;
            free = start + cm.svcCycles;
            group_end = std::max(group_end, free);
            bank = bank + 1 == cm.banks ? 0 : bank + 1;
        }
        m.stats.dramQueueCycles += queued;
        st.bank = bank;
        st.reqsDone += todo;
        st.stage = st.reqsDone < cm.fillReqs ? Stage::FILL_ISSUE
                                             : Stage::FILL_L2;
        st.due = group_end;
        break;
      }
      case Stage::FILL_L2: {
        // Responses drained; the fill occupies the shared
        // L2->scratchpad pipe (one fill at a time, FIFO by due time).
        const int c = st.tileClass;
        const std::int64_t start = std::max(now, m.l2Free);
        m.stats.l2QueueCycles += start - now;
        m.l2Free = start + cm.l2Cycles[c];
        st.spadReady = m.l2Free;
        st.stage = Stage::COMPUTE;
        st.due = std::max(st.computeFree, st.spadReady);
        break;
      }
      case Stage::COMPUTE: {
        // Compute starts; any gap since the MACs went idle was spent
        // waiting on operands.
        const int c = st.tileClass;
        m.stats.fillStallCycles += now - st.computeFree;
        st.computeFree = now + cm.computeCycles[c];
        m.stats.computeBusyCycles += cm.computeCycles[c];
        m.makespan = std::max(m.makespan, st.computeFree);
        if (st.fillJob + cm.arrays >= cm.jobs) {
            st.stage = Stage::DONE;
            --m.live;
        } else {
            nextJob(cm, st);
            st.reqsDone = 0;
            st.spadReady = 0;
            st.stage = Stage::FILL_ISSUE;
            if (cm.overlapOk) {
                st.due = now; // fill the second buffer under compute
            } else {
                st.due = st.computeFree; // serialize on spad capacity
                m.stats.spadSerialCycles += cm.computeCycles[c];
            }
            if (a == 0 && array0_fresh_fill)
                *array0_fresh_fill = true;
        }
        break;
      }
      case Stage::DONE:
        panic("cycle_sim: transition fired on a DONE array");
    }
}

/**
 * Resolve array @p a's same-cycle cascade at @p now (compute start ->
 * next fill issue): fire transitions until it is DONE or due later.
 */
void
drainArray(const CycleModel &cm, Machine &m, int a, std::int64_t now,
           bool *array0_fresh_fill)
{
    const ArrayState &st = m.arr[static_cast<std::size_t>(a)];
    while (st.stage != Stage::DONE && st.due == now)
        process(cm, m, a, now, array0_fresh_fill);
}

/**
 * Drain every transition due at @p now in canonical order: arrays by
 * index, each array's cascade resolved before moving on. The naive
 * tick polls this every cycle; the coalesced loop reproduces the same
 * order from its due tree.
 */
void
drainCycle(const CycleModel &cm, Machine &m, std::int64_t now,
           bool *array0_fresh_fill)
{
    const int n = static_cast<int>(m.arr.size());
    for (int a = 0; a < n; ++a)
        drainArray(cm, m, a, now, array0_fresh_fill);
}

/**
 * The coalesced loop's queue: a loser tree (tournament tree) over the
 * arrays, keyed by packed integers `due << IDX_BITS | array`, so one
 * unsigned compare orders arrays by (due, array index).
 *
 * Leaf a holds array a's key, DONE_KEY once it has no job left (it then
 * loses every match, and the loop ends when DONE_KEY wins). Each inner
 * node keeps the loser of the match played there and node[0] the
 * overall winner. The loop only ever re-keys the winner, which replays
 * the matches on that array's leaf-to-root path against the stored
 * losers: log2(leaves) compares and conditional moves down a path
 * whose addresses are known up front, where a heap's sift-down has to
 * find its path one level at a time and exits on a mispredicted
 * branch.
 *
 * Popping winners visits the arrays due at `now` by ascending index,
 * which is drainCycle's canonical order: process() writes only the
 * firing array's own `due` and never sets it below `now`, so no array
 * can become due at `now` behind the tree's back, and a drained array
 * re-enters strictly after every entry still due at `now`.
 */
constexpr int IDX_BITS = 20;
constexpr std::uint64_t IDX_MASK = (std::uint64_t{1} << IDX_BITS) - 1;
constexpr std::uint64_t DONE_KEY = ~std::uint64_t{0};
/** Largest due a key can hold; DONE_KEY's due field is reserved. */
constexpr std::uint64_t MAX_DUE = (DONE_KEY >> IDX_BITS) - 1;

struct DueTree
{
    std::vector<std::uint64_t> node; //!< [0] winner, [1, leaves) losers
    std::size_t leaves = 1;          //!< power of two >= arrays
};

[[noreturn, gnu::cold, gnu::noinline]] void
dueOverflow(std::int64_t due, const std::string &gemm)
{
    fatal("simulateGemmCycles: due time " + std::to_string(due) +
          " exceeds the event key's " + std::to_string(MAX_DUE) +
          "-cycle range in " + gemm);
}

/** Key array @p a at @p due; a due past MAX_DUE is a fatal error. */
inline std::uint64_t
packKey(std::int64_t due, int a, const std::string &gemm)
{
    if (static_cast<std::uint64_t>(due) > MAX_DUE) [[unlikely]]
        dueOverflow(due, gemm);
    return static_cast<std::uint64_t>(due) << IDX_BITS |
           static_cast<std::uint64_t>(a);
}

/** Re-key the winner, array @p a, to @p k and replay its matches. */
inline void
replaceWinner(DueTree &t, int a, std::uint64_t k)
{
    std::uint64_t *const node = t.node.data();
    for (std::size_t n = (t.leaves + static_cast<std::size_t>(a)) / 2;
         n > 0; n /= 2) {
        const std::uint64_t loser = node[n];
        const bool beaten = loser < k;
        node[n] = beaten ? k : loser;
        k = beaten ? loser : k;
    }
    node[0] = k;
}

/** Play the whole tournament over every array's current key. */
void
rekey(const Machine &m, DueTree &t, const std::string &gemm)
{
    std::size_t leaves = 1;
    while (leaves < m.arr.size())
        leaves *= 2;
    // win[n]: the winner below node n; leaf a sits at leaves + a.
    std::vector<std::uint64_t> win(2 * leaves, DONE_KEY);
    for (std::size_t a = 0; a < m.arr.size(); ++a)
        if (m.arr[a].stage != Stage::DONE)
            win[leaves + a] =
                packKey(m.arr[a].due, static_cast<int>(a), gemm);
    t.leaves = leaves;
    t.node.assign(leaves, DONE_KEY);
    for (std::size_t n = leaves - 1; n > 0; --n) {
        win[n] = std::min(win[2 * n], win[2 * n + 1]);
        t.node[n] = std::max(win[2 * n], win[2 * n + 1]);
    }
    t.node[0] = win[1];
}

// ---- Periodic replay (the coalesced loop only) ------------------------
//
// After warmup the machine is periodic: job classes depend only on the
// tile-column phase (plus, for batched GEMMs, the slice phase), and
// the contention pattern across banks/L2 settles into a repeating
// steady state. The engine snapshots the *relative* machine state
// every time array 0 begins a fresh tile fill; when a snapshot recurs
// exactly, one period has been measured and k more periods are applied
// as a pure time translation: every clock advances by k*deltaT, every
// job index by k*deltaJobs, every stall tally by k*deltaStats. The
// translated state is behaviorally identical to the one live
// simulation would reach (transitions are deterministic and
// time-translation-invariant, and all resource reads clamp to `now`),
// so the remaining live tail — including the remainder-row edge
// classes the phase signature cannot see — produces bit-identical
// results. replayedTiles is the only CycleStats field replay changes.

struct Checkpoint
{
    std::size_t slot = 0; //!< its signature and fillJobs: slots[slot]
    std::int64_t now = 0;
    CycleStats stats;
};

struct ReplayState
{
    bool armed = false;
    bool spent = false;          //!< one fast-forward per GEMM
    std::int64_t phaseMod = 1;   //!< job phase that fixes the class
    std::int64_t safeLimit = 0;  //!< first job replay must not reach
    /** Array 0's last job at which a snapshot can still fast-forward. */
    std::int64_t lastUsefulJob = 0;
    std::size_t sigLen = 0;      //!< signature() values per snapshot
    /**
     * Snapshot k's signature, then every array's fillJob. Kept
     * snapshots fill slots 0.. in order, so the next one is written
     * straight into slot seen.size(), and one that is not kept leaves
     * its slot to the next.
     */
    std::vector<std::unique_ptr<std::int64_t[]>> slots;
    std::unordered_map<std::uint64_t, Checkpoint> seen;

    /** Snapshot-history cap; past it, fall back to live simulation. */
    static constexpr std::size_t MAX_CHECKPOINTS = 4096;
};

ReplayState
makeReplay(const CycleModel &cm, const model::MatmulShape &mm)
{
    ReplayState r;
    r.armed = cm.jobs > cm.arrays;
    // Within one batch slice the class of a job is fixed by its tile
    // column alone as long as it stays off the remainder row, so
    // unbatched GEMMs match on the column phase and guard the last
    // row into the live tail; batched GEMMs interleave remainder rows
    // periodically and need the full slice phase.
    if (mm.batchCount > 1) {
        r.phaseMod = cm.grid;
        r.safeLimit = cm.jobs;
    } else {
        r.phaseMod = cm.nTiles;
        r.safeLimit = cm.hasMRem ? (cm.mTiles - 1) * cm.nTiles : cm.jobs;
    }
    // Array 0 runs jobs 0, arrays, 2*arrays, ...; two snapshots can only
    // match when its jobs agree modulo phaseMod, so it has moved on by
    // a multiple of period = lcm(arrays, phaseMod) jobs. tryReplay then
    // needs two more periods before safeLimit (k >= 1), so a snapshot
    // whose array-0 job is past safeLimit - 1 - 2 * period can neither
    // fast-forward nor be matched by a later one that does.
    const std::int64_t per_array =
        r.phaseMod / std::gcd<std::int64_t>(cm.arrays, r.phaseMod);
    if (per_array > r.safeLimit / cm.arrays)
        r.armed = false; // one period already overruns safeLimit
    else
        r.lastUsefulJob = r.safeLimit - 1 - 2 * per_array * cm.arrays;
    r.sigLen = 5 * static_cast<std::size_t>(cm.arrays) +
               static_cast<std::size_t>(cm.banks) + 2;
    return r;
}

/**
 * Write the relative machine state at @p now to @p sig (sigLen values).
 * An array's job phase, fillJob % phaseMod, is its slot (phaseMod ==
 * grid) or its column (phaseMod == nTiles).
 */
void
signature(const CycleModel &cm, const Machine &m, std::int64_t now,
          std::int64_t phase_mod, std::int64_t *sig)
{
    const bool by_col = phase_mod == cm.nTiles;
    for (const ArrayState &st : m.arr) {
        *sig++ = static_cast<std::int64_t>(st.stage);
        if (st.stage == Stage::DONE) {
            *sig++ = 0;
            *sig++ = -1;
            *sig++ = 0;
        } else {
            *sig++ = st.due - now;
            *sig++ = by_col ? st.col : st.slot;
            *sig++ = st.reqsDone;
        }
        // Raw (unclamped): the compute-start transition reads the
        // true idle gap for the fill-stall tally.
        *sig++ = st.computeFree - now;
    }
    // Bank and pipe timelines are only ever read through
    // max(now, free), so anything at or before `now` is equivalent.
    for (const std::int64_t free : m.bankFree)
        *sig++ = std::max<std::int64_t>(free - now, 0);
    *sig++ = std::max<std::int64_t>(m.l2Free - now, 0);
    *sig = m.makespan - now;
}

/** FNV-1a over four interleaved lanes (one chain would serialize). */
std::uint64_t
hashSig(const std::int64_t *sig, std::size_t len)
{
    constexpr std::uint64_t PRIME = 1099511628211ull;
    std::uint64_t h[4] = {14695981039346656037ull, 1, 2, 3};
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4)
        for (int lane = 0; lane < 4; ++lane)
            h[lane] = (h[lane] ^ static_cast<std::uint64_t>(sig[i + lane])) *
                      PRIME;
    for (; i < len; ++i)
        h[0] = (h[0] ^ static_cast<std::uint64_t>(sig[i])) * PRIME;
    return ((h[0] * PRIME ^ h[1]) * PRIME ^ h[2]) * PRIME ^ h[3];
}

/** Apply k periods of (deltaT, deltaJobs, deltaStats). @return k. */
std::int64_t
tryReplay(const CycleModel &cm, Machine &m, std::int64_t now,
          const Checkpoint &prev, const std::int64_t *prev_fill_job,
          const ReplayState &r)
{
    const std::int64_t dt = now - prev.now;
    if (dt <= 0)
        return 0;
    const std::size_t n = m.arr.size();
    std::vector<std::int64_t> dj(n, 0);
    std::int64_t k = std::numeric_limits<std::int64_t>::max();
    std::int64_t tiles_per_period = 0;
    for (std::size_t a = 0; a < n; ++a) {
        const ArrayState &st = m.arr[a];
        dj[a] = st.fillJob - prev_fill_job[a];
        if (st.stage == Stage::DONE && dj[a] == 0)
            continue; // permanently idle (jobs < arrays)
        if (dj[a] <= 0)
            return 0; // not a steady period
        tiles_per_period += dj[a] / cm.arrays;
        // Keep one spare period of live simulation between the
        // fast-forwarded span and the guarded tail.
        k = std::min(k, (r.safeLimit - 1 - st.fillJob) / dj[a] - 1);
    }
    if (k == std::numeric_limits<std::int64_t>::max() || k <= 0)
        return 0;

    // The bank cursor depends only on (a, reqsDone), which replay
    // leaves alone.
    const std::int64_t shift = k * dt;
    for (std::size_t a = 0; a < n; ++a) {
        ArrayState &st = m.arr[a];
        st.due += shift;
        st.computeFree += shift;
        st.spadReady += shift;
        setJob(cm, st, st.fillJob + k * dj[a]);
    }
    for (std::int64_t &free : m.bankFree)
        free += shift;
    m.l2Free += shift;
    m.makespan += shift;

    CycleStats &s = m.stats;
    const CycleStats &p = prev.stats;
    s.computeBusyCycles += k * (s.computeBusyCycles - p.computeBusyCycles);
    s.fillStallCycles += k * (s.fillStallCycles - p.fillStallCycles);
    s.dramQueueCycles += k * (s.dramQueueCycles - p.dramQueueCycles);
    s.l2QueueCycles += k * (s.l2QueueCycles - p.l2QueueCycles);
    s.spadSerialCycles += k * (s.spadSerialCycles - p.spadSerialCycles);
    s.events += k * (s.events - p.events);
    s.replayedTiles += k * tiles_per_period;
    return k;
}

/**
 * Checkpoint hook: called after a coalesced pass in which array 0
 * began a fresh tile fill. Either matches an earlier snapshot (and
 * fast-forwards) or records this one.
 *
 * @return Whether it fast-forwarded (every clock moved).
 */
bool
onCheckpoint(const CycleModel &cm, Machine &m, std::int64_t now,
             ReplayState &r)
{
    if (!r.armed || r.spent)
        return false;
    if (m.arr[0].fillJob > r.lastUsefulJob) {
        // No snapshot from here on can fast-forward (see makeReplay).
        r.armed = false;
        r.seen.clear();
        r.slots.clear();
        return false;
    }
    const std::size_t slot = r.seen.size();
    if (slot == r.slots.size())
        r.slots.push_back(std::make_unique_for_overwrite<std::int64_t[]>(
            r.sigLen + m.arr.size()));
    std::int64_t *const sig = r.slots[slot].get();
    signature(cm, m, now, r.phaseMod, sig);
    const std::uint64_t h = hashSig(sig, r.sigLen);
    const auto it = r.seen.find(h);
    if (it != r.seen.end()) {
        const Checkpoint &prev = it->second;
        const std::int64_t *const prev_sig = r.slots[prev.slot].get();
        if (std::equal(sig, sig + r.sigLen, prev_sig) &&
            tryReplay(cm, m, now, prev, prev_sig + r.sigLen, r) > 0) {
            r.spent = true;
            r.seen.clear();
            r.slots.clear();
            return true;
        }
        return false; // keep the earliest snapshot per hash
    }
    if (slot >= ReplayState::MAX_CHECKPOINTS) {
        // No period found within the history budget: give up and
        // simulate live — slower, never wrong.
        r.armed = false;
        r.seen.clear();
        r.slots.clear();
        return false;
    }
    std::int64_t *fill_job = sig + r.sigLen;
    for (const ArrayState &st : m.arr)
        *fill_job++ = st.fillJob;
    r.seen.emplace(h, Checkpoint{slot, now, m.stats});
    return false;
}

/** Shared validation, model build, event loop and accounting. */
CycleStats
simulate(const hw::HardwareConfig &cfg, const model::Op &op,
         const PerfParams &params, bool naive_tick)
{
    if (op.kind != model::OpKind::MATMUL)
        fatal("simulateGemmCycles requires a MATMUL op: " + op.name);
    const auto &mm = op.mm;
    if (mm.m < 1 || mm.n < 1 || mm.k < 1 || mm.batchCount < 1)
        fatal("simulateGemmCycles: degenerate GEMM dims in " + op.name);
    cfg.validate();

    const obs::TraceSpan span("perf.cycle_sim");

    const CycleModel cm = buildModel(cfg, op, params);
    if (!naive_tick && static_cast<std::uint64_t>(cm.arrays) > IDX_MASK + 1)
        fatal("simulateGemmCycles: " + std::to_string(cm.arrays) +
              " systolic arrays exceed the event key's " +
              std::to_string(IDX_BITS) + "-bit array index in " +
              op.name);
    Machine m;
    initMachine(cm, m);

    std::int64_t ticks = 0;
    if (naive_tick) {
        // The naive reference: visit every cycle and poll all arrays.
        for (std::int64_t now = 0; m.live > 0; ++now) {
            drainCycle(cm, m, now, nullptr);
            ++ticks;
        }
    } else {
        // Coalesced: jump to the earliest due array and pop every
        // array due that cycle, in (due, index) order.
        ReplayState replay = makeReplay(cm, mm);
        DueTree queue;
        rekey(m, queue, op.name);
        while (queue.node[0] != DONE_KEY) {
            const std::uint64_t due_field = queue.node[0] >> IDX_BITS;
            const std::int64_t now = static_cast<std::int64_t>(due_field);
            bool fresh = false;
            do {
                const int a = static_cast<int>(queue.node[0] & IDX_MASK);
                drainArray(cm, m, a, now,
                           replay.armed ? &fresh : nullptr);
                const ArrayState &st = m.arr[static_cast<std::size_t>(a)];
                replaceWinner(queue, a,
                              st.stage == Stage::DONE
                                  ? DONE_KEY
                                  : packKey(st.due, a, op.name));
            } while (queue.node[0] >> IDX_BITS == due_field);
            // Replay shifts every clock by one amount: re-key once.
            if (fresh && onCheckpoint(cm, m, now, replay))
                rekey(m, queue, op.name);
        }
    }

    m.stats.cycles = m.makespan;
    m.stats.totalS = static_cast<double>(m.makespan) / cfg.clockHz +
                     params.kernelOverheadS;
    if (obs::enabled()) {
        obs::counterAdd("perf.cycle.gemms");
        obs::counterAdd("perf.cycle.tiles",
                        static_cast<std::uint64_t>(cm.jobs));
        obs::counterAdd("perf.cycle.events",
                        static_cast<std::uint64_t>(m.stats.events));
        if (m.stats.replayedTiles > 0)
            obs::counterAdd(
                "perf.cycle.replayed_tiles",
                static_cast<std::uint64_t>(m.stats.replayedTiles));
        if (ticks > 0)
            obs::counterAdd("perf.cycle.ticks",
                            static_cast<std::uint64_t>(ticks));
    }
    return m.stats;
}

} // anonymous namespace

CycleStats
simulateGemmCycles(const hw::HardwareConfig &cfg, const model::Op &op,
                   const PerfParams &params)
{
    return simulate(cfg, op, params, /*naive_tick=*/false);
}

CycleStats
simulateGemmCyclesTick(const hw::HardwareConfig &cfg, const model::Op &op,
                       const PerfParams &params)
{
    return simulate(cfg, op, params, /*naive_tick=*/true);
}

} // namespace perf
} // namespace acs
