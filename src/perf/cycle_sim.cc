#include "cycle_sim.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
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

    int
    classOf(std::int64_t job) const
    {
        const std::int64_t g = job % grid;
        const bool m_edge = hasMRem && g / nTiles == mTiles - 1;
        const bool n_edge = hasNRem && g % nTiles == nTiles - 1;
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
    std::int64_t due = 0;         //!< when the pending transition fires
    std::int64_t fillJob = 0;     //!< job being filled (global index)
    std::int64_t reqsDone = 0;    //!< DRAM requests retired for the fill
    std::int64_t spadReady = 0;   //!< when the fill lands in scratchpad
    std::int64_t computeFree = 0; //!< when the array's MACs go idle
};

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
        st.fillJob = a;
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
        for (std::int64_t i = 0; i < todo; ++i) {
            const std::size_t bank = static_cast<std::size_t>(
                (a + st.reqsDone + i) % cm.banks);
            const std::int64_t start =
                std::max(now, m.bankFree[bank]);
            m.stats.dramQueueCycles += start - now;
            m.bankFree[bank] = start + cm.svcCycles;
            group_end = std::max(group_end, start + cm.svcCycles);
        }
        st.reqsDone += todo;
        st.stage = st.reqsDone < cm.fillReqs ? Stage::FILL_ISSUE
                                             : Stage::FILL_L2;
        st.due = group_end;
        break;
      }
      case Stage::FILL_L2: {
        // Responses drained; the fill occupies the shared
        // L2->scratchpad pipe (one fill at a time, FIFO by due time).
        const int c = cm.classOf(st.fillJob);
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
        const int c = cm.classOf(st.fillJob);
        m.stats.fillStallCycles += now - st.computeFree;
        st.computeFree = now + cm.computeCycles[c];
        m.stats.computeBusyCycles += cm.computeCycles[c];
        m.makespan = std::max(m.makespan, st.computeFree);
        const std::int64_t next = st.fillJob + cm.arrays;
        if (next >= cm.jobs) {
            st.stage = Stage::DONE;
            --m.live;
        } else {
            st.fillJob = next;
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
 * order from its due heap.
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
 * The coalesced loop's queue: live arrays in a binary min-heap keyed
 * by (due, array index).
 *
 * Popping in this order visits the arrays due at `now` by ascending
 * index, which is drainCycle's canonical order: process() writes only
 * the firing array's own `due` and never sets it below `now`, so no
 * array can become due at `now` behind the heap's back, and a drained
 * array re-enters strictly after every entry still due at `now`.
 */
struct DueEntry
{
    std::int64_t due;
    int array;
};

bool
dueBefore(const DueEntry &x, const DueEntry &y)
{
    return x.due < y.due || (x.due == y.due && x.array < y.array);
}

/** Restore heap order after the root entry was replaced. */
void
siftDown(std::vector<DueEntry> &heap)
{
    const std::size_t n = heap.size();
    if (n == 0)
        return;
    const DueEntry e = heap[0];
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && dueBefore(heap[c + 1], heap[c]))
            ++c;
        if (!dueBefore(heap[c], e))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = e;
}

/** Key every live array at its due (a sorted array is a heap). */
void
rekey(const Machine &m, std::vector<DueEntry> &heap)
{
    heap.clear();
    for (std::size_t a = 0; a < m.arr.size(); ++a)
        if (m.arr[a].stage != Stage::DONE)
            heap.push_back({m.arr[a].due, static_cast<int>(a)});
    std::sort(heap.begin(), heap.end(), dueBefore);
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
    std::vector<std::int64_t> sig;
    std::int64_t now = 0;
    std::vector<std::int64_t> fillJob;
    CycleStats stats;
};

struct ReplayState
{
    bool armed = false;
    bool spent = false;          //!< one fast-forward per GEMM
    std::int64_t phaseMod = 1;   //!< job phase that fixes the class
    std::int64_t safeLimit = 0;  //!< first job replay must not reach
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
    return r;
}

std::vector<std::int64_t>
signature(const Machine &m, std::int64_t now, std::int64_t phase_mod)
{
    std::vector<std::int64_t> sig;
    sig.reserve(m.arr.size() * 5 + m.bankFree.size() + 2);
    for (const ArrayState &st : m.arr) {
        sig.push_back(static_cast<std::int64_t>(st.stage));
        if (st.stage == Stage::DONE) {
            sig.push_back(0);
            sig.push_back(-1);
            sig.push_back(0);
        } else {
            sig.push_back(st.due - now);
            sig.push_back(st.fillJob % phase_mod);
            sig.push_back(st.reqsDone);
        }
        // Raw (unclamped): the compute-start transition reads the
        // true idle gap for the fill-stall tally.
        sig.push_back(st.computeFree - now);
    }
    // Bank and pipe timelines are only ever read through
    // max(now, free), so anything at or before `now` is equivalent.
    for (const std::int64_t free : m.bankFree)
        sig.push_back(std::max<std::int64_t>(free - now, 0));
    sig.push_back(std::max<std::int64_t>(m.l2Free - now, 0));
    sig.push_back(m.makespan - now);
    return sig;
}

std::uint64_t
hashSig(const std::vector<std::int64_t> &sig)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const std::int64_t v : sig) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    }
    return h;
}

/** Apply k periods of (deltaT, deltaJobs, deltaStats). @return k. */
std::int64_t
tryReplay(const CycleModel &cm, Machine &m, std::int64_t now,
          const Checkpoint &prev, const ReplayState &r)
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
        dj[a] = st.fillJob - prev.fillJob[a];
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

    const std::int64_t shift = k * dt;
    for (std::size_t a = 0; a < n; ++a) {
        ArrayState &st = m.arr[a];
        st.due += shift;
        st.computeFree += shift;
        st.spadReady += shift;
        st.fillJob += k * dj[a];
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
    std::vector<std::int64_t> sig = signature(m, now, r.phaseMod);
    const std::uint64_t h = hashSig(sig);
    const auto it = r.seen.find(h);
    if (it != r.seen.end()) {
        if (it->second.sig == sig &&
            tryReplay(cm, m, now, it->second, r) > 0) {
            r.spent = true;
            r.seen.clear();
            return true;
        }
        return false; // keep the earliest snapshot per hash
    }
    if (r.seen.size() >= ReplayState::MAX_CHECKPOINTS) {
        // No period found within the history budget: give up and
        // simulate live — slower, never wrong.
        r.armed = false;
        r.seen.clear();
        return false;
    }
    Checkpoint cp;
    cp.sig = std::move(sig);
    cp.now = now;
    cp.fillJob.reserve(m.arr.size());
    for (const ArrayState &st : m.arr)
        cp.fillJob.push_back(st.fillJob);
    cp.stats = m.stats;
    r.seen.emplace(h, std::move(cp));
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
        std::vector<DueEntry> heap;
        rekey(m, heap);
        while (!heap.empty()) {
            const std::int64_t now = heap.front().due;
            bool fresh = false;
            do {
                DueEntry &top = heap.front();
                drainArray(cm, m, top.array, now,
                           replay.armed ? &fresh : nullptr);
                const ArrayState &st =
                    m.arr[static_cast<std::size_t>(top.array)];
                if (st.stage == Stage::DONE) {
                    top = heap.back();
                    heap.pop_back();
                } else {
                    top.due = st.due;
                }
                siftDown(heap);
            } while (!heap.empty() && heap.front().due == now);
            // Replay shifts every clock by one amount: re-key once.
            if (fresh && onCheckpoint(cm, m, now, replay))
                rekey(m, heap);
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
