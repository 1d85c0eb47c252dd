/**
 * @file
 * Event-driven cycle-level GEMM simulation.
 *
 * The third rung of the GEMM-fidelity ladder (docs/PERF.md): where
 * MatmulModel computes a closed-form roofline and the tile simulator
 * walks wave-granular schedules, the cycle simulator models each
 * systolic array's tile pipeline in integer core clocks — explicit
 * memory request/response traffic against banked DRAM with bounded
 * outstanding requests per array, a shared global-buffer fill pipe,
 * double-buffered scratchpad fills overlapping compute (serialized
 * when the tile working set exceeds the local buffer), and systolic
 * prologue/drain per tile. It exists to see the effects the closed
 * forms cannot: DRAM bank contention, scratchpad capacity stalls, and
 * fill/compute overlap truncation.
 *
 * A naive per-cycle walk of this model is 10^3-10^4x slower than
 * TILE_SIM; three layers make it sweep-capable:
 *
 *  - event coalescing: a loser tree over the arrays, keyed by one
 *    packed integer `due << 20 | array index`, jumps straight to the
 *    earliest pending pipeline transition and pops every array due
 *    that cycle, instead of polling every array every cycle
 *    (simulateGemmCyclesTick, kept as the bit-exact reference). One
 *    unsigned compare orders two keys, and re-keying the winner
 *    replays its leaf-to-root matches with conditional moves and no
 *    data-dependent branch. The pop order is the tick's canonical
 *    drain order: a transition rewrites only the firing array's own
 *    due time and never sets it in the past, so the arrays due at a
 *    cycle are exactly the tree's winners at that cycle, popped by
 *    ascending index. A GEMM whose array count or due times do not
 *    fit the key is a fatal error naming it. Each array's tile class,
 *    grid slot and DRAM bank cursor advance by fixed steps when it
 *    takes a job, so the loop does no division;
 *  - per-tile-class replay: after warmup the tile stream is periodic
 *    — interior/edge/corner classes recur with a fixed column phase —
 *    so the engine snapshots the relative machine state at tile
 *    boundaries, detects a repeating period, and fast-forwards whole
 *    periods by pure time translation (run-length contention
 *    correction) instead of re-simulating identical tiles;
 *  - cross-design memoization: MatmulModel::time routes CYCLE_SIM
 *    results through perf::GemmCache under a mode-aware key.
 *
 * All timing state is integer cycles, so the coalesced engine with
 * replay is bit-identical to the naive tick — cycle counts and every
 * stall tally — which tests/test_cycle_sim.cpp pins with the same
 * randomized property pattern that guards TILE_SIM against its
 * per-tile walk.
 */

#ifndef ACS_PERF_CYCLE_SIM_HH
#define ACS_PERF_CYCLE_SIM_HH

#include <cstdint>

#include "hw/config.hh"
#include "model/ops.hh"
#include "perf/perf_params.hh"

namespace acs {
namespace perf {

/**
 * Scalar result of one cycle-simulated GEMM.
 *
 * Every cycle field is an exact integer tally shared by the coalesced
 * engine and the naive tick; totalS is derived from `cycles` alone, so
 * it inherits the bit-exact contract.
 */
struct CycleStats
{
    long tileM = 0;
    long tileN = 0;
    std::int64_t totalTiles = 0; //!< tile jobs scheduled

    /** Makespan in core clocks (last tile's compute drain). */
    std::int64_t cycles = 0;

    /** GEMM latency: cycles / clock + kernel launch overhead. */
    double totalS = 0.0;

    // --- Stall breakdown (cycle tallies summed over arrays) ----------
    std::int64_t computeBusyCycles = 0; //!< systolic arrays computing
    std::int64_t fillStallCycles = 0;   //!< compute idle awaiting operands
    std::int64_t dramQueueCycles = 0;   //!< requests queued on busy banks
    std::int64_t l2QueueCycles = 0;     //!< fills queued on the L2 pipe
    std::int64_t spadSerialCycles = 0;  //!< overlap lost to spad capacity

    /** Whether the double-buffered fill/compute overlap fit in L1. */
    bool overlapOk = true;

    // --- Engine accounting -------------------------------------------
    std::int64_t events = 0;        //!< pipeline transitions processed
    /** Tiles fast-forwarded by replay (always 0 for the naive tick). */
    std::int64_t replayedTiles = 0;
};

/**
 * Simulate one GEMM in integer core clocks.
 *
 * Uses the same tile-selection policy (chooseTiles) and blocked HBM
 * traffic model as MatmulModel/TILE_SIM so the three modes are
 * directly comparable; derives latency from the explicit per-array
 * tile pipeline with the event-coalesced loop and periodic replay.
 *
 * @param cfg    Device (validated).
 * @param op     Operator with kind == MATMUL (fatal otherwise).
 * @param params Model constants.
 */
CycleStats simulateGemmCycles(const hw::HardwareConfig &cfg,
                              const model::Op &op,
                              const PerfParams &params = PerfParams{});

/**
 * The naive per-cycle tick: the same model and transition function as
 * simulateGemmCycles, but visiting every cycle from 0 and polling all
 * arrays (~10^3-10^4x slower). Kept as the reference the coalesced
 * engine must match on every CycleStats field except replayedTiles
 * (tests/test_cycle_sim.cpp) and as the `microbench --cycle-only`
 * baseline. Never the right choice for sweeps.
 */
CycleStats simulateGemmCyclesTick(const hw::HardwareConfig &cfg,
                                  const model::Op &op,
                                  const PerfParams &params = PerfParams{});

} // namespace perf
} // namespace acs

#endif // ACS_PERF_CYCLE_SIM_HH
