#include "gemm_cache.hh"

#include <bit>

namespace acs {
namespace perf {

namespace {

constexpr std::uint64_t FNV_OFFSET = 14695981039346656037ull;
constexpr std::uint64_t FNV_PRIME = 1099511628211ull;

inline std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    // Byte-at-a-time FNV-1a over the 64-bit value.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffu;
        h *= FNV_PRIME;
    }
    return h;
}

inline std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // anonymous namespace

std::uint64_t
fingerprintGemmParams(const PerfParams &params)
{
    std::uint64_t h = FNV_OFFSET;
    h = fnvMix(h, bits(params.memEfficiency));
    h = fnvMix(h, bits(params.l2Efficiency));
    h = fnvMix(h, bits(params.l2BytesPerCyclePerFpu));
    h = fnvMix(h, bits(params.l2BlockingFraction));
    h = fnvMix(h, bits(params.l1TileFraction));
    h = fnvMix(h, bits(params.kernelOverheadS));
    h = fnvMix(h, bits(params.pipelineFillOverlap));
    // Bits 8 and 16 held the retired walk/tick engine switches (both
    // 0 in production) and bit 32 the retired replay switch (always
    // on): keeping their default values keeps existing keys valid.
    h = fnvMix(h, (params.modelPipelineFill ? 1u : 0u) |
                      (params.modelTiling ? 2u : 0u) |
                      (params.modelL2Blocking ? 4u : 0u) | 32u);
    // The mode itself keys the entry: TILE_SIM and CYCLE_SIM timings
    // for the same (device, op) projection must never alias.
    h = fnvMix(h, static_cast<std::uint64_t>(params.gemmMode));
    // CYCLE_SIM memory-system knobs (no-ops for the other modes, but
    // hashing them unconditionally keeps the fingerprint branch-free).
    h = fnvMix(h, static_cast<std::uint64_t>(params.cycleDramBanks));
    h = fnvMix(h, static_cast<std::uint64_t>(params.cycleDramReqBytes));
    h = fnvMix(h, static_cast<std::uint64_t>(params.cycleDramWindow));
    return h;
}

GemmCacheKey
makeGemmCacheKey(const hw::HardwareConfig &cfg, const model::Op &op,
                 const PerfParams &params, std::uint64_t params_fp)
{
    GemmCacheKey key;
    key.dimX = cfg.systolicDimX;
    key.dimY = cfg.systolicDimY;
    key.lanes = cfg.lanesPerCore;
    key.arrays = cfg.totalSystolicArrays();
    key.clockHz = cfg.clockHz;
    key.l1BytesPerLane = cfg.l1BytesPerLane();
    // L2 capacity enters the timing only through global-buffer
    // blocking of weight-stationary operands; attention GEMMs (and
    // the no-blocking ablation) stream both operands once, so for
    // them the axis is timing-invariant and canonicalizes away.
    key.l2Bytes = op.mm.weightStationary && params.modelL2Blocking
                      ? cfg.l2Bytes
                      : 0.0;
    key.memBandwidth = cfg.memBandwidth;
    key.m = op.mm.m;
    key.n = op.mm.n;
    key.k = op.mm.k;
    key.batch = op.mm.batchCount;
    key.weightStationary = op.mm.weightStationary;
    key.flops = op.flops;
    key.weightBytes = op.weightBytes;
    key.inputBytes = op.inputBytes;
    key.outputBytes = op.outputBytes;
    key.paramsFp = params_fp;
    return key;
}

std::size_t
GemmCacheKeyHash::operator()(const GemmCacheKey &key) const
{
    std::uint64_t h = FNV_OFFSET;
    h = fnvMix(h, static_cast<std::uint64_t>(key.dimX) << 32 |
                      static_cast<std::uint32_t>(key.dimY));
    h = fnvMix(h, static_cast<std::uint64_t>(key.lanes));
    h = fnvMix(h, static_cast<std::uint64_t>(key.arrays));
    h = fnvMix(h, bits(key.clockHz));
    h = fnvMix(h, bits(key.l1BytesPerLane));
    h = fnvMix(h, bits(key.l2Bytes));
    h = fnvMix(h, bits(key.memBandwidth));
    h = fnvMix(h, static_cast<std::uint64_t>(key.m));
    h = fnvMix(h, static_cast<std::uint64_t>(key.n));
    h = fnvMix(h, static_cast<std::uint64_t>(key.k));
    h = fnvMix(h, static_cast<std::uint64_t>(key.batch) << 1 |
                      (key.weightStationary ? 1u : 0u));
    h = fnvMix(h, bits(key.flops));
    h = fnvMix(h, bits(key.weightBytes));
    h = fnvMix(h, bits(key.inputBytes));
    h = fnvMix(h, bits(key.outputBytes));
    h = fnvMix(h, key.paramsFp);
    return static_cast<std::size_t>(h);
}

} // namespace perf
} // namespace acs
