/**
 * @file
 * Allocation regression test for the per-design DSE path (docs/DSE.md,
 * "Hot-path rule").
 *
 * This executable replaces the global operator new with a counting
 * one, which is why it is separate from test_dse. Each test runs the
 * same entry point at two sizes and asserts that the allocation count
 * grows by less than one per 64 designs: per-call set-up (worker
 * scratch, plan fragments, pool batch) may allocate, the designs
 * themselves may not. A caller that keeps its worker scratch across
 * calls (an adaptive search's waves) must not pay even the per-call
 * set-up again.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/units.hh"
#include "core/study.hh"
#include "dse/evaluate.hh"
#include "dse/sweep.hh"

namespace {

std::atomic<std::size_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (size + a - 1) / a * a);
}

} // anonymous namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace acs {
namespace dse {
namespace {

/** Allocations made while @p fn runs. */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    const std::size_t before = allocations.load();
    fn();
    return allocations.load() - before;
}

/** The bar: fewer than one allocation per 64 extra designs. */
void
expectAllocationFree(std::size_t small_allocs, std::size_t large_allocs,
                     std::size_t small_n, std::size_t large_n)
{
    ::testing::Test::RecordProperty("small_allocations", small_allocs);
    ::testing::Test::RecordProperty("large_allocations", large_allocs);
    const std::size_t budget = (large_n - small_n) / 64;
    EXPECT_LT(large_allocs, small_allocs + budget)
        << small_n << " designs: " << small_allocs << " allocations; "
        << large_n << " designs: " << large_allocs << " allocations";
}

DesignEvaluator
gpt3Evaluator()
{
    const core::Workload w = core::gpt3Workload();
    return DesignEvaluator(w.model, w.setting, w.system);
}

TEST(AllocFree, EvaluatePlanIndicesDoesNotAllocatePerDesign)
{
    const DesignEvaluator evaluator = gpt3Evaluator();
    const SweepSpace space = fineSpace();
    const SweepPlan plan(space);
    // A contiguous window in the middle of one outer cell, stepped so
    // that every inner axis moves, like an adaptive wave.
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < 4096; ++i)
        indices.push_back(plan.innerBlockSize() * 3 + 1000 + 7 * i);
    std::vector<PointSample> out(indices.size());
    const auto run = [&](std::size_t n) {
        return allocationsDuring([&] {
            evaluator.evaluatePlanIndices(plan, indices.data(), n,
                                          nullptr, out.data(), 1);
        });
    };
    run(64); // warm the shared pool and the thread-local state
    const std::size_t small = run(512);
    const std::size_t large = run(4096);
    expectAllocationFree(small, large, 512, 4096);
}

TEST(AllocFree, ReusedWaveScratchDoesNotAllocatePerWave)
{
    // An adaptive search's waves: scattered index windows evaluated
    // one call at a time against the scratch the search keeps. The
    // first wave builds the worker buffers; the later ones together
    // must allocate less than once per wave.
    const DesignEvaluator evaluator = gpt3Evaluator();
    const SweepSpace space = fineSpace();
    const SweepPlan plan(space);
    constexpr std::size_t kWaves = 8;
    constexpr std::size_t kWaveSize = 96;
    std::vector<std::size_t> indices;
    for (std::size_t w = 0; w < kWaves; ++w) {
        for (std::size_t i = 0; i < kWaveSize; ++i)
            indices.push_back(plan.innerBlockSize() * (2 + w) + 500 +
                              13 * i);
    }
    std::vector<PointSample> out(kWaveSize);
    DesignEvaluator::WaveScratch scratch;
    const auto wave = [&](std::size_t w) {
        evaluator.evaluatePlanIndices(plan, indices.data() + w * kWaveSize,
                                      kWaveSize, kWaveSize, nullptr,
                                      out.data(), 1, scratch);
    };
    wave(0);
    const std::size_t later = allocationsDuring([&] {
        for (std::size_t w = 1; w < kWaves; ++w)
            wave(w);
    });
    ::testing::Test::RecordProperty("later_wave_allocations", later);
    EXPECT_LT(later, kWaves - 1)
        << later << " allocations over waves 2.." << kWaves;
}

TEST(AllocFree, EvaluateStreamDoesNotAllocatePerDesign)
{
    const DesignEvaluator evaluator = gpt3Evaluator();
    // Table 3 at one device bandwidth (512 designs, Fig. 6) and at
    // eight (4096 designs).
    const SweepSpace small_space =
        table3Space(4800.0, {600.0 * units::GBPS});
    std::vector<double> bws;
    for (int i = 0; i < 8; ++i)
        bws.push_back((400.0 + 100.0 * i) * units::GBPS);
    const SweepSpace large_space = table3Space(4800.0, bws);
    ASSERT_EQ(small_space.size(), 512u);
    ASSERT_EQ(large_space.size(), 4096u);

    const auto run = [&](const SweepSpace &space) {
        return allocationsDuring([&] {
            const StreamStats stats =
                evaluator.evaluateStream(space, nullptr, nullptr, 1);
            EXPECT_EQ(stats.evaluated, space.size());
        });
    };
    run(small_space); // warm the shared pool
    const std::size_t small = run(small_space);
    const std::size_t large = run(large_space);
    expectAllocationFree(small, large, 512, 4096);
}

} // anonymous namespace
} // namespace dse
} // namespace acs
