/**
 * @file
 * Replacement global operator new/delete that count heap allocations
 * while counting is switched on. Off (the untimed default and every
 * untraced run), the cost is one relaxed load per allocation.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "trace.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocs{0};

void*
allocate(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    return std::malloc(size);
}

void*
allocateAligned(std::size_t size, std::align_val_t align)
{
    if (counting.load(std::memory_order_relaxed))
        allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

void*
allocateOrThrow(std::size_t size)
{
    if (void* p = allocate(size))
        return p;
    throw std::bad_alloc();
}

void*
allocateAlignedOrThrow(std::size_t size, std::align_val_t align)
{
    if (void* p = allocateAligned(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocCount()
{
    return allocs.load(std::memory_order_relaxed);
}

} // namespace perfbench

void* operator new(std::size_t size) { return allocateOrThrow(size); }
void* operator new[](std::size_t size) { return allocateOrThrow(size); }

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return allocate(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return allocate(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAlignedOrThrow(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAlignedOrThrow(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
