#include "sim/pool.hh"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <cerrno>
#include <system_error>

#include "sim/logging.hh"
#include "sim/perturb.hh"

namespace unet::sim {

namespace {

/** Monotonic draw counter for the salted pads. */
thread_local std::uint64_t acquireCount = 0;

/** Salted pad: 0..31 cache lines. Keeps the usable area
 *  max_align-compatible (64 is a multiple of 16). */
std::size_t
saltedPad(std::uint64_t salt)
{
    if (salt == 0)
        return 0;
    return 64 * (perturb::mix(salt, ++acquireCount) % 32);
}

} // namespace

MappedBuffer::MappedBuffer(std::size_t size) : bytes(size)
{
    const std::size_t pad = saltedPad(perturb::salt());
    void *map = mmap(nullptr, pad + size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED)
        UNET_FATAL("mmap of ", pad + size, " bytes failed: ",
                   std::generic_category().message(errno));
    base = static_cast<unsigned char *>(map);
    mem = base + pad;
    // The mapping may reuse the address range of a dead fiber's stack.
    // ASan does not clear shadow memory on munmap, so the redzones of
    // that stack's frames that never returned (those of a fiber
    // destroyed mid-yield, and trampoline()'s own in every fiber) would
    // poison this buffer. A no-op without ASan.
    ASAN_UNPOISON_MEMORY_REGION(base, pad + size);
}

MappedBuffer::~MappedBuffer()
{
    munmap(base, static_cast<std::size_t>(mem - base) + bytes);
}

} // namespace unet::sim
