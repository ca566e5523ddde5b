#include "net/crc32.hh"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "net/crc32_pclmul.hh"

namespace unet::net {

namespace {

/** Reflected polynomial for CRC-32 (0x04C11DB7 bit-reversed). */
constexpr std::uint32_t reflectedPoly = 0xEDB88320u;

/**
 * Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table;
 * tables[k][b] advances byte b through the CRC by k additional zero
 * bytes, letting the hot loop fold 8 input bytes per iteration with
 * eight independent table lookups.
 */
std::array<std::array<std::uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (reflectedPoly ^ (c >> 1)) : (c >> 1);
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                tables[0][tables[k - 1][i] & 0xFF];
    return tables;
}

const std::array<std::array<std::uint32_t, 256>, 8> tables =
    makeTables();

std::uint32_t
crc32UpdateSoft(std::uint32_t state, const std::uint8_t *p,
                std::size_t n)
{
    if constexpr (std::endian::native == std::endian::little) {
        const auto &t = tables;
        while (n >= 8) {
            std::uint32_t lo;
            std::uint32_t hi;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= state;
            state = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
                t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
                t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
                t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
            p += 8;
            n -= 8;
        }
    }
    for (; n > 0; ++p, --n)
        state = tables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
    return state;
}

/**
 * The folding kernel needs >= 64 bytes to fill its four lanes; below
 * that the dispatch branch costs more than folding saves, so short
 * inputs (every ATM cell, most headers) stay on the tables
 * unconditionally.
 */
constexpr std::size_t hwMinBytes = 64;

Crc32Backend
resolveBackend()
{
#if UNET_HWCRC
    // Reproducibility kill-switch, read once per process like
    // UNET_PERTURB: forcing the software path shows, on one binary,
    // that the hardware path changes no observable result.
    // nondet-ok(env-read): one-shot backend pick; backends are
    // bit-identical, so the choice affects speed only.
    const char *env = std::getenv("UNET_CRC32"); // NOLINT(concurrency-mt-unsafe)
    if (env && std::string_view(env) == "soft")
        return Crc32Backend::software;
    if (detail::crc32PclmulAvailable())
        return Crc32Backend::pclmul;
#endif
    return Crc32Backend::software;
}

} // namespace

Crc32Backend
crc32Backend()
{
    static const Crc32Backend backend = resolveBackend();
    return backend;
}

const char *
crc32BackendName()
{
    return crc32Backend() == Crc32Backend::pclmul ? "pclmul"
                                                  : "software";
}

std::uint32_t
crc32UpdateWith(Crc32Backend backend, std::uint32_t state,
                std::span<const std::uint8_t> data)
{
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
    if (backend == Crc32Backend::pclmul && n >= hwMinBytes &&
        detail::crc32PclmulAvailable()) {
        std::size_t folded = n & ~std::size_t{63};
        state = detail::crc32FoldPclmul(state, p, folded);
        p += folded;
        n -= folded;
    }
    return crc32UpdateSoft(state, p, n);
}

std::uint32_t
crc32Update(std::uint32_t state, std::span<const std::uint8_t> data)
{
    return crc32UpdateWith(crc32Backend(), state, data);
}

std::uint32_t
crc32(std::span<const std::uint8_t> data)
{
    return crc32Finish(crc32Update(0xFFFFFFFFu, data));
}

std::uint32_t
crc32Reference(std::span<const std::uint8_t> data)
{
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::uint8_t byte : data) {
        state ^= byte;
        for (int bit = 0; bit < 8; ++bit)
            state = (state & 1) ? (reflectedPoly ^ (state >> 1))
                                : (state >> 1);
    }
    return state ^ 0xFFFFFFFFu;
}

} // namespace unet::net
