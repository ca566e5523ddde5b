/**
 * @file
 * The event count components expose as named Counter members; benches
 * and tests read them directly.
 */

#ifndef UNET_SIM_STATS_HH
#define UNET_SIM_STATS_HH

#include <cstdint>

namespace unet::sim {

/** A monotonically increasing event count. */
class Counter
{
  public:
    Counter &operator++() { ++count; return *this; }
    Counter &operator+=(std::uint64_t n) { count += n; return *this; }

    std::uint64_t value() const { return count; }
    void reset() { count = 0; }

  private:
    std::uint64_t count = 0;
};

} // namespace unet::sim

#endif // UNET_SIM_STATS_HH
