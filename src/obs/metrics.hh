/**
 * @file
 * Hierarchical metrics registry.
 *
 * Components register their stats under dotted paths
 * (`host.A.nic.pca200.cellsSent`) instead of growing one accessor method
 * per stat. The registry stores *pointers* to the live counters, so
 * reads always see current values and registration is free on the hot
 * path. A MetricGroup gives a component RAII registration: everything it
 * registered disappears when the component is destroyed.
 *
 * Three metric flavours:
 *  - counter: a `sim::Counter` owned by the component;
 *  - gauge: a callback returning a double (for derived/occupancy stats);
 *  - histogram: an `obs::Histogram` (log-bucketed, p50/p90/p99).
 *
 * This header depends only on header-only sim/ types so the obs library
 * sits *below* unet_sim in the link order (sim::Simulation owns a
 * Registry).
 */

#ifndef UNET_OBS_METRICS_HH
#define UNET_OBS_METRICS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace unet::obs {

/**
 * Log-bucketed histogram over unsigned samples.
 *
 * Bucket b >= 1 covers [2^(b-1), 2^b); bucket 0 holds exact zeros.
 * Quantiles interpolate linearly inside the bucket and are clamped to
 * the observed [min, max], which is plenty for latency reporting
 * (p50/p90/p99 to within a factor well under 2 anywhere on the range).
 * Recording is O(1) and allocation-free.
 */
class Histogram
{
  public:
    void
    record(std::uint64_t x)
    {
        ++_count;
        _sum += x;
        _min = std::min(_min, x);
        _max = std::max(_max, x);
        ++_buckets[bucketOf(x)];
    }

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t min() const { return _count ? _min : 0; }
    std::uint64_t max() const { return _count ? _max : 0; }

    double
    mean() const
    {
        return _count ? static_cast<double>(_sum) /
                            static_cast<double>(_count)
                      : 0.0;
    }

    /** Interpolated quantile; @p q in [0, 1]. */
    double
    quantile(double q) const
    {
        if (_count == 0)
            return 0.0;
        double target = q * static_cast<double>(_count);
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < _buckets.size(); ++b) {
            if (_buckets[b] == 0)
                continue;
            double here = static_cast<double>(_buckets[b]);
            if (static_cast<double>(cum) + here >= target) {
                double lo = b == 0 ? 0.0
                                   : std::ldexp(1.0, static_cast<int>(b) - 1);
                double hi = b == 0 ? 0.0 : lo * 2.0;
                double frac = std::max(
                    0.0, (target - static_cast<double>(cum)) / here);
                double v = lo + frac * (hi - lo);
                return std::clamp(v, static_cast<double>(min()),
                                  static_cast<double>(max()));
            }
            cum += _buckets[b];
        }
        return static_cast<double>(max());
    }

    void
    reset()
    {
        _buckets.fill(0);
        _count = _sum = _max = 0;
        _min = std::numeric_limits<std::uint64_t>::max();
    }

  private:
    static std::size_t
    bucketOf(std::uint64_t x)
    {
        return x == 0 ? 0 : static_cast<std::size_t>(std::bit_width(x));
    }

    std::array<std::uint64_t, 65> _buckets{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t _max = 0;
};

/**
 * The registry: dotted path -> live metric.
 *
 * Registration keeps a pointer to the caller's stat object; use
 * MetricGroup so the entry is removed before the stat dies. Paths are
 * unique — register through uniquePrefix() when several instances of a
 * component coexist.
 */
class Registry
{
  public:
    using GaugeFn = std::function<double()>;

    /**
     * Structural-access hook for the happens-before auditor
     * (src/check/hb/): fires on every registration, removal, and
     * whole-registry sweep with (operation, is-mutation). A hook
     * rather than a check::ContextGuard member because obs sits
     * *below* the check library in the link order; the auditor owns
     * the guard and forwards. Null (the default) costs one branch.
     */
    using AuditHook = std::function<void(const char *op, bool write)>;

    void setAuditHook(AuditHook hook) { _auditHook = std::move(hook); }

    void addCounter(std::string path, const sim::Counter *c);
    void addGauge(std::string path, GaugeFn fn);
    void addHistogram(std::string path, const Histogram *h);
    void remove(const std::string &path);

    /**
     * Reserve an instance prefix: returns @p base the first time,
     * "base#2", "base#3", ... afterwards.
     */
    std::string uniquePrefix(const std::string &base);

    bool has(std::string_view path) const;

    /**
     * Read one metric. Histogram paths read their sample count; the
     * derived stats are addressable as `path.p50`, `path.mean`, etc.
     * Unknown paths read 0.
     */
    double value(std::string_view path) const;

    /**
     * Flatten everything into sorted (path, value) pairs. Histograms
     * expand to .count/.sum/.mean/.min/.max/.p50/.p90/.p99.
     */
    std::vector<std::pair<std::string, double>> dump() const;

    /** The dump() as one flat JSON object. */
    void writeJson(std::ostream &os) const;

    std::size_t size() const { return _entries.size(); }

  private:
    struct Entry
    {
        const sim::Counter *counter = nullptr;
        const Histogram *hist = nullptr;
        GaugeFn gauge;
    };

    void add(std::string path, Entry e);

    void
    audit(const char *op, bool write) const
    {
        if (_auditHook)
            _auditHook(op, write);
    }

    std::map<std::string, Entry, std::less<>> _entries;
    std::map<std::string, int, std::less<>> _prefixes;
    AuditHook _auditHook;
};

/**
 * RAII handle tying a component's registrations to its lifetime.
 *
 * Declare it *after* the counters it registers so it deregisters first
 * during destruction. Non-copyable, non-movable: the registry holds
 * pointers into the owning component.
 */
class MetricGroup
{
  public:
    MetricGroup(Registry &reg, std::string prefix)
        : _reg(&reg), _prefix(std::move(prefix))
    {}

    MetricGroup(const MetricGroup &) = delete;
    MetricGroup &operator=(const MetricGroup &) = delete;

    ~MetricGroup()
    {
        for (const auto &p : _paths)
            _reg->remove(p);
    }

    const std::string &prefix() const { return _prefix; }

    void
    counter(std::string_view name, const sim::Counter &c)
    {
        _reg->addCounter(path(name), &c);
    }

    void
    gauge(std::string_view name, Registry::GaugeFn fn)
    {
        _reg->addGauge(path(name), std::move(fn));
    }

    void
    histogram(std::string_view name, const Histogram &h)
    {
        _reg->addHistogram(path(name), &h);
    }

  private:
    std::string
    path(std::string_view name)
    {
        std::string p = _prefix;
        p += '.';
        p += name;
        _paths.push_back(p);
        return p;
    }

    Registry *_reg;
    std::string _prefix;
    std::vector<std::string> _paths;
};

} // namespace unet::obs

#endif // UNET_OBS_METRICS_HH
