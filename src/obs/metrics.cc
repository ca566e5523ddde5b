#include "obs/metrics.hh"

#include <cassert>
#include <ostream>

#include "obs/export.hh"

namespace unet::obs {

void
Registry::add(std::string path, Entry e)
{
    audit("register metric", /*write=*/true);
    // Colliding registrations indicate a component that should have used
    // uniquePrefix(); the later registration wins so the registry never
    // points at a stale object.
    auto it = _entries.find(path);
    if (it != _entries.end())
        it->second = std::move(e);
    else
        _entries.emplace(std::move(path), std::move(e));
}

void
Registry::addCounter(std::string path, const sim::Counter *c)
{
    assert(c != nullptr);
    Entry e;
    e.counter = c;
    add(std::move(path), std::move(e));
}

void
Registry::addGauge(std::string path, GaugeFn fn)
{
    assert(fn);
    Entry e;
    e.gauge = std::move(fn);
    add(std::move(path), std::move(e));
}

void
Registry::addHistogram(std::string path, const Histogram *h)
{
    assert(h != nullptr);
    Entry e;
    e.hist = h;
    add(std::move(path), std::move(e));
}

void
Registry::remove(const std::string &path)
{
    audit("remove metric", /*write=*/true);
    _entries.erase(path);
}

std::string
Registry::uniquePrefix(const std::string &base)
{
    int n = ++_prefixes[base];
    if (n == 1)
        return base;
    return base + "#" + std::to_string(n);
}

bool
Registry::has(std::string_view path) const
{
    return _entries.find(path) != _entries.end();
}

namespace {

double
histStat(const Histogram &h, std::string_view stat)
{
    if (stat == "count")
        return static_cast<double>(h.count());
    if (stat == "sum")
        return static_cast<double>(h.sum());
    if (stat == "mean")
        return h.mean();
    if (stat == "min")
        return static_cast<double>(h.min());
    if (stat == "max")
        return static_cast<double>(h.max());
    if (stat == "p50")
        return h.quantile(0.50);
    if (stat == "p90")
        return h.quantile(0.90);
    if (stat == "p99")
        return h.quantile(0.99);
    if (stat == "p999")
        return h.quantile(0.999);
    return 0.0;
}

} // namespace

double
Registry::value(std::string_view path) const
{
    auto it = _entries.find(path);
    if (it != _entries.end()) {
        const Entry &e = it->second;
        if (e.counter)
            return static_cast<double>(e.counter->value());
        if (e.gauge)
            return e.gauge();
        if (e.hist)
            return static_cast<double>(e.hist->count());
        return 0.0;
    }
    // Histogram derived stat: "<hist-path>.<stat>".
    auto dot = path.rfind('.');
    if (dot != std::string_view::npos) {
        auto base = _entries.find(path.substr(0, dot));
        if (base != _entries.end() && base->second.hist)
            return histStat(*base->second.hist, path.substr(dot + 1));
    }
    return 0.0;
}

std::vector<std::pair<std::string, double>>
Registry::dump() const
{
    static constexpr const char *histStats[] = {
        "count", "sum", "mean", "min", "max", "p50", "p90", "p99",
        "p999",
    };
    audit("dump sweep", /*write=*/false);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(_entries.size());
    for (const auto &[path, e] : _entries) {
        if (e.hist) {
            for (const char *stat : histStats)
                out.emplace_back(path + "." + stat,
                                 histStat(*e.hist, stat));
        } else {
            out.emplace_back(path, value(path));
        }
    }
    return out;
}

void
Registry::writeJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto &[path, v] : dump()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  \"" << jsonEscape(path) << "\": " << v;
    }
    os << "\n}\n";
}

} // namespace unet::obs
