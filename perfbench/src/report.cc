#include "report.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"

namespace perfbench {

std::string
DetRecord::str() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "events=%llu packets=%llu rexmit=%llu faults=%llu "
                  "completions=%llu hash=0x%016llx",
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(packets),
                  static_cast<unsigned long long>(retransmissions),
                  static_cast<unsigned long long>(faults),
                  static_cast<unsigned long long>(completions),
                  static_cast<unsigned long long>(traceHash));
    return buf;
}

std::uint64_t
DetRecord::fold(std::uint64_t digest) const
{
    for (std::uint64_t v :
         {events, packets, retransmissions, faults, completions, traceHash})
        digest = mix64(digest ^ v);
    return digest;
}

double
quantile(std::vector<double>& v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
formatTable(const std::vector<Metric>& metrics)
{
    std::string out;
    char buf[256];
    for (const Metric& m : metrics) {
        std::snprintf(buf, sizeof(buf), "  %-34s %16.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        out += buf;
    }
    return out;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + buf +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace perfbench
