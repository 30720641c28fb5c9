/**
 * @file
 * Shared types of the perfbench runner: scenario results, the
 * determinism record, per-layer counters and the workload interface.
 *
 * A workload is a generator of scenarios. Scenario i of a run draws all
 * of its inputs from scenarioSeed(seed, workload, i), so the same seed
 * replays the same scenarios and the simulator sees only the generated
 * inputs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** SplitMix64 finalizer: a bijection used to derive disjoint seeds. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** FNV-1a over a string (workload names into the seed derivation). */
inline std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

inline std::uint64_t
scenarioSeed(std::uint64_t seed, const std::string& workload,
             std::uint64_t index)
{
    return mix64(mix64(seed ^ fnv1a(workload)) + index);
}

/**
 * Simulated counters of one scenario. They depend only on the
 * scenario's inputs, never on the host, so two runs of one seed must
 * produce equal records at any worker count.
 */
struct DetRecord
{
    std::uint64_t events = 0;
    std::uint64_t packets = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t faults = 0;
    std::uint64_t completions = 0;
    std::uint64_t traceHash = 0;  ///< oracle hash (mesh_storm only)

    bool operator==(const DetRecord&) const = default;

    std::string str() const;

    /** Fold this record into a running digest (order-sensitive). */
    std::uint64_t fold(std::uint64_t digest) const;
};

/**
 * Per-layer counters of the traced scenarios. add() sums, peak() keeps
 * the maximum; a name never written reads as 0.
 */
class Counters
{
  public:
    void add(const std::string& name, double v) { sums_[name] += v; }

    void
    peak(const std::string& name, double v)
    {
        auto [it, fresh] = peaks_.try_emplace(name, v);
        if (!fresh && v > it->second)
            it->second = v;
    }

    double
    sum(const std::string& name) const
    {
        auto it = sums_.find(name);
        return it == sums_.end() ? 0.0 : it->second;
    }

    double
    max(const std::string& name) const
    {
        auto it = peaks_.find(name);
        return it == peaks_.end() ? 0.0 : it->second;
    }

  private:
    std::map<std::string, double> sums_;
    std::map<std::string, double> peaks_;
};

/** What one scenario measured and whether its checks passed. */
struct ScenarioResult
{
    double setupS = 0;  ///< host seconds in set-up calls
    double wallS = 0;   ///< host seconds of the whole timed scenario
    std::uint64_t packets = 0;  ///< simulated fabric packets
    DetRecord det;
    std::string failure;  ///< first failed check; empty if all passed
};

/** Size of the scenarios a workload generates. */
enum class Scale
{
    Full,   ///< the benchmark's shapes
    Smoke,  ///< tiny shapes for the benchmark's own tests
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char* name() const = 0;

    /**
     * Run one scenario whose inputs are drawn from @p seed. With
     * @p counters, also record per-layer counters (the traced run).
     */
    virtual ScenarioResult run(std::uint64_t seed, Counters* counters) = 0;

    /** Untimed scenarios run before timing starts. */
    virtual std::size_t warmupScenarios() const { return 1; }

    /** Traced scenarios per second of --seconds (the traced run). */
    virtual double tracedPerSecond() const = 0;

    /**
     * The record of scenario @p seed in a reference configuration that
     * must agree with run() (mesh_storm: jobs 1 against jobs N).
     * Untimed; nullopt when the workload has no such reference.
     */
    virtual std::optional<DetRecord>
    referenceRecord(std::uint64_t seed)
    {
        (void)seed;
        return std::nullopt;
    }

    /** Extra fingerprint fields ("jobs=4"). */
    virtual std::string fingerprint() const { return "jobs=1"; }
};

std::unique_ptr<Workload> makeFlood(Scale scale);
std::unique_ptr<Workload> makeDamming(Scale scale);
std::unique_ptr<Workload> makeMeshStorm(Scale scale);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
