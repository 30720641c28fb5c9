/**
 * @file
 * Host-side instrumentation of the traced run: a span recorder around
 * the benchmark's calls into the simulator, its Chrome trace-event
 * writer, and a heap-allocation counter.
 *
 * Spans nest: a span's self time is its duration minus the time its
 * child spans cover. High-rate calls (verbs.post_read, cluster.advance)
 * are kept as a count plus total time (aggregate()) and charged to the
 * enclosing span as child time. Spans stay in memory, up to a cap, and
 * are written out at exit; per-name totals keep counting past the cap.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

class Tracer
{
  public:
    /** Totals per span name. */
    struct NameStats
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    explicit Tracer(std::size_t max_stored_spans);

    /** Spans begun from now on carry scenario id @p id. */
    void setScenario(std::uint64_t id) { scenario_ = id; }

    void begin(const char* name);
    void end();

    /** One high-rate call of @p ns nanoseconds, child of the open span. */
    void aggregate(const char* name, std::int64_t ns);

    const std::map<std::string, NameStats>& byName() const { return byName_; }

    /** Self time summed over the names of one layer ("verbs"). */
    std::int64_t layerSelfNs(const std::string& layer) const;

    /**
     * Write the stored spans as Chrome trace-event JSON, with
     * @p other_data (a JSON object) and the per-name totals under
     * "otherData". Returns false if the file cannot be written.
     */
    bool writeChrome(const std::string& path,
                     const std::string& other_data) const;

  private:
    struct Open
    {
        const char* name;
        std::int64_t start;
        std::int64_t childNs;
        std::uint64_t id;
        std::uint64_t parent;
    };

    struct Done
    {
        const char* name;
        std::int64_t start;
        std::int64_t dur;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t scenario;
    };

    std::int64_t nowNs() const;

    Clock::time_point origin_;
    std::size_t maxStored_;
    std::uint64_t scenario_ = 0;
    std::uint64_t nextId_ = 1;
    std::vector<Open> stack_;
    std::vector<Done> done_;
    std::uint64_t droppedSpans_ = 0;
    std::map<std::string, NameStats> byName_;
};

/** The traced run's recorder; nullptr in untraced runs. */
extern Tracer* g_tracer;

/** RAII span around one call into a layer; free when untraced. */
class Span
{
  public:
    explicit Span(const char* name) : on_(g_tracer != nullptr)
    {
        if (on_)
            g_tracer->begin(name);
    }
    ~Span()
    {
        if (on_)
            g_tracer->end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    bool on_;
};

/** Run @p f; when traced, count it under @p name as a high-rate call. */
template <class F>
inline void
timedCall(const char* name, F&& f)
{
    if (g_tracer == nullptr) {
        f();
        return;
    }
    const auto t0 = Clock::now();
    f();
    g_tracer->aggregate(
        name, std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count());
}

/** @{ The benchmark's replacement operator new counts allocations
 * while counting is on (the traced run only). */
void setAllocCounting(bool on);
std::uint64_t allocCount();
/** @} */

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
