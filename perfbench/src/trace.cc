#include "trace.hh"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer* g_tracer = nullptr;

Tracer::Tracer(std::size_t max_stored_spans)
    : origin_(Clock::now()), maxStored_(max_stored_spans)
{
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

void
Tracer::begin(const char* name)
{
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back({name, nowNs(), 0, nextId_++, parent});
}

void
Tracer::end()
{
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = nowNs() - open.start;
    if (!stack_.empty())
        stack_.back().childNs += dur;

    NameStats& st = byName_[open.name];
    ++st.count;
    st.totalNs += dur;
    st.selfNs += dur - open.childNs;

    if (done_.size() < maxStored_)
        done_.push_back({open.name, open.start, dur, open.id, open.parent,
                         scenario_});
    else
        ++droppedSpans_;
}

void
Tracer::aggregate(const char* name, std::int64_t ns)
{
    if (!stack_.empty())
        stack_.back().childNs += ns;
    NameStats& st = byName_[name];
    ++st.count;
    st.totalNs += ns;
    st.selfNs += ns;
}

std::int64_t
Tracer::layerSelfNs(const std::string& layer) const
{
    std::int64_t total = 0;
    for (const auto& [name, st] : byName_)
        if (name.compare(0, layer.size() + 1, layer + ".") == 0)
            total += st.selfNs;
    return total;
}

bool
Tracer::writeChrome(const std::string& path,
                    const std::string& other_data) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    char buf[384];
    bool first = true;
    for (const Done& d : done_) {
        const std::string name = d.name;
        const std::string cat = name.substr(0, name.find('.'));
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,"
                      "\"scenario\":%llu}}",
                      first ? "" : ",", d.name, cat.c_str(),
                      static_cast<double>(d.start) / 1e3,
                      static_cast<double>(d.dur) / 1e3,
                      static_cast<unsigned long long>(d.id),
                      static_cast<unsigned long long>(d.parent),
                      static_cast<unsigned long long>(d.scenario));
        out << buf;
        first = false;
    }
    out << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"run\":"
        << other_data << ",\"spans_not_stored\":" << droppedSpans_
        << ",\"by_name\":{";
    first = true;
    for (const auto& [name, st] : byName_) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n\"%s\":{\"count\":%llu,\"total_ns\":%lld,"
                      "\"self_ns\":%lld}",
                      first ? "" : ",", name.c_str(),
                      static_cast<unsigned long long>(st.count),
                      static_cast<long long>(st.totalNs),
                      static_cast<long long>(st.selfNs));
        out << buf;
        first = false;
    }
    out << "\n}}}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
