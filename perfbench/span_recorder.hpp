#pragma once

/// \file span_recorder.hpp
/// In-memory span recorder of the whole-step benchmark. A span is one timed
/// call into a layer: its name, start and end on the steady clock, the span
/// that encloses it and the step it belongs to. Spans stay in memory while
/// the benchmark runs; writeChromeTrace() dumps them once at exit as Chrome
/// trace-event JSON, which Perfetto and chrome://tracing open.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char* name;   ///< static layer name, e.g. "sph.D_symmetrize"
    double start;       ///< seconds since the recorder was created
    double end;
    int parent;         ///< index of the enclosing span, -1 for a root
    std::uint64_t step; ///< step id; 0 for the set-up force pass
};

class SpanRecorder
{
public:
    void beginStep(std::uint64_t step) { step_ = step; }

    std::size_t open(const char* name)
    {
        int parent = stack_.empty() ? -1 : int(stack_.back());
        spans_.push_back({name, now(), 0.0, parent, step_});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void close(std::size_t index)
    {
        spans_[index].end = now();
        stack_.pop_back();
    }

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (index-aligned with spans()).
    std::vector<double> selfSeconds() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const auto& s : spans_)
            if (s.parent >= 0) self[std::size_t(s.parent)] -= s.end - s.start;
        return self;
    }

    /// Write all spans as complete ("X") trace events; false on I/O error.
    bool writeChromeTrace(const std::string& path, const std::string& process) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::fprintf(f,
                     "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
                     "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                     "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
                     process.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i)
        {
            const auto& s = spans_[i];
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                         "\"parent\": %d, \"step\": %llu}}",
                         s.name, s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                         static_cast<unsigned long long>(s.step));
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

private:
    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    using Clock = std::chrono::steady_clock;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::uint64_t step_ = 0;
};

/// Records one span for the lifetime of the scope (closed on exceptions too).
class ScopedSpan
{
public:
    ScopedSpan(SpanRecorder& rec, const char* name) : rec_(rec), index_(rec.open(name)) {}
    ~ScopedSpan() { rec_.close(index_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder& rec_;
    std::size_t index_;
};

} // namespace perfbench
