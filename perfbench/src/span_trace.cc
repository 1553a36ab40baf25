/**
 * @file
 * Span recorder, Chrome trace export and self-time summary.
 */

#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
workerIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

std::uint64_t
SpanRecorder::reserveId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

std::uint64_t
SpanRecorder::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (span.id == 0)
        span.id = next_id_++;
    const std::uint64_t id = span.id;
    spans_.push_back(std::move(span));
    return id;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace {

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os << buf;
        } else {
            os << c;
        }
    }
    os << '"';
}

} // namespace

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    double origin = 0.0;
    if (!all.empty()) {
        origin = all.front().start_s;
        for (const Span &s : all)
            origin = std::min(origin, s.start_s);
    }
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char num[64];
    for (const Span &s : all) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":";
        writeJsonString(os, s.name);
        std::snprintf(num, sizeof num, "%.3f",
                      (s.start_s - origin) * 1e6);
        os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.worker
           << ",\"ts\":" << num;
        std::snprintf(num, sizeof num, "%.3f", s.duration() * 1e6);
        os << ",\"dur\":" << num << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"job\":" << s.job
           << ",\"generation\":" << s.generation
           << ",\"worker\":" << s.worker << "}}";
    }
    os << "\n]}\n";
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.start_s, s.end_s);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = p.start_s;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, p.end_s);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = std::max(0.0, p.duration() - covered);
    }
    return self;
}

std::vector<SpanSummary>
SpanRecorder::summarize() const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes(all);
    std::unordered_map<std::uint64_t, bool> is_parent;
    for (const Span &s : all)
        if (s.parent != 0)
            is_parent[s.parent] = true;
    std::map<std::string, SpanSummary> by_name;
    for (std::size_t i = 0; i < all.size(); ++i) {
        SpanSummary &row = by_name[all[i].name];
        row.name = all[i].name;
        ++row.count;
        row.total_s += all[i].duration();
        row.self_s += self[i];
        if (is_parent.count(all[i].id) != 0)
            row.has_children = true;
    }
    std::vector<SpanSummary> rows;
    for (auto &[name, row] : by_name)
        rows.push_back(row);
    std::sort(rows.begin(), rows.end(),
              [](const SpanSummary &a, const SpanSummary &b) {
                  return a.total_s > b.total_s;
              });
    return rows;
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, std::string name,
                       std::uint64_t parent, std::int64_t job,
                       std::int64_t generation)
    : recorder_(recorder)
{
    if (recorder_ == nullptr)
        return;
    span_.id = recorder_->reserveId();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.job = job;
    span_.generation = generation;
    span_.worker = workerIndex();
    span_.start_s = nowSeconds();
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_ == nullptr)
        return;
    span_.end_s = nowSeconds();
    recorder_->record(std::move(span_));
}

} // namespace perfbench
