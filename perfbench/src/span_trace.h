/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. Spans are
 * recorded around calls into the program's public functions, from the
 * benchmark's side of the call; each carries its parent span and the
 * job, generation and worker it belongs to. At the end of a run the
 * spans are written as Chrome trace-event JSON and folded into a
 * per-name summary of total time, self time and the remainder of each
 * parent span that no child span covers.
 */

#ifndef PERFBENCH_SPAN_TRACE_H
#define PERFBENCH_SPAN_TRACE_H

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic seconds (steady clock). */
double nowSeconds();

/** Small dense index of the calling thread (0 for the first caller). */
std::uint32_t workerIndex();

/** One recorded interval. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span.
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t job = -1;        ///< -1 when not tied to a job.
    std::int64_t generation = -1; ///< -1 when not tied to one.
    std::uint32_t worker = 0;

    double duration() const { return end_s - start_s; }
};

/** Aggregate of every span sharing a name. */
struct SpanSummary
{
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    /// Time inside the spans that none of their children covers.
    double self_s = 0.0;
    bool has_children = false;
};

/** Thread-safe span store. */
class SpanRecorder
{
  public:
    /** Reserve an id for a span whose children start before it ends. */
    std::uint64_t reserveId();

    /** Store a finished span (id 0 is replaced by a fresh one). */
    std::uint64_t record(Span span);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    void writeChromeTrace(std::ostream &os) const;

    /** Per-name totals, sorted by total time, longest first. */
    std::vector<SpanSummary> summarize() const;

  private:
    mutable std::mutex mutex_;
    std::uint64_t next_id_ = 1;
    std::vector<Span> spans_;
};

/**
 * Self time of each span: its duration minus the union of its
 * children's intervals clipped to it (children on parallel workers
 * overlap, so their durations are not simply subtracted).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** RAII span: opens on construction, records on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, std::string name,
               std::uint64_t parent = 0, std::int64_t job = -1,
               std::int64_t generation = -1);
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan();

    /** Id children should name as their parent (0 when disabled). */
    std::uint64_t id() const { return span_.id; }

  private:
    SpanRecorder *recorder_;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_H
