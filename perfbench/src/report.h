/**
 * @file
 * A run's result: named metrics with units and sample counts, plus the
 * attempted/failed tally of operations and output checks. print()
 * writes them as one JSON line, which perfbench/run.py consumes.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstddef>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

namespace perfbench {

class Report
{
  public:
    /** Record a metric value measured over `samples` samples. */
    void
    metric(const std::string &name, double value,
           const std::string &unit, std::size_t samples = 1)
    {
        metrics_.push_back({name, value, unit, samples});
    }

    /** Count one attempted operation; a false outcome also fails. */
    bool
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
        return ok;
    }

    /** Count n operations that all succeeded. */
    void succeeded(std::size_t n) { attempted_ += n; }

    std::size_t failed() const { return failed_; }

    /** The JSON result line. */
    void
    print(std::ostream &os) const
    {
        os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted_
           << ", \"failed\": " << failed_ << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.17g",
                          metrics_[i].value);
            os << (i ? ", " : "") << '"' << metrics_[i].name
               << "\": {\"value\": " << value << ", \"unit\": \""
               << metrics_[i].unit << "\", \"samples\": "
               << metrics_[i].samples << "}";
        }
        os << "}}" << std::endl;
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::size_t samples;
    };

    std::vector<Entry> metrics_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
