/**
 * @file
 * perfbench: runs one benchmark workload in this process and prints
 * its metrics, ending with one JSON line. perfbench/run.py builds this
 * binary, samples set-up time across several processes and prints the
 * benchmark's result line; see perfbench/README.md.
 *
 *   perfbench --workload <em_search|droop_search|service_mix>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--setup-only] [--out-dir <dir>]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "span_trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<em_search|droop_search|service_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup-only] "
                 "[--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--out-dir")
            args.out_dir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.workload != "em_search" && args.workload != "droop_search"
        && args.workload != "service_mix")
        usage("unknown workload");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const double start_s = nowSeconds();
    Report report;
    try {
        RunArgs args = parseArgs(argc, argv);
        args.start_s = start_s;
        if (args.workload == "service_mix")
            runServiceWorkload(args, report);
        else
            runSearchWorkload(args, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::fflush(stdout);
    report.print(std::cout);
    return report.failed() == 0 ? 0 : 1;
}
