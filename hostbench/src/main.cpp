// hostbench: one measured pass of one workload. Reads the pass description
// (generated by run.py) on stdin, prints the raw measurements as one JSON
// line on stdout. Exit 0 when the pass ran (failures are in the JSON),
// 2 on a malformed description.

#include <cstdio>
#include <exception>
#include <iostream>

#include "harness.hpp"

int
main()
{
    using namespace hostbench;
    Spec spec;
    std::string error;
    if (!parseSpec(std::cin, &spec, &error)) {
        std::fprintf(stderr, "hostbench: %s\n", error.c_str());
        return 2;
    }
    trace::enable(spec.trace);

    Result result;
    try {
        if (spec.workload == "sweep_cycle") {
            result = runSweep(spec);
        } else if (spec.workload == "schedule_graphs") {
            result = runGraphs(spec);
        } else if (spec.workload == "serve_vworkers" ||
                   spec.workload == "serve_fleet") {
            result = runServe(spec);
        } else {
            std::fprintf(stderr, "hostbench: unknown workload %s\n",
                         spec.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        ++result.attempted;
        result.fail(std::string("uncaught exception: ") + e.what());
    }
    if (spec.trace && !trace::write(spec.spans_path, &error)) {
        std::fprintf(stderr, "hostbench: %s\n", error.c_str());
        return 2;
    }
    std::cout << toJson(result) << std::endl;
    return 0;
}
