// Unit tests of the harness's own C++ code:
//
//   cmake --build .bench_build/hostbench --target hostbench_test
//   .bench_build/hostbench/hostbench_test
//
// Exit 0 when every check holds; each failed check is printed.

#include <cstdio>
#include <sstream>
#include <string>

#include "src/harness.hpp"

namespace {

int g_failed = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAILED: %s\n", what);
        ++g_failed;
    }
}

void
serveResponses()
{
    using hostbench::serveResponseProblem;
    const std::string head = "{\"id\":\"o1\",\"client\":\"c0\",\"status\":";
    expect(serveResponseProblem(head + "\"ok\",\"cycles\":9,\"checked\":64,"
                                       "\"mismatches\":0}")
               .empty(),
           "a checked cycle-tier response passes");
    expect(serveResponseProblem(head + "\"est\",\"cycles\":9,\"checked\":0,"
                                       "\"mismatches\":0}")
               .empty(),
           "an analytic estimate passes unchecked");
    expect(!serveResponseProblem(head + "\"ok\",\"cycles\":9,\"checked\":0,"
                                        "\"mismatches\":0}")
                .empty(),
           "an ok response that checked nothing fails");
    expect(!serveResponseProblem(head + "\"ok\",\"cycles\":9,"
                                        "\"mismatches\":0}")
                .empty(),
           "an ok response without a checked field fails");
    expect(!serveResponseProblem(head + "\"MISMATCH\",\"checked\":64,"
                                        "\"mismatches\":3}")
                .empty(),
           "a mismatch fails");
    expect(!serveResponseProblem(head + "\"REJECTED\",\"reason\":\"q\"}")
                .empty(),
           "a rejection fails");
    expect(!serveResponseProblem("").empty(), "a missing response fails");
}

void
specParsing()
{
    hostbench::Spec spec;
    std::string error;
    std::istringstream ok("workload serve_fleet\nthreads 3\nseconds 2.5\n"
                          "open 50000 {\"id\":\"o0\"}\n");
    expect(hostbench::parseSpec(ok, &spec, &error), "a valid pass parses");
    expect(spec.threads == 3 && spec.open.size() == 1 &&
               spec.open[0].first == 50000 &&
               spec.open[0].second == "{\"id\":\"o0\"}",
           "the parsed pass keeps its values");
    std::istringstream unknown("workload serve_fleet\nclock_mhz 10\n");
    expect(!hostbench::parseSpec(unknown, &spec, &error),
           "an unknown key is refused");
    std::istringstream bad("workload sweep_cycle\nthreads 0\n");
    expect(!hostbench::parseSpec(bad, &spec, &error),
           "a pool of zero threads is refused");
}

} // namespace

int
main()
{
    serveResponses();
    specParsing();
    if (g_failed == 0) std::printf("hostbench_test: all checks passed\n");
    return g_failed == 0 ? 0 : 1;
}
