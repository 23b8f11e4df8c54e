#pragma once

/**
 * @file
 * Shared plumbing of the host-time benchmark: the pass description read
 * from stdin, the raw result written to stdout, host clocks, and the span
 * recorder of traced passes.
 *
 * The harness measures; run.py turns the raw samples into metrics and
 * checks them against the recorded expectations. One invocation runs one
 * pass of one workload.
 */

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

/** One pass, as generated by run.py from the workload seed. */
struct Spec
{
    std::string workload; ///< sweep_cycle | schedule_graphs | serve_*
    int threads = 1;      ///< pool size of every layer that has one
    double seconds = 1.0; ///< measured time of the pass
    bool trace = false;   ///< record spans (traced pass)
    std::string spans_path; ///< where a traced pass writes its spans
    uint64_t base_seed = 1; ///< input-data seed handed to the program

    // sweep_cycle: scenarios swept per round, in order.
    std::vector<std::string> sweeps;
    // schedule_graphs: "<graph> <single|fleet> <cycle|analytic>" per op.
    std::vector<std::string> graph_ops;
    /** Model files the graph ops may name, loaded during set-up. */
    std::vector<std::string> model_files;

    // serve_fleet and the fleet of schedule_graphs.
    std::string fleet;
    // serve_*.
    std::vector<std::string> warm;   ///< set-up requests (one per shape)
    std::vector<std::string> replay; ///< pinned-arrival replay requests
    /** Open-loop requests with their due offsets in microseconds. The
     *  replay phase gets what `seconds` leaves after the last due time. */
    std::vector<std::pair<int64_t, std::string>> open;
};

/** Set-ups timed per pass for the setup_s median. */
constexpr int kSetupReps = 9;

/** Parse the line-oriented pass description ("key value" lines). */
bool parseSpec(std::istream &in, Spec *spec, std::string *error);

/** Raw measurements of one pass. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< the first few failure reasons

    std::vector<double> setup_s;
    std::vector<double> latency_ms;  ///< one sample per timed operation
    std::vector<double> ops_per_s;   ///< one throughput sample per round
    double cpu_s = 0.0;              ///< process CPU over the cpu phase
    uint64_t cpu_ops = 0;            ///< operations in the cpu phase

    /** Deterministic outputs per key, as raw JSON values. */
    std::map<std::string, std::string> det;
    /** Per-layer sample series and counters (traced-run inputs). */
    std::map<std::string, std::vector<double>> series;
    std::map<std::string, double> counters;

    void fail(const std::string &why);
    /** Record @p value as the determinism digest of @p key; a different
     *  value for a key seen before is a failure (run-to-run agreement). */
    void agree(const std::string &key, const std::string &value);
};

/** @p r as one line of JSON (plus host context). */
std::string toJson(const Result &r);

/** Monotonic host time in nanoseconds. */
int64_t nowNs();
/** Seconds between two nowNs() readings. */
inline double
secondsBetween(int64_t t0, int64_t t1)
{
    return double(t1 - t0) * 1e-9;
}
/** Process CPU time (user + system) in seconds. */
double cpuSeconds();
/** Peak resident set size of the process in MiB. */
double peakRssMb();

/**
 * Span recorder of traced passes. Spans live in memory until write();
 * each carries its operation id, its own id, its parent's id (0 = the
 * operation root) and a static name.
 */
namespace trace {

void enable(bool on);
bool enabled();
/** A fresh span id (allocate before the children need it). */
uint64_t newId();
/** Store a finished span (no-op when tracing is off). */
void record(uint64_t id, uint64_t op, uint64_t parent, const char *name,
            int64_t t0_ns, int64_t t1_ns);
/** Write every span as CSV: op,id,parent,name,start_ns,end_ns. */
bool write(const std::string &path, std::string *error);

} // namespace trace

/**
 * Why one daemon response line fails the gate ("" = it passes): it must be
 * an analytic estimate ("est") or a verified cycle-tier result ("ok" with
 * `checked` > 0; the daemon says "ok" whenever nothing mismatched, also
 * when nothing was checked).
 */
std::string serveResponseProblem(const std::string &line);

// The workloads (one translation unit each).
Result runSweep(const Spec &spec);
Result runGraphs(const Spec &spec);
Result runServe(const Spec &spec);

} // namespace hostbench
