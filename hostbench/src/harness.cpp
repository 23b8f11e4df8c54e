#include "harness.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/table.hpp"

namespace hostbench {

namespace {

bool
parseInt(const std::string &text, int64_t *out)
{
    try {
        size_t used = 0;
        *out = std::stoll(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

std::string
quoted(const std::string &s)
{
    return "\"" + feather::jsonEscape(s) + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
numbers(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        out += number(v[i]);
    }
    return out + "]";
}

} // namespace

bool
parseSpec(std::istream &in, Spec *spec, std::string *error)
{
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        const size_t sp = line.find(' ');
        const std::string key = line.substr(0, sp);
        const std::string val =
            sp == std::string::npos ? "" : line.substr(sp + 1);
        int64_t n = 0;
        const auto need_int = [&](int64_t lo) {
            if (parseInt(val, &n) && n >= lo) return true;
            *error = "line " + std::to_string(lineno) + ": bad " + key;
            return false;
        };
        if (key == "workload") {
            spec->workload = val;
        } else if (key == "threads") {
            if (!need_int(1)) return false;
            spec->threads = int(n);
        } else if (key == "seconds") {
            spec->seconds = std::atof(val.c_str());
        } else if (key == "trace") {
            spec->trace = val == "1";
        } else if (key == "spans") {
            spec->spans_path = val;
        } else if (key == "base_seed") {
            if (!need_int(0)) return false;
            spec->base_seed = uint64_t(n);
        } else if (key == "sweep") {
            spec->sweeps.push_back(val);
        } else if (key == "graph_op") {
            spec->graph_ops.push_back(val);
        } else if (key == "model_file") {
            spec->model_files.push_back(val);
        } else if (key == "fleet") {
            spec->fleet = val;
        } else if (key == "warm") {
            spec->warm.push_back(val);
        } else if (key == "replay") {
            spec->replay.push_back(val);
        } else if (key == "open") {
            const size_t s2 = val.find(' ');
            if (s2 == std::string::npos || !parseInt(val.substr(0, s2), &n)) {
                *error = "line " + std::to_string(lineno) + ": bad open";
                return false;
            }
            spec->open.emplace_back(n, val.substr(s2 + 1));
        } else {
            *error = "line " + std::to_string(lineno) + ": unknown key " + key;
            return false;
        }
    }
    if (spec->workload.empty()) {
        *error = "no workload line";
        return false;
    }
    return true;
}

void
Result::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
}

void
Result::agree(const std::string &key, const std::string &value)
{
    const auto [it, fresh] = det.emplace(key, value);
    if (!fresh && it->second != value) {
        fail(key + ": output differs from an earlier run of the same input");
    }
}

std::string
toJson(const Result &r)
{
    std::ostringstream out;
    out << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"errors\":[";
    for (size_t i = 0; i < r.errors.size(); ++i) {
        out << (i ? "," : "") << quoted(r.errors[i]);
    }
    out << "],\"setup_s\":" << numbers(r.setup_s)
        << ",\"latency_ms\":" << numbers(r.latency_ms)
        << ",\"ops_per_s\":" << numbers(r.ops_per_s)
        << ",\"cpu_s\":" << number(r.cpu_s) << ",\"cpu_ops\":" << r.cpu_ops
        << ",\"peak_rss_mb\":" << number(peakRssMb()) << ",\"det\":{";
    bool first = true;
    for (const auto &[key, value] : r.det) {
        out << (first ? "" : ",") << quoted(key) << ':' << value;
        first = false;
    }
    out << "},\"series\":{";
    first = true;
    for (const auto &[key, values] : r.series) {
        out << (first ? "" : ",") << quoted(key) << ':' << numbers(values);
        first = false;
    }
    out << "},\"counters\":{";
    first = true;
    for (const auto &[key, value] : r.counters) {
        out << (first ? "" : ",") << quoted(key) << ':' << number(value);
        first = false;
    }
    out << "},\"host\":{\"compiler\":" << quoted("g++ " __VERSION__)
        << ",\"build_type\":" << quoted(HOSTBENCH_BUILD_TYPE) << "}}";
    return out.str();
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

namespace trace {

namespace {

struct Span
{
    uint64_t op, id, parent;
    const char *name;
    int64_t t0, t1;
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_next{1};
std::mutex g_mu;
std::vector<Span> g_spans; // guarded by g_mu

} // namespace

void
enable(bool on)
{
    g_on = on;
}

bool
enabled()
{
    return g_on;
}

uint64_t
newId()
{
    return g_next.fetch_add(1);
}

void
record(uint64_t id, uint64_t op, uint64_t parent, const char *name,
       int64_t t0_ns, int64_t t1_ns)
{
    if (!g_on) return;
    std::lock_guard<std::mutex> lk(g_mu);
    g_spans.push_back({op, id, parent, name, t0_ns, t1_ns});
}

bool
write(const std::string &path, std::string *error)
{
    std::ofstream out(path);
    if (!out) {
        *error = "cannot write spans to " + path;
        return false;
    }
    std::lock_guard<std::mutex> lk(g_mu);
    out << "op,id,parent,name,start_ns,end_ns\n";
    for (const Span &s : g_spans) {
        out << s.op << ',' << s.id << ',' << s.parent << ',' << s.name << ','
            << s.t0 << ',' << s.t1 << '\n';
    }
    return bool(out);
}

} // namespace trace

} // namespace hostbench
