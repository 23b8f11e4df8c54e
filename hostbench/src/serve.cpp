// serve_vworkers / serve_fleet: an in-process daemon::Daemon fed JSON lines
// through enqueueLine by one generator thread. Two phases: a replay of
// pinned-arrival requests as fast as possible (throughput, one fresh daemon
// per replay), then an open loop with wall-clock arrivals at a fixed rate
// (latency from each request's due time).

#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "common/report_norm.hpp"
#include "daemon/daemon.hpp"
#include "harness.hpp"

namespace hostbench {

namespace {

using namespace feather;

/** Value of the string field @p key of a flat JSON line ("" if absent). */
std::string
stringField(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":\"";
    const size_t at = line.find(pat);
    if (at == std::string::npos) return "";
    const size_t b = at + pat.size();
    return line.substr(b, line.find('"', b) - b);
}

/** Value of the integer field @p key of a flat JSON line (0 if absent). */
int64_t
intField(const std::string &line, const std::string &key)
{
    const size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) return 0;
    return std::atoll(line.c_str() + at + key.size() + 3);
}

/** Virtual clock of both serve workloads (the CI daemon smoke's). */
constexpr uint64_t kClockMhz = 10;
/** Virtual servers of serve_vworkers. */
constexpr int kVworkers = 2;

/** What one daemon lifetime measured. */
struct Life
{
    double setup_s = 0.0;
    double phase_s = 0.0; ///< setup end -> run() returned
    double cpu_s = 0.0;   ///< process CPU over the same interval
    double drain_ms = 0.0;
    /** Requests the phase executed: the timed ones plus the warm-up
     *  requests, which enqueueLine only plans and submits, so their
     *  executions run after the set-up ends. */
    size_t ops = 0;
    daemon::DaemonReport report;
};

/** What a daemon lifetime sends after its set-up. */
enum class Phase {
    SetupOnly, ///< nothing: close right after the warm-up
    Replay,    ///< the pinned-arrival list, as fast as possible
    Open,      ///< the open-loop list, each request at its due time
};

class ServeBench
{
  public:
    ServeBench(const Spec &spec, Result *res) : spec_(spec), res_(res) {}

    /** One daemon lifetime: set up, send @p phase's requests, drain,
     *  check every response. */
    Life
    live(Phase phase)
    {
        const bool open = phase == Phase::Open;
        Life life;
        const int64_t t0 = nowNs();
        daemon::DaemonOptions o;
        o.num_threads = spec_.threads;
        o.base_seed = spec_.base_seed;
        o.clock_mhz = kClockMhz;
        if (spec_.workload == "serve_fleet") {
            std::string error;
            if (!daemon::parseFleetSpec(spec_.fleet, &o.fleet, &error)) {
                throw std::runtime_error("fleet: " + error);
            }
            o.fleet.place = daemon::PlacementPolicy::LeastLoaded;
        } else {
            o.virt.vworkers = kVworkers;
        }
        daemon::Daemon d(o);

        const size_t nwarm = spec_.warm.size();
        const size_t ntimed = phase == Phase::Open     ? spec_.open.size()
                              : phase == Phase::Replay ? spec_.replay.size()
                                                       : 0;
        std::vector<Reply> replies(nwarm + ntimed);
        std::vector<Sent> sent(ntimed);
        int64_t setup_end = 0, close_at = 0;
        double cpu_at_setup = 0.0;
        const auto sink = [&replies](size_t i) {
            return [&replies, i](const std::string &line) {
                replies[i].t_recv = nowNs();
                replies[i].line = line;
            };
        };

        std::thread gen([&] {
            for (size_t i = 0; i < nwarm; ++i) {
                d.enqueueLine(spec_.warm[i], sink(i));
            }
            setup_end = nowNs();
            cpu_at_setup = cpuSeconds();
            for (size_t j = 0; j < ntimed; ++j) {
                Sent &s = sent[j];
                if (open) {
                    s.due = setup_end + spec_.open[j].first * 1000;
                    std::this_thread::sleep_until(
                        std::chrono::steady_clock::time_point(
                            std::chrono::nanoseconds(s.due)));
                }
                s.send = nowNs();
                if (!open) s.due = s.send;
                d.enqueueLine(open ? spec_.open[j].second : spec_.replay[j],
                              sink(nwarm + j));
                s.done = nowNs();
            }
            close_at = nowNs();
            d.closeIntake();
        });
        try {
            life.report = d.run();
        } catch (...) {
            d.closeIntake();
            gen.join();
            throw;
        }
        const int64_t end = nowNs();
        const double cpu_end = cpuSeconds();
        gen.join();
        life.cpu_s = cpu_end - cpu_at_setup;

        life.setup_s = secondsBetween(t0, setup_end);
        life.phase_s = secondsBetween(setup_end, end);
        life.drain_ms = secondsBetween(close_at, end) * 1e3;
        life.ops = nwarm + ntimed;
        check(replies, nwarm, sent, open, life);
        return life;
    }

  private:
    struct Reply
    {
        int64_t t_recv = 0;
        std::string line;
    };
    struct Sent
    {
        int64_t due = 0, send = 0, done = 0;
    };

    void
    check(const std::vector<Reply> &replies, size_t nwarm,
          const std::vector<Sent> &sent, bool open, Life &life)
    {
        double useful_us = 0.0;
        for (size_t i = 0; i < replies.size(); ++i) {
            ++res_->attempted;
            const Reply &r = replies[i];
            const std::string problem = serveResponseProblem(r.line);
            if (!problem.empty()) {
                res_->fail(problem);
                continue;
            }
            if (!open) continue;
            const double exec_ms =
                double(intField(r.line, "service_wall_us")) * 1e-3;
            useful_us += exec_ms * 1e3;
            if (i < nwarm) continue;
            const Sent &s = sent[i - nwarm];
            const double latency_ms = double(r.t_recv - s.due) * 1e-6;
            res_->latency_ms.push_back(latency_ms);
            res_->series["daemon.exec_ms"].push_back(exec_ms);
            res_->series["daemon.wait_ms"].push_back(latency_ms - exec_ms);
            res_->series["daemon.enqueue_us"].push_back(
                double(s.done - s.send) * 1e-3);
            res_->series["loadgen.late_ms"].push_back(
                double(s.send - s.due) * 1e-6);
            if (trace::enabled()) {
                const uint64_t op = trace::newId();
                trace::record(trace::newId(), op, op, "loadgen.wait", s.due,
                              s.send);
                trace::record(trace::newId(), op, op, "daemon.enqueue",
                              s.send, s.done);
                trace::record(op, op, 0, "request", s.due, r.t_recv);
            }
        }
        if (open) {
            res_->counters["daemon.useful_exec_s"] += useful_us * 1e-6;
            res_->counters["daemon.phase_cpu_s"] += life.cpu_s;
        }
    }

    const Spec &spec_;
    Result *res_;
};

} // namespace

std::string
serveResponseProblem(const std::string &line)
{
    if (line.empty()) return "no response";
    const std::string status = stringField(line, "status");
    if (status == "est") return "";
    if (status != "ok") return line;
    if (intField(line, "checked") <= 0) {
        return "cycle-tier response checked no outputs: " + line;
    }
    return "";
}

Result
runServe(const Spec &spec)
{
    Result res;
    ServeBench bench(spec, &res);

    for (int rep = 0; rep < kSetupReps; ++rep) {
        res.setup_s.push_back(bench.live(Phase::SetupOnly).setup_s);
    }

    const int64_t open_us = spec.open.empty() ? 0 : spec.open.back().first;
    const int64_t replay_deadline =
        nowNs() + int64_t(spec.seconds * 1e9) - open_us * 1000;
    for (int n = 0; n < 3 || nowNs() < replay_deadline; ++n) {
        const Life life = bench.live(Phase::Replay);
        res.setup_s.push_back(life.setup_s);
        res.ops_per_s.push_back(double(life.ops) / life.phase_s);
        res.series["daemon.drain_ms"].push_back(life.drain_ms);
        res.counters["daemon.cache_hits"] += double(life.report.cache.hits);
        res.counters["daemon.cache_lookups"] +=
            double(life.report.cache.lookups());
        res.agree("replay_report", zeroWallJson(life.report.toJson()));
    }

    const Life life = bench.live(Phase::Open);
    res.setup_s.push_back(life.setup_s);
    res.series["daemon.drain_ms"].push_back(life.drain_ms);
    res.cpu_s = life.cpu_s;
    res.cpu_ops = life.ops;
    return res;
}

} // namespace hostbench
