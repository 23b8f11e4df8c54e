// sweep_cycle: BatchEngine::sweep on the cycle tier over a fixed scenario
// list, default 4 dataflows x 4 arrays grid, a fresh engine (cold plan
// cache) per sweep as every `feather_cli --sweep` run has.

#include <exception>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/engine.hpp"
#include "serve/thread_pool.hpp"
#include "sim/scenario.hpp"

namespace hostbench {

namespace {

using namespace feather;

/** Deterministic outcome of one sweep. */
struct SweepTotals
{
    bool ran = false;
    std::string error;
    size_t jobs = 0;
    size_t bad = 0; ///< jobs that errored or were not bit-exact
    std::string first_bad;
    int64_t cycles = 0;
    int64_t macs = 0;

    void
    add(const std::string &name, bool bit_exact, int64_t c, int64_t m,
        const std::string &why)
    {
        ++jobs;
        cycles += c;
        macs += m;
        if (!bit_exact) {
            if (bad++ == 0) first_bad = name + ": " + why;
        }
    }

    std::string
    digest() const
    {
        return strCat("{\"jobs\":", jobs, ",\"cycles\":", cycles,
                      ",\"macs\":", macs, "}");
    }
};

SweepTotals
sweepOnce(const std::string &scenario, const serve::BatchOptions &opts)
{
    SweepTotals t;
    serve::BatchEngine engine(opts);
    serve::SweepSpec sweep;
    sweep.scenario = scenario;
    const std::optional<serve::BatchReport> report =
        engine.sweep(sweep, nullptr, &t.error);
    if (!report) return t;
    t.ran = true;
    for (const serve::JobResult &j : report->jobs) {
        t.add(j.name, j.bitExact(), j.cycles, j.macs,
              j.ok ? "not bit-exact" : j.error);
    }
    return t;
}

/**
 * The traced twin of sweepOnce: BatchEngine::sweep rebuilt from the same
 * public calls (expandSweep, ThreadPool, runScenario with the engine's
 * per-job seed streams) so every layer boundary gets a span. Plan lookups
 * go through a timing PlanFn around PlanCache::getOrPlan.
 */
SweepTotals
sweepTraced(const std::string &scenario, const serve::BatchOptions &opts,
            Result *result)
{
    SweepTotals t;
    const uint64_t op = trace::newId();
    const int64_t begin = nowNs();
    serve::PlanCache cache;
    serve::SweepSpec sweep;
    sweep.scenario = scenario;
    sweep.engine = opts.engine;
    const int64_t e0 = nowNs();
    const std::optional<std::vector<serve::JobSpec>> jobs =
        serve::expandSweep(sweep, cache, nullptr, &t.error);
    trace::record(trace::newId(), op, op, "serve.plan.expand", e0, nowNs());
    if (!jobs) return t;
    t.ran = true;

    struct JobOut
    {
        std::string name, error;
        bool bit_exact = false;
        int64_t cycles = 0, macs = 0;
    };
    std::vector<JobOut> outs(jobs->size());
    {
        serve::ThreadPool pool(opts.num_threads);
        for (size_t i = 0; i < jobs->size(); ++i) {
            const int64_t submitted = nowNs();
            pool.submit([&, i, submitted] {
                const int64_t start = nowNs();
                trace::record(trace::newId(), op, op, "serve.pool.wait",
                              submitted, start);
                const uint64_t task = trace::newId();
                const uint64_t run_id = trace::newId();
                const serve::JobSpec &spec = (*jobs)[i];
                JobOut &out = outs[i];
                out.name = serve::displayName(spec);
                const sim::Scenario *sc =
                    serve::resolveScenario(spec, &out.error);
                if (sc) {
                    sim::ScenarioOptions o = spec.opts;
                    o.seed = spec.explicit_seed
                                 ? *spec.explicit_seed
                                 : Rng::deriveStream(opts.base_seed, i);
                    o.engine = spec.engine ? *spec.engine : opts.engine;
                    const sim::PlanFn plan =
                        [&cache, op, run_id](sim::EngineMode mode,
                                             sim::DataflowKind kind,
                                             const LayerSpec &layer, int aw,
                                             int ah, std::string *err) {
                            const int64_t a = nowNs();
                            std::optional<sim::LayerPlan> p =
                                cache.getOrPlan(mode, kind, layer, aw, ah,
                                                err);
                            trace::record(trace::newId(), op, run_id,
                                          "serve.plan.lookup", a, nowNs());
                            return p;
                        };
                    const int64_t r0 = nowNs();
                    std::optional<sim::ScenarioRun> run;
                    try {
                        run = sim::runScenario(*sc, o, &out.error, plan);
                    } catch (const std::exception &e) {
                        out.error = e.what();
                    }
                    trace::record(run_id, op, task, "sim.run", r0, nowNs());
                    if (run) {
                        for (const sim::RunResult &r : run->chain.layers) {
                            out.cycles += r.stats.cycles;
                            out.macs += r.stats.macs;
                        }
                        out.bit_exact = run->chain.checked > 0 &&
                                        run->chain.mismatches == 0;
                        if (!out.bit_exact) out.error = "not bit-exact";
                    }
                }
                trace::record(task, op, op, "serve.pool.task", start,
                              nowNs());
            });
        }
        pool.wait();
    }
    trace::record(op, op, 0, "sweep", begin, nowNs());
    for (const JobOut &o : outs) {
        t.add(o.name, o.bit_exact, o.cycles, o.macs, o.error);
    }
    const serve::PlanCache::Stats st = cache.stats();
    result->counters["plan.hits"] += double(st.hits);
    result->counters["plan.lookups"] += double(st.lookups());
    result->counters["sim.cycles"] += double(t.cycles);
    return t;
}

} // namespace

Result
runSweep(const Spec &spec)
{
    Result res;
    serve::BatchOptions opts;
    opts.num_threads = spec.threads;
    opts.base_seed = spec.base_seed;
    opts.engine = sim::EngineMode::Cycle;

    // Set-up: resolve the scenario list, construct an engine and let lazy
    // initialization finish with one warm-up sweep of the quickstart.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const int64_t t0 = nowNs();
        for (const std::string &name : spec.sweeps) {
            if (!sim::findScenario(name)) {
                ++res.attempted;
                res.fail("unknown scenario " + name);
                return res;
            }
        }
        const SweepTotals warm = sweepOnce("quickstart_conv", opts);
        res.setup_s.push_back(secondsBetween(t0, nowNs()));
        if (!warm.ran || warm.bad) {
            ++res.attempted;
            res.fail("warm-up sweep: " + warm.error + warm.first_bad);
            return res;
        }
        res.agree("setup/quickstart_conv", warm.digest());
    }

    const double cpu0 = cpuSeconds();
    const int64_t deadline = nowNs() + int64_t(spec.seconds * 1e9);
    for (int round = 0; round < 3 || nowNs() < deadline; ++round) {
        const int64_t r0 = nowNs();
        size_t round_jobs = 0;
        for (const std::string &name : spec.sweeps) {
            const int64_t t0 = nowNs();
            const SweepTotals t = spec.trace ? sweepTraced(name, opts, &res)
                                             : sweepOnce(name, opts);
            res.latency_ms.push_back(secondsBetween(t0, nowNs()) * 1e3);
            if (!t.ran) {
                ++res.attempted;
                res.fail(name + ": " + t.error);
                continue;
            }
            res.attempted += t.jobs;
            round_jobs += t.jobs;
            for (size_t i = 0; i < t.bad; ++i) {
                res.fail(name + ": " + t.first_bad);
            }
            res.agree(name, t.digest());
        }
        res.ops_per_s.push_back(double(round_jobs) /
                                secondsBetween(r0, nowNs()));
    }
    res.cpu_s = cpuSeconds() - cpu0;
    res.cpu_ops = res.attempted;
    res.counters["threads"] = spec.threads;
    return res;
}

} // namespace hostbench
