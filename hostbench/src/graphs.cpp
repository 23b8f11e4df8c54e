// schedule_graphs: Scheduler::compare (the `feather_cli --model` action) on
// fixed graphs, single-device and over a fleet, on both candidate-evaluation
// tiers, with a fresh scheduler per operation.

#include <map>
#include <sstream>

#include "common/log.hpp"
#include "harness.hpp"
#include "model/scheduler.hpp"

namespace hostbench {

namespace {

using namespace feather;

/** One `--model` action: graph x placement x tier. */
struct GraphOp
{
    std::string key; ///< the op line, also the determinism key
    const model::ModelGraph *graph = nullptr;
    bool fleet = false;
    sim::EngineMode engine = sim::EngineMode::Cycle;
};

/** Deterministic view of one schedule of a comparison. */
std::string
scheduleEntry(const model::ScheduleResult &r)
{
    return strCat("[\"", r.schedule, "\",", r.est_total, ",", r.cycles, ",",
                  r.macs, "]");
}

model::SchedulerOptions
optionsFor(const GraphOp &op, const Spec &spec, const model::FleetSpec &fleet)
{
    model::SchedulerOptions o;
    o.num_threads = spec.threads;
    o.seed = spec.base_seed;
    o.engine = op.engine;
    if (op.fleet) o.fleet = fleet;
    return o;
}

/** The policies Scheduler::compare ranks for a per-layer primary, in its
 *  order. */
std::vector<model::SchedulePolicy>
comparedPolicies(const model::FleetSpec *fleet)
{
    std::vector<model::SchedulePolicy> out(2);
    out[1].kind = model::ScheduleKind::Greedy;
    for (sim::DataflowKind k :
         {sim::DataflowKind::Canonical, sim::DataflowKind::ChannelParallel,
          sim::DataflowKind::WindowParallel}) {
        model::SchedulePolicy p;
        p.kind = model::ScheduleKind::Fixed;
        p.fixed = k;
        out.push_back(p);
    }
    if (fleet) {
        for (const model::FleetDevice &dev : fleet->devices) {
            model::SchedulePolicy p;
            p.kind = model::ScheduleKind::Pinned;
            p.pinned = dev.name;
            out.push_back(p);
        }
    }
    return out;
}

/** One compare(); fills @p entries and returns false with @p error on
 *  failure or when a schedule is not bit-exact. */
bool
compareOnce(const GraphOp &op, const model::SchedulerOptions &o,
            std::string *entries, std::string *error)
{
    model::Scheduler scheduler(o);
    const std::optional<model::ScheduleComparison> cmp =
        scheduler.compare(*op.graph, model::SchedulePolicy{}, error);
    if (!cmp) return false;
    *entries = "[";
    for (size_t i = 0; i < cmp->schedules.size(); ++i) {
        const model::ScheduleResult &r = cmp->schedules[i];
        if (!r.bitExact()) {
            *error = r.schedule + " not bit-exact";
            return false;
        }
        *entries += (i ? "," : "") + scheduleEntry(r);
    }
    *entries += "]";
    return true;
}

/**
 * The traced twin of compareOnce: evaluate() once, then schedule() every
 * policy compare() ranks, each in its own span. Infeasible fixed/pinned
 * baselines are absent, as in compare().
 */
bool
compareTraced(const GraphOp &op, const model::SchedulerOptions &o,
              std::string *entries, std::string *error, Result *res)
{
    const uint64_t id = trace::newId();
    const int64_t begin = nowNs();
    model::Scheduler scheduler(o);
    const int64_t e0 = nowNs();
    const std::optional<model::Evaluation> eval =
        scheduler.evaluate(*op.graph, error);
    trace::record(trace::newId(), id, id, "model.evaluate", e0, nowNs());
    if (!eval) return false;
    for (const std::vector<model::Candidate> &layer : eval->layers) {
        res->counters["model.candidates"] += double(layer.size());
    }

    *entries = "[";
    bool first = true;
    for (const model::SchedulePolicy &p :
         comparedPolicies(op.fleet ? &o.fleet : nullptr)) {
        std::string err;
        const int64_t s0 = nowNs();
        const std::optional<model::ScheduleResult> r =
            scheduler.schedule(*op.graph, *eval, p, &err);
        trace::record(trace::newId(), id, id, "model.schedule", s0, nowNs());
        if (!r) {
            if (p.kind == model::ScheduleKind::Fixed ||
                p.kind == model::ScheduleKind::Pinned) {
                continue;
            }
            *error = err;
            return false;
        }
        if (!r->bitExact()) {
            *error = r->schedule + " not bit-exact";
            return false;
        }
        res->counters["model.search_nodes"] += double(r->search_nodes);
        *entries += (first ? "" : ",") + scheduleEntry(*r);
        first = false;
    }
    *entries += "]";
    trace::record(id, id, 0, "graph", begin, nowNs());
    return true;
}

} // namespace

Result
runGraphs(const Spec &spec)
{
    Result res;
    std::map<std::string, model::ModelGraph> files;
    model::FleetSpec fleet;
    std::vector<GraphOp> ops;

    // Set-up: parse the fleet spec, load the model files, resolve every
    // op, then construct a scheduler and let lazy initialization finish
    // with one warm-up comparison of the smallest built-in graph.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const int64_t t0 = nowNs();
        std::string error;
        if (!model::parseFleetSpec(spec.fleet, &fleet, &error)) {
            ++res.attempted;
            res.fail("fleet: " + error);
            return res;
        }
        files.clear();
        for (const std::string &path : spec.model_files) {
            std::optional<model::ModelGraph> g =
                model::loadModel(path, &error);
            if (!g) {
                ++res.attempted;
                res.fail(path + ": " + error);
                return res;
            }
            files.emplace(path, std::move(*g));
        }
        ops.clear();
        for (const std::string &line : spec.graph_ops) {
            std::istringstream in(line);
            std::string name, place, tier;
            in >> name >> place >> tier;
            GraphOp op;
            op.key = line;
            const auto f = files.find(name);
            op.graph = f != files.end() ? &f->second : model::findModel(name);
            op.fleet = place == "fleet";
            op.engine = tier == "analytic" ? sim::EngineMode::Analytic
                                           : sim::EngineMode::Cycle;
            if (!op.graph) {
                ++res.attempted;
                res.fail("unknown graph " + name);
                return res;
            }
            ops.push_back(op);
        }
        GraphOp warm;
        warm.graph = model::findModel("bert_mlp");
        std::string entries;
        if (!warm.graph ||
            !compareOnce(warm, optionsFor(warm, spec, fleet), &entries,
                         &error)) {
            ++res.attempted;
            res.fail("warm-up: " + error);
            return res;
        }
        res.setup_s.push_back(secondsBetween(t0, nowNs()));
        res.agree("setup/bert_mlp", entries);
    }

    const double cpu0 = cpuSeconds();
    const int64_t deadline = nowNs() + int64_t(spec.seconds * 1e9);
    for (int round = 0; round < 3 || nowNs() < deadline; ++round) {
        const int64_t r0 = nowNs();
        for (const GraphOp &op : ops) {
            const model::SchedulerOptions o = optionsFor(op, spec, fleet);
            std::string entries, error;
            const int64_t t0 = nowNs();
            const bool ok =
                spec.trace ? compareTraced(op, o, &entries, &error, &res)
                           : compareOnce(op, o, &entries, &error);
            res.latency_ms.push_back(secondsBetween(t0, nowNs()) * 1e3);
            ++res.attempted;
            if (!ok) {
                res.fail(op.key + ": " + error);
                continue;
            }
            res.agree(op.key, entries);
        }
        res.ops_per_s.push_back(double(ops.size()) /
                                secondsBetween(r0, nowNs()));
    }
    res.cpu_s = cpuSeconds() - cpu0;
    res.cpu_ops = res.attempted;
    return res;
}

} // namespace hostbench
