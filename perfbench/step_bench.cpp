/// \file step_bench.cpp
/// Whole-step benchmark of the mini-app: average wall time per time-step
/// (the paper's Figs. 1-3 metric) of the shipped sphexaProfile() preset on
/// three workloads, with output checks on every step and a traced run that
/// splits the step into its layers. README.md beside this file describes
/// the workloads and metrics; run.py builds and runs this driver.
///
///   step_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              [--trace-out <file.json>]
///
/// A run is a series of episodes. An episode sets the workload up from the
/// seed (IC generation, driver construction, first force pass) and times a
/// fixed number of advance() calls, so every run and every commit times the
/// same physical steps; a binned workload extends the episode to the end
/// of its bin cycle.
///
/// --trace 0: episodes while the next one fits in --seconds of wall time (and at
///            least three set-ups); prints the end-to-end metrics, medians
///            over the run's steps (over its episodes when binned).
/// --trace 1: one untraced episode, the same episode with every phase op
///            wrapped in a span, and the first step on a single worker;
///            prints the per-layer metrics and writes the spans as Chrome
///            trace-event JSON to --trace-out.
///
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}. Exit code 1 when any check fails, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/code_profiles.hpp"
#include "core/simulation.hpp"
#include "domain/distributed.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "span_recorder.hpp"

namespace {

using namespace sphexa;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Real      = double;
using Particles = ParticleSet<Real>;

constexpr std::size_t kWorkers      = 4;    ///< one process, four pool workers
constexpr std::size_t kSetupRepeats = 3;    ///< setup_s is the median of these
constexpr std::size_t kSerialSteps  = 1;    ///< steps of the single-worker pass
constexpr double kJitter            = 0.05; ///< IC jitter, fraction of the lattice spacing
/// Relative energy drift allowed over one episode: the golden gallery's
/// Evrard gates (tests/test_golden.cpp), and the repository's Sedov
/// end-to-end test under the same preset (tests/test_integration_extra.cpp)
/// for Sedov, whose blast start drifts ~1.4e-3 per CFL step.
constexpr double kEvrardDrift = 1e-3;
constexpr double kSedovDrift  = 2e-2;
/// A binned episode that has not closed its bin cycle after this many
/// seconds of advance() time fails.
constexpr double kCycleTimeout = 60.0;

double now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- workloads ---------------------------------------------------------------

struct Problem
{
    Particles ps;
    Box<Real> box;
    SimulationConfig<Real> cfg;
};

Problem sedov(std::size_t nSide, std::uint64_t seed)
{
    Problem pr;
    SedovConfig<Real> ic;
    ic.nSide   = nSide;
    auto setup = makeSedov(pr.ps, ic);
    pr.box     = setup.box;
    pr.cfg     = sphexaProfile<Real>().config;
    jitterPositions(pr.ps, pr.box, setup.spacing, kJitter, seed);
    return pr;
}

/// Evrard collapse with the golden gallery's gravity parameters, in 2^k bins.
Problem evrardIndividual(std::uint64_t seed)
{
    Problem pr;
    EvrardConfig<Real> ic;
    ic.nSide                 = 16;
    pr.box                   = makeEvrard(pr.ps, ic).box;
    pr.cfg                   = sphexaProfile<Real>().config;
    pr.cfg.selfGravity       = true;
    pr.cfg.gravity.G         = 1;
    pr.cfg.gravity.theta     = 0.5;
    pr.cfg.gravity.softening = 0.02;
    pr.cfg.timestep.mode     = TimesteppingMode::Individual;
    pr.cfg.neighborMode      = NeighborMode::IndividualTreeWalk;
    // the spacing of the lattice before its radial stretch
    jitterPositions(pr.ps, pr.box, 2 * ic.R / Real(ic.nSide), kJitter, seed);
    return pr;
}

/// Sedov through the distributed driver, with exactly the config fields
/// that driver honours.
Problem sedovRanks(std::uint64_t seed)
{
    Problem pr        = sedov(30, seed);
    pr.cfg.searchMode = NeighborSearchMode::TreeWalk;
    pr.cfg.sfcReorder = false;
    return pr;
}

struct Workload
{
    const char* name;
    int ranks;                ///< 0: shared-memory Simulation, else simulated ranks
    std::size_t episodeSteps; ///< advance() calls timed after each set-up
    bool binned;              ///< then continue to the end of the bin cycle
    double driftTolerance;
    Problem (*make)(std::uint64_t seed);
};

const Workload kWorkloads[] = {
    {"sedov-hydro", 0, 5, false, kSedovDrift, [](std::uint64_t s) { return sedov(46, s); }},
    {"evrard-individual", 0, 2, true, kEvrardDrift, evrardIndividual},
    {"sedov-ranks4", 4, 6, false, kSedovDrift, sedovRanks},
};

// --- layers --------------------------------------------------------------------

/// Span and metric name of each wrapped phase; `parallel` names the phases
/// whose StepReport::phaseLoad is reported.
struct PhaseLayer
{
    Phase phase;
    const char* span;
    const char* parallel;
};

constexpr PhaseLayer kPhaseLayers[] = {
    {Phase::L_SfcSort, "tree.L_sort", nullptr},
    {Phase::A_TreeBuild, "tree.A_build", nullptr},
    {Phase::B_NeighborSearch, "tree.B_search", nullptr},
    {Phase::C_SmoothingLength, "sph.C_hlen", nullptr},
    {Phase::D_NeighborSymmetrize, "sph.D_symmetrize", nullptr},
    {Phase::E_Density, "sph.E_density", "parallel.E_density"},
    {Phase::F_EosAndIad, "sph.F_eos_iad", "parallel.F_eos_iad"},
    {Phase::G_DivCurl, "sph.G_divcurl", "parallel.G_divcurl"},
    {Phase::H_MomentumEnergy, "sph.H_momentum", "parallel.H_momentum"},
    {Phase::I_SelfGravity, "tree.I_gravity", "parallel.I_gravity"},
    {Phase::J_TimestepUpdate, nullptr, "parallel.J_update"},
};

const char* spanName(Phase p)
{
    for (const auto& l : kPhaseLayers)
        if (l.phase == p && l.span) return l.span;
    return phaseName(p).data(); // a string literal, so null-terminated
}

/// The driver's pipeline with every phase op wrapped in a span.
Propagator<Real> tracedPipeline(const Propagator<Real>& base, SpanRecorder& rec)
{
    auto segments = base.segments();
    for (auto& seg : segments)
    {
        for (auto& op : seg.ops)
        {
            op.run = [inner = std::move(op.run), name = spanName(op.phase),
                      &rec](StepContext<Real>& ctx) {
                ScopedSpan span(rec, name);
                inner(ctx);
            };
        }
    }
    return Propagator<Real>(std::move(segments));
}

/// Fold one loop-statistics record into a running total.
void merge(PhaseLoadStats& total, const PhaseLoadStats& s)
{
    total.accumulate(s.workerBusySeconds, s.workerIterations, s.chunks, s.wallSeconds);
}

/// What one advance() reported, read from the driver's public report.
struct StepRecord
{
    double seconds          = 0; ///< wall time of advance()
    std::size_t updates     = 0; ///< particles whose forces were recomputed
    std::size_t pairs       = 0;
    unsigned hIterations    = 0;
    std::size_t overflow    = 0;
    GravityStats gravity{};
    std::array<double, phaseCount> phaseSeconds{}; ///< summed over ranks
    std::array<PhaseLoadStats, phaseCount> load{}; ///< merged over ranks
    // distributed driver only
    double decompSeconds   = 0;
    double haloSeconds     = 0;
    std::size_t bytesSent  = 0;
    std::size_t messages   = 0;
    std::size_t ghosts     = 0;
    double rankLoadBalance = 0;
};

// --- drivers -------------------------------------------------------------------

class Driver
{
public:
    Driver()                         = default;
    Driver(const Driver&)            = delete;
    Driver& operator=(const Driver&) = delete;
    virtual ~Driver()                = default;
    /// One timed advance(); spans go to \p rec when it is set.
    virtual StepRecord advance(SpanRecorder* rec) = 0;
    /// All particles after the last advance() (ghosts dropped).
    virtual const Particles& state() = 0;
    virtual double totalEnergy() = 0;
    virtual bool atFullSync() const = 0;
};

class SingleRankDriver final : public Driver
{
public:
    /// Construction plus the first force pass.
    SingleRankDriver(Problem pr, SpanRecorder* rec)
        : sim_(std::move(pr.ps), pr.box, pr.cfg)
    {
        std::optional<ScopedSpan> span;
        if (rec)
        {
            sim_.setPipeline(tracedPipeline(sim_.pipeline(), *rec));
            span.emplace(*rec, "core.computeForces");
        }
        sim_.computeForces();
    }

    StepRecord advance(SpanRecorder* rec) override
    {
        StepRecord r;
        StepReport<Real> rep;
        double t0 = now();
        if (rec)
        {
            rec->beginStep(sim_.step() + 1);
            ScopedSpan span(*rec, "core.advance");
            rep = sim_.advance();
        }
        else
        {
            rep = sim_.advance();
        }
        r.seconds      = now() - t0;
        r.updates      = rep.activeParticles;
        r.pairs        = rep.neighborInteractions;
        r.hIterations  = rep.hIterations;
        r.overflow     = rep.neighborOverflow;
        r.gravity      = rep.gravityStats;
        r.phaseSeconds = rep.phaseSeconds;
        r.load         = rep.phaseLoad;
        return r;
    }

    const Particles& state() override { return sim_.particles(); }
    double totalEnergy() override { return sim_.conservation().totalEnergy(); }
    bool atFullSync() const override { return sim_.timestepController().atFullSync(); }

private:
    Simulation<Real> sim_;
};

class DistributedDriver final : public Driver
{
public:
    /// Construction runs the bootstrap decomposition and first force pass.
    DistributedDriver(Problem pr, int ranks)
        : ngmax_(pr.cfg.ngmax)
        , sim_(std::move(pr.ps), pr.box, eosFromConfig<Real>(pr.cfg), pr.cfg, ranks)
    {
        state_ = sim_.gather();
    }

    StepRecord advance(SpanRecorder* rec) override
    {
        StepRecord r;
        DistributedStepReport<Real> rep;
        double t0 = now();
        if (rec)
        {
            rec->beginStep(sim_.step() + 1);
            ScopedSpan span(*rec, "core.advance");
            rep = sim_.advance();
        }
        else
        {
            rep = sim_.advance();
        }
        r.seconds = now() - t0;
        for (const auto& rk : rep.ranks)
        {
            r.updates += rk.localParticles;
            r.pairs += rk.neighborInteractions;
            for (int p = 0; p < phaseCount; ++p)
            {
                r.phaseSeconds[p] += rk.phaseSeconds[p];
                merge(r.load[p], rk.phaseLoad[p]);
            }
            r.decompSeconds += rk.decompositionSeconds;
            r.haloSeconds += rk.haloSeconds;
            r.bytesSent += rk.traffic.bytesSent;
            r.messages += rk.traffic.messagesSent;
            r.ghosts += rk.ghostParticles;
        }
        r.rankLoadBalance = rep.loadBalance();
        // the distributed report has no overflow counter: a neighbor count
        // at the list capacity may have been truncated, so it counts
        state_ = sim_.gather();
        r.overflow = std::size_t(std::count_if(state_.nc.begin(), state_.nc.end(),
                                               [&](int c) { return c >= int(ngmax_); }));
        return r;
    }

    const Particles& state() override { return state_; }
    double totalEnergy() override { return sim_.conservation().totalEnergy(); }
    bool atFullSync() const override { return true; }

private:
    unsigned ngmax_;
    DistributedSimulation<Real> sim_;
    Particles state_;
};

/// Set-up: IC generation, driver construction and the first force pass.
std::unique_ptr<Driver> setUp(const Workload& w, std::uint64_t seed, SpanRecorder* rec)
{
    Problem pr = w.make(seed);
    if (w.ranks > 0) return std::make_unique<DistributedDriver>(std::move(pr), w.ranks);
    return std::make_unique<SingleRankDriver>(std::move(pr), rec);
}

// --- checks --------------------------------------------------------------------

/// Every field finite, every density and smoothing length positive.
bool healthy(const Particles& ps)
{
    for (const auto* f : ps.realFields())
        for (Real v : *f)
            if (!std::isfinite(v)) return false;
    for (std::size_t i = 0; i < ps.size(); ++i)
        if (!(ps.rho[i] > 0) || !(ps.h[i] > 0)) return false;
    return true;
}

/// FNV-1a over positions, velocities, u and h of all particles in id order.
std::uint64_t checksum(const Particles& ps)
{
    std::vector<std::size_t> order(ps.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ps.id[a] < ps.id[b]; });
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const std::vector<Real>* fields[] = {&ps.x,  &ps.y,  &ps.z, &ps.vx,
                                         &ps.vy, &ps.vz, &ps.u, &ps.h};
    for (std::size_t i : order)
    {
        for (const auto* f : fields)
        {
            unsigned char bytes[sizeof(Real)];
            std::memcpy(bytes, &(*f)[i], sizeof(Real));
            for (unsigned char b : bytes)
                hash = (hash ^ b) * 0x100000001b3ull;
        }
    }
    return hash;
}

/// One set-up and the steps timed after it.
struct Episode
{
    double setupSeconds = 0;
    std::size_t particles = 0;
    std::vector<StepRecord> steps;
    std::vector<std::uint64_t> checksums; ///< final-state checksum after each step
    std::size_t failed = 0;
    double drift       = 0; ///< relative total-energy change over the episode
    bool cycleClosed   = true;

    double seconds() const
    {
        double s = 0;
        for (const auto& r : steps)
            s += r.seconds;
        return s;
    }
    double stepSeconds() const { return seconds() / double(steps.size()); }
};

/// Set up, then advance the workload's episode (at most \p maxSteps steps,
/// on \p stepWorkers pool workers when that is set), checking the outputs
/// after every step; stops at the first failure.
Episode runEpisode(const Workload& w, std::uint64_t seed, SpanRecorder* rec,
                   std::size_t maxSteps = SIZE_MAX, std::size_t stepWorkers = 0)
{
    Episode ep;
    double t0 = now();
    auto d    = setUp(w, seed, rec);
    ep.setupSeconds = now() - t0;
    if (stepWorkers) WorkerPool::instance().resize(stepWorkers);
    ep.particles    = d->state().size();
    double e0 = d->totalEnergy();
    double timed = 0;
    while (ep.steps.size() < maxSteps)
    {
        if (ep.steps.size() >= w.episodeSteps)
        {
            if (!w.binned || d->atFullSync()) break;
            if (timed >= kCycleTimeout)
            {
                ep.cycleClosed = false;
                break;
            }
        }
        StepRecord r = d->advance(rec);
        timed += r.seconds;
        ep.steps.push_back(r);
        const Particles& ps = d->state();
        ep.checksums.push_back(checksum(ps));
        if (r.overflow > 0 || !healthy(ps))
        {
            ++ep.failed;
            break;
        }
    }
    ep.drift = std::abs(d->totalEnergy() - e0) / std::abs(e0);
    if (stepWorkers) WorkerPool::instance().resize(kWorkers);
    return ep;
}

/// Whether a complete episode passed every check, the energy drift included.
bool passed(const Workload& w, const Episode& ep)
{
    if (ep.failed) std::fprintf(stderr, "step_bench: a step failed its output checks\n");
    if (!ep.cycleClosed) std::fprintf(stderr, "step_bench: bin cycle did not close\n");
    if (!(ep.drift <= w.driftTolerance))
        std::fprintf(stderr, "step_bench: energy drift %.3e above %.0e\n", ep.drift,
                     w.driftTolerance);
    return ep.failed == 0 && ep.cycleClosed && ep.drift <= w.driftTolerance;
}

// --- output --------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

double median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// step_s and updates_per_s are medians over timing units: single steps on
/// global time-steps, where every step does the same work, and whole
/// episodes on binned ones, whose steps differ by design.
std::vector<Metric> endToEndMetrics(const std::vector<Episode>& episodes,
                                    const std::vector<double>& setups, double rssMb,
                                    bool binned)
{
    std::vector<double> stepSeconds, updateRates;
    for (const auto& ep : episodes)
    {
        if (binned)
        {
            double updates = 0;
            for (const auto& r : ep.steps)
                updates += double(r.updates);
            stepSeconds.push_back(ep.stepSeconds());
            updateRates.push_back(updates / ep.seconds());
            continue;
        }
        for (const auto& r : ep.steps)
        {
            stepSeconds.push_back(r.seconds);
            updateRates.push_back(double(r.updates) / r.seconds);
        }
    }
    return {{"step_s", median(stepSeconds), "s"},
            {"updates_per_s", median(updateRates), "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", rssMb, "MB"}};
}

/// Per-layer metrics of the traced pass; times and counts are per step.
/// A layer that does not run on the workload reports 0.
std::vector<Metric> layerMetrics(const Episode& base, const Episode& traced,
                                 const Episode& serial, const SpanRecorder& rec,
                                 bool distributed)
{
    const double n = double(traced.steps.size());
    std::array<double, phaseCount> phase{};
    double advanceSelf = 0;
    if (distributed)
    {
        // phases run inside the driver: their times come from its report
        double advance = traced.seconds();
        double inner   = 0;
        for (const auto& r : traced.steps)
        {
            for (int p = 0; p < phaseCount; ++p)
                phase[p] += r.phaseSeconds[p];
            inner += r.decompSeconds + r.haloSeconds;
        }
        for (int p = 0; p < phaseCount; ++p)
            if (Phase(p) != Phase::J_TimestepUpdate) inner += phase[p];
        advanceSelf = advance - inner;
    }
    else
    {
        auto self = rec.selfSeconds();
        for (std::size_t i = 0; i < rec.spans().size(); ++i)
        {
            const auto& s = rec.spans()[i];
            if (s.step == 0) continue; // the set-up force pass
            if (std::strcmp(s.name, "core.advance") == 0) advanceSelf += self[i];
            for (const auto& l : kPhaseLayers)
                if (l.span && std::strcmp(s.name, l.span) == 0) phase[int(l.phase)] += self[i];
        }
        for (const auto& r : traced.steps)
            phase[int(Phase::J_TimestepUpdate)] += r.phaseSeconds[int(Phase::J_TimestepUpdate)];
    }

    double pairs = 0, hIter = 0, m2p = 0, p2p = 0, updates = 0;
    double decomp = 0, halo = 0, bytes = 0, messages = 0, ghosts = 0, rankLb = 0;
    std::array<PhaseLoadStats, phaseCount> load{};
    for (const auto& r : traced.steps)
    {
        pairs += double(r.pairs);
        hIter += r.hIterations;
        m2p += double(r.gravity.m2pInteractions);
        p2p += double(r.gravity.p2pInteractions);
        updates += double(r.updates);
        decomp += r.decompSeconds;
        halo += r.haloSeconds;
        bytes += double(r.bytesSent);
        messages += double(r.messages);
        ghosts += double(r.ghosts);
        rankLb += r.rankLoadBalance;
        for (int p = 0; p < phaseCount; ++p)
            merge(load[p], r.load[p]);
    }
    auto at   = [&](Phase p) { return phase[int(p)]; };
    double eh = at(Phase::E_Density) + at(Phase::F_EosAndIad) + at(Phase::G_DivCurl) +
                at(Phase::H_MomentumEnergy);
    double gravity = at(Phase::I_SelfGravity);
    auto rate = [](double count, double sec) { return sec > 0 ? count / sec : 0.0; };

    std::vector<Metric> m;
    for (const auto& l : kPhaseLayers)
    {
        if (!l.span) continue;
        m.push_back({std::string(l.span) + ".self_s", at(l.phase) / n, "s"});
    }
    m.push_back({"sph.C_hlen.iterations", hIter / n, "count"});
    m.push_back({"sph.pairs", pairs / n, "count"});
    m.push_back({"sph.EH.pairs_per_s", rate(pairs, eh), "1/s"});
    m.push_back({"tree.I_gravity.m2p", m2p / n, "count"});
    m.push_back({"tree.I_gravity.p2p", p2p / n, "count"});
    m.push_back({"tree.I_gravity.interactions_per_s", rate(m2p + p2p, gravity), "1/s"});
    m.push_back({"core.advance.self_s", advanceSelf / n, "s"});
    m.push_back({"core.active_frac", updates / (n * double(traced.particles)), "ratio"});
    for (const auto& l : kPhaseLayers)
    {
        if (!l.parallel) continue;
        const auto& t = load[int(l.phase)];
        double balance = t.workerBusySeconds.empty() ? 0.0 : t.loadBalance();
        m.push_back({std::string(l.parallel) + ".load_balance", balance, "ratio"});
        m.push_back({std::string(l.parallel) + ".chunks", double(t.chunks) / n, "count"});
    }
    // the serial episode repeats the first steps of the untraced one
    double base1w = 0;
    for (std::size_t s = 0; s < serial.steps.size(); ++s)
        base1w += base.steps[s].seconds;
    m.push_back({"parallel.speedup_1w", serial.seconds() / base1w, "ratio"});
    m.push_back({"domain.decomp_s", decomp / n, "s"});
    m.push_back({"domain.halo_s", halo / n, "s"});
    m.push_back({"domain.bytes_sent", bytes / n, "bytes"});
    m.push_back({"domain.messages", messages / n, "count"});
    m.push_back({"domain.ghosts", ghosts / n, "count"});
    m.push_back({"domain.rank_load_balance", distributed ? rankLb / n : 0.0, "ratio"});
    m.push_back({"trace.step_s", traced.stepSeconds(), "s"});
    m.push_back({"trace.unattributed_s",
                 (advanceSelf - at(Phase::J_TimestepUpdate)) / n, "s"});
    m.push_back({"trace.overhead_frac", traced.stepSeconds() / base.stepSeconds() - 1.0,
                 "ratio"});
    return m;
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
    {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

int usage(const char* msg)
{
    std::fprintf(stderr,
                 "step_bench: %s\nusage: step_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file.json>]\nworkloads:",
                 msg);
    for (const auto& w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    const Workload* w = nullptr;
    std::optional<std::uint64_t> seed;
    double seconds = 0;
    int trace      = -1;
    std::string traceOut;
    for (int a = 1; a < argc; a += 2)
    {
        if (a + 1 >= argc) return usage("missing value");
        std::string key = argv[a], val = argv[a + 1];
        if (key == "--workload")
        {
            for (const auto& cand : kWorkloads)
                if (val == cand.name) w = &cand;
            if (!w) return usage(("unknown workload " + val).c_str());
        }
        else if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds") seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace") trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        else if (key == "--trace-out") traceOut = val;
        else return usage(("unknown option " + key).c_str());
    }
    if (!w || !seed || !(seconds > 0) || trace < 0) return usage("missing or bad argument");

    WorkerPool::instance().resize(kWorkers);

    // untraced episodes, while the next one fits in --seconds of wall time;
    // each must end in the same state as the first
    std::vector<Episode> episodes;
    const double start = now();
    double episodeWall = 0;
    double rssMb       = 0; ///< peak RSS after the first episode
    bool correct       = true;
    do
    {
        double t0 = now();
        episodes.push_back(runEpisode(*w, *seed, nullptr));
        episodeWall = now() - t0;
        if (episodes.size() == 1) rssMb = peakRssMb();
        correct = passed(*w, episodes.back()) &&
                  episodes.back().checksums.back() == episodes.front().checksums.back();
    } while (correct && !trace && now() - start + episodeWall <= seconds);
    if (episodes.back().checksums.back() != episodes.front().checksums.back())
        std::fprintf(stderr, "step_bench: episodes of one seed ended in different states\n");
    const Episode& base = episodes.front();

    std::size_t attempted = 0, failed = 0;
    for (const auto& ep : episodes)
    {
        attempted += ep.steps.size();
        failed += ep.failed;
    }

    std::vector<Metric> metrics;
    if (!trace || !correct)
    {
        std::vector<double> setups;
        for (const auto& ep : episodes)
            setups.push_back(ep.setupSeconds);
        while (setups.size() < kSetupRepeats)
        {
            double t0 = now();
            setUp(*w, *seed, nullptr);
            setups.push_back(now() - t0);
        }
        metrics = endToEndMetrics(episodes, setups, rssMb, w->binned);
    }
    else
    {
        // the same episode with every phase op in a span
        SpanRecorder rec;
        Episode traced = runEpisode(*w, *seed, &rec);

        // the first step again on a single worker, after a set-up on all of them
        Episode serial = runEpisode(*w, *seed, nullptr, kSerialSteps, 1);

        attempted += traced.steps.size() + serial.steps.size();
        failed += traced.failed + serial.failed;
        bool tracedSame = traced.failed == 0 && traced.checksums == base.checksums;
        bool serialSame =
            serial.failed == 0 &&
            serial.checksums.back() == base.checksums[serial.checksums.size() - 1];
        if (!tracedSame)
            std::fprintf(stderr, "step_bench: traced run changed the final state\n");
        if (!serialSame)
            std::fprintf(stderr, "step_bench: single-worker run changed the final state\n");
        correct = tracedSame && serialSame;

        metrics = layerMetrics(base, traced, serial, rec, w->ranks > 0);
        if (!traceOut.empty() && !rec.writeChromeTrace(traceOut, w->name))
        {
            std::fprintf(stderr, "step_bench: cannot write %s\n", traceOut.c_str());
            correct = false;
        }
    }
    for (const auto& ep : episodes)
    {
        std::fprintf(stderr, "step_bench: episode set-up %.3f s, steps", ep.setupSeconds);
        for (const auto& r : ep.steps)
            std::fprintf(stderr, " %.3f", r.seconds);
        std::fprintf(stderr, " s\n");
    }
    std::fprintf(stderr,
                 "step_bench: %s seed %llu: %zu episode(s) of %zu steps, energy drift "
                 "%.3e, final checksum %016llx\n",
                 w->name, static_cast<unsigned long long>(*seed), episodes.size(),
                 base.steps.size(), base.drift,
                 static_cast<unsigned long long>(base.checksums.back()));
    printResult(correct, attempted, failed, metrics);
    return correct && failed == 0 ? 0 : 1;
}
