/**
 * @file
 * perfbench_driver: the in-process half of the repository benchmark.
 *
 * It calls the library only through public entry points and prints one
 * JSON object per line on stdout; perfbench/run.py turns those lines
 * into metrics and checks.  Three modes:
 *
 *   perfbench_driver run --kernels <k,...> --seconds <s>
 *     Set-up (rules library + analyzeWorkload of every kernel) is timed
 *     in fresh "setup" processes spread over the run (see kSetupReps).
 *     Stdin supplies one kernel order per line, one line per pass; each
 *     pass runs
 *     identifyInstructions(Default) on every kernel at 1 thread and then
 *     at 4 threads.  The first pass always runs; a later one starts only
 *     while it is expected to end within <s> seconds.  Prints one
 *     "setup" per set-up, one "op" per call (wall and process CPU
 *     seconds), and "end".
 *
 *   perfbench_driver probe --kernels <k,...>
 *     Per-layer probes, per kernel in the given order: the frontend steps
 *     one by one; an untraced identify at 1 thread; then, at 4 threads,
 *     the first RII phase's EqSat, extraction, AU, cost and selection
 *     calls on the input runRii's first phase sees, an untraced identify,
 *     and a traced identify after which the existing au.* and extract.*
 *     registry counters and the pool's task/steal counts are read; last,
 *     corpus-backed identify against a fresh and then a primed corpus.
 *     Prints one "process" object and one "kernel" object per kernel.
 *
 *   perfbench_driver setup --kernels <k,...>
 *     kSetupReps timed set-ups; prints one "setup" per set-up.  Run mode
 *     starts it; it is not meant to be run by hand.
 *
 * Exit codes: 0 on success (check failures are reported per op, not by
 * exit code), 2 on bad usage or when a set-up process fails.
 */
#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "corpus/corpus.hpp"
#include "corpus/warm.hpp"
#include "dsl/intern.hpp"
#include "egraph/extract.hpp"
#include "ir/dce.hpp"
#include "ir/simplify.hpp"
#include "ir/unroll.hpp"
#include "isamore/isamore.hpp"
#include "isamore/report.hpp"
#include "support/pool.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace isamore;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU seconds used so far by every thread of this process.  The kernel
 *  leaves time stolen by the hypervisor out of it, unlike wall time. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Time one call in milliseconds. */
template <typename F>
double
timeMs(F&& fn)
{
    const auto start = Clock::now();
    fn();
    return secondsSince(start) * 1e3;
}

std::optional<workloads::Workload>
makeKernel(const std::string& name)
{
    static const std::map<std::string, workloads::Workload (*)()> kFactories = {
        {"2dconv", workloads::makeConv2D},  {"matmul", workloads::makeMatMul},
        {"matchain", workloads::makeMatChain}, {"fft", workloads::makeFft},
        {"stencil", workloads::makeStencil}, {"qprod", workloads::makeQProd},
        {"qrdecomp", workloads::makeQRDecomp},
        {"deriche", workloads::makeDeriche}, {"sha", workloads::makeSha},
    };
    auto it = kFactories.find(name);
    if (it == kFactories.end()) {
        return std::nullopt;
    }
    return it->second();
}

std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

/** VmHWM of this process in kB (0 when /proc is unavailable). */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtol(line.c_str() + 6, nullptr, 10);
        }
    }
    return 0;
}

/** @p text as a JSON string literal.  Local, not telemetry::jsonEscape,
 *  so that run mode also builds against the seed commit (no telemetry). */
std::string
quote(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** Accumulates one flat JSON object of named numbers. */
class JsonObject {
 public:
    explicit JsonObject(std::string event) { add("event", quote(event)); }

    JsonObject&
    num(const std::string& key, double value)
    {
        std::ostringstream os;
        os.precision(17);
        os << value;
        return add(key, os.str());
    }

    JsonObject&
    add(const std::string& key, const std::string& rawJson)
    {
        body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + rawJson;
        return *this;
    }

    void print() const { std::cout << "{" << body_ << "}" << std::endl; }

 private:
    std::string body_;
};

/** Set-up sampling in run mode.  Set-up takes 7 to 50 ms, and the
 *  host's speed shifts by up to ~40% for seconds at a time, so set-ups
 *  timed at one moment tell more about that moment than about the
 *  program.  Run mode therefore times kSetupReps set-ups in a fresh
 *  process before the first op and before every op that starts at least
 *  kSetupEverySeconds after the previous such burst.  A fresh process,
 *  because in the run's own process set-up after an identify call is
 *  ~40% slower than before one. */
constexpr int kSetupReps = 3;
constexpr double kSetupEverySeconds = 3.0;

struct Options {
    std::string mode;
    std::vector<std::string> kernels;
    double seconds = 10.0;
};

bool
parseOptions(int argc, char** argv, Options& opts)
{
    if (argc < 2) {
        return false;
    }
    opts.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--kernels") {
            opts.kernels = splitList(value);
        } else if (flag == "--seconds") {
            opts.seconds = std::atof(value.c_str());
        } else {
            return false;
        }
    }
    if ((argc % 2) != 0 || opts.kernels.empty() || !(opts.seconds > 0)) {
        return false;
    }
    for (const std::string& k : opts.kernels) {
        if (!makeKernel(k)) {
            std::cerr << "unknown kernel: " << k << "\n";
            return false;
        }
    }
    return opts.mode == "run" || opts.mode == "probe" || opts.mode == "setup";
}

/** Rules library plus analyzeWorkload of every kernel. */
void
setUp(const Options& opts, std::optional<rules::RulesetLibrary>& library,
      std::map<std::string, AnalyzedWorkload>& analyzed)
{
    analyzed.clear();
    library.emplace(rules::defaultLibrary());
    for (const std::string& k : opts.kernels) {
        analyzed.emplace(k, analyzeWorkload(*makeKernel(k)));
    }
}

/** Setup mode: kSetupReps timed set-ups, one "setup" line each. */
int
setupMode(const Options& opts)
{
    std::optional<rules::RulesetLibrary> library;
    std::map<std::string, AnalyzedWorkload> analyzed;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto start = Clock::now();
        setUp(opts, library, analyzed);
        JsonObject("setup").num("seconds", secondsSince(start)).print();
    }
    return 0;
}

/** Run setup mode in a child process that shares this one's stdout, and
 *  wait for it; returns whether it succeeded. */
bool
setUpInFreshProcess(const Options& opts)
{
    std::string kernels;
    for (const std::string& k : opts.kernels) {
        kernels += (kernels.empty() ? "" : ",") + k;
    }
    std::string self = "/proc/self/exe";
    std::string mode = "setup";
    std::string flag = "--kernels";
    char* argv[] = {self.data(), mode.data(), flag.data(), kernels.data(),
                    nullptr};
    std::cout.flush();
    pid_t child = 0;
    if (posix_spawn(&child, self.c_str(), nullptr, nullptr, argv, environ) !=
        0) {
        std::cerr << "cannot start a set-up process\n";
        return false;
    }
    int status = 0;
    while (waitpid(child, &status, 0) < 0) {
        if (errno != EINTR) {
            return false;
        }
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** One identify call, reported with its document or its error. */
void
runOp(size_t pass, size_t threads, const std::string& kernel,
      const AnalyzedWorkload& analyzed, const rules::RulesetLibrary& library,
      const rii::RiiConfig& config)
{
    JsonObject op("op");
    op.num("pass", static_cast<double>(pass))
        .num("threads", static_cast<double>(threads))
        .add("kernel", quote(kernel));
    const auto start = Clock::now();
    const double cpuStart = processCpuSeconds();
    auto timed = [&] {
        op.num("seconds", secondsSince(start))
            .num("cpu_seconds", processCpuSeconds() - cpuStart);
    };
    try {
        rii::RiiResult result = identifyInstructions(analyzed, library, config);
        timed();
        op.add("degraded", result.diagnostics.degraded() ? "true" : "false")
            .add("doc", quote(resultToJson(analyzed, result)));
    } catch (const std::exception& e) {
        timed();
        op.add("error", quote(e.what()));
    }
    op.print();
}

int
runMode(const Options& opts)
{
    std::optional<rules::RulesetLibrary> library;
    std::map<std::string, AnalyzedWorkload> analyzed;
    setUp(opts, library, analyzed);
    auto lastSetup = Clock::now();
    if (!setUpInFreshProcess(opts)) {
        return 2;
    }

    const rii::RiiConfig config = rii::RiiConfig::forMode(rii::Mode::Default);
    const auto start = Clock::now();
    std::string line;
    size_t pass = 0;
    while (std::getline(std::cin, line)) {
        const double elapsed = secondsSince(start);
        if (pass > 0 && elapsed * (pass + 1) / pass > opts.seconds) {
            break;
        }
        const std::vector<std::string> order = splitList(line);
        for (size_t threads : {size_t{1}, size_t{4}}) {
            setGlobalThreads(threads);
            for (const std::string& k : order) {
                if (secondsSince(lastSetup) >= kSetupEverySeconds) {
                    if (!setUpInFreshProcess(opts)) {
                        return 2;
                    }
                    lastSetup = Clock::now();
                }
                auto it = analyzed.find(k);
                if (it == analyzed.end()) {
                    std::cerr << "schedule names unknown kernel " << k << "\n";
                    return 2;
                }
                runOp(pass, threads, k, it->second, *library, config);
            }
        }
        ++pass;
    }
    JsonObject("end")
        .num("passes", static_cast<double>(pass))
        .num("peak_rss_kb", static_cast<double>(peakRssKb()))
        .print();
    return 0;
}

/** One kernel's probe readings by metric name. */
using Layers = std::map<std::string, double>;

/** The first RII phase's layer calls, reproduced step by step. */
void
probeFirstPhase(const AnalyzedWorkload& analyzed,
                const rules::RulesetLibrary& library,
                const rii::RiiConfig& config, Layers& layers)
{
    frontend::EncodedProgram work = analyzed.program;
    EqSatLimits limits = config.eqsat;
    limits.maxNodes = std::min(
        limits.maxNodes, std::max<size_t>(1500, 4 * work.egraph.numNodes()));
    EqSatStats eq;
    layers["egraph.eqsat_ms"] = timeMs(
        [&] { eq = runEqSat(work.egraph, library.intSat(), limits); });
    layers["egraph.search_ms"] = eq.searchSeconds * 1e3;
    layers["egraph.apply_ms"] = eq.applySeconds * 1e3;
    layers["egraph.rebuild_ms"] = eq.rebuildSeconds * 1e3;
    layers["egraph.applications"] = static_cast<double>(eq.applications);
    layers["egraph.peak_nodes"] = static_cast<double>(eq.peakNodes);

    layers["egraph.extract_ms"] = timeMs([&] {
        Extractor extractor(work.egraph, astSizeCost);
        extractor.extract(work.root);
    });

    rii::AuResult au;
    layers["au.sweep_ms"] =
        timeMs([&] { au = rii::identifyPatterns(work.egraph, config.au); });

    rii::PatternRegistry registry;
    rii::CostModel cost(analyzed.program, analyzed.profile, registry,
                        config.invokeOverheadNs);
    std::vector<rii::PatternEval> costed;
    layers["cost.evaluate_ms"] = timeMs([&] {
        for (const TermPtr& p : au.patterns) {
            costed.push_back(cost.evaluate(registry.add(p), work.egraph));
        }
    });
    layers["cost.evaluations"] = static_cast<double>(costed.size());
    layers["cost.positive"] = static_cast<double>(
        std::count_if(costed.begin(), costed.end(),
                      [](const rii::PatternEval& e) { return e.deltaNs > 0; }));

    // runRii's crop: best first, at most maxCostedCandidates, and no
    // non-positive tail.  App nodes for the kept candidates go in
    // before selection, as in the pipeline.
    std::sort(costed.begin(), costed.end(),
              [](const rii::PatternEval& a, const rii::PatternEval& b) {
                  return a.deltaNs > b.deltaNs;
              });
    costed.resize(std::min(costed.size(), config.maxCostedCandidates));
    while (costed.size() > 1 && costed.back().deltaNs <= 0) {
        costed.pop_back();
    }
    if (costed.empty()) {
        return;
    }
    std::vector<int64_t> ids;
    for (const rii::PatternEval& pe : costed) {
        ids.push_back(pe.id);
    }
    EqSatLimits appLimits;
    appLimits.maxIterations = 1;
    appLimits.maxNodes = limits.maxNodes * 2;
    runEqSat(work.egraph, registry.applicationRules(ids), appLimits);
    std::vector<rii::Solution> front;
    layers["select.ms"] = timeMs([&] {
        front = rii::selectAndRefine(work.egraph, work.root, costed, cost,
                                     config.select);
    });
    layers["select.front_size"] = static_cast<double>(front.size());
}

/** Wall seconds of one identify call. */
double
timeIdentify(const AnalyzedWorkload& analyzed,
             const rules::RulesetLibrary& library, const rii::RiiConfig& config,
             rii::RiiResult* result = nullptr)
{
    const auto start = Clock::now();
    rii::RiiResult r = identifyInstructions(analyzed, library, config);
    const double seconds = secondsSince(start);
    if (result != nullptr) {
        *result = std::move(r);
    }
    return seconds;
}

int
probeMode(const Options& opts)
{
    std::optional<rules::RulesetLibrary> compiled;
    const double libraryMs =
        timeMs([&] { compiled.emplace(rules::defaultLibrary()); });
    const rules::RulesetLibrary& library = *compiled;

    // Frontend layers, step by step as analyzeWorkload runs them.
    std::map<std::string, Layers> layers;
    std::map<std::string, AnalyzedWorkload> analyzed;
    for (const std::string& k : opts.kernels) {
        Layers& row = layers[k];
        workloads::Workload wl = *makeKernel(k);
        row["ir.unroll_ms"] = timeMs([&] {
            if (wl.unrollFactor >= 2) {
                for (ir::Function& fn : wl.module.functions) {
                    ir::unrollInnermostLoops(fn, wl.unrollFactor);
                }
            }
        });
        row["ir.simplify_ms"] = timeMs([&] {
            for (ir::Function& fn : wl.module.functions) {
                ir::simplifyConstantChains(fn);
                ir::eliminateDeadCode(fn);
            }
        });
        AnalyzedWorkload aw;
        for (const ir::Function& fn : wl.module.functions) {
            aw.irInstructions += fn.instructionCount();
        }
        row["ir.instructions"] = static_cast<double>(aw.irInstructions);
        row["profile.interp_ms"] = timeMs([&] {
            profile::Machine machine(wl.module, wl.memoryWords);
            wl.driver(machine);
            aw.profile = machine.moduleProfile();
        });
        std::vector<frontend::DslFunction> dsl;
        row["frontend.restructure_ms"] =
            timeMs([&] { dsl = frontend::convertModule(wl.module); });
        row["frontend.encode_ms"] =
            timeMs([&] { aw.program = frontend::encodeProgram(dsl); });
        row["frontend.eclasses"] =
            static_cast<double>(aw.program.egraph.numClasses());
        aw.workload = std::move(wl);
        analyzed.emplace(k, std::move(aw));
    }

    const rii::RiiConfig config = rii::RiiConfig::forMode(rii::Mode::Default);
    setGlobalThreads(1);
    for (const std::string& k : opts.kernels) {
        layers[k]["identify_ms_t1"] =
            timeIdentify(analyzed.at(k), library, config) * 1e3;
    }

    setGlobalThreads(4);
    auto& registry = telemetry::Registry::instance();
    for (const std::string& k : opts.kernels) {
        Layers& row = layers[k];
        probeFirstPhase(analyzed.at(k), library, config, row);

        const double untraced = timeIdentify(analyzed.at(k), library, config);
        row["identify_ms_t4"] = untraced * 1e3;

        registry.reset();
        const PoolStats poolBefore = globalPool().stats();
        telemetry::setEnabled(true);
        rii::RiiResult r;
        const double traced =
            timeIdentify(analyzed.at(k), library, config, &r);
        telemetry::setEnabled(false);
        const PoolStats poolAfter = globalPool().stats();
        telemetry::Tracer::instance().clear();
        row["identify_traced_ms"] = traced * 1e3;
        row["pool.tasks"] =
            static_cast<double>(poolAfter.tasks - poolBefore.tasks);
        row["pool.steals"] =
            static_cast<double>(poolAfter.steals - poolBefore.steals);
        for (const char* name : {"au.pairs_explored", "au.raw_candidates",
                                 "au.memo_hits", "au.memo_misses",
                                 "extract.evals"}) {
            row[name] = static_cast<double>(registry.counter(name).value());
        }
        registry.reset();

        row["phases"] = static_cast<double>(r.stats.phasesRun);
        row["raw_candidates"] = static_cast<double>(r.stats.rawCandidates);
        row["patterns"] = static_cast<double>(r.stats.dedupedCandidates);
        row["best_speedup"] = r.best().speedup;
        row["area_at_best_um2"] = r.best().areaUm2;
        row["front_size"] = static_cast<double>(r.front.size());
    }
    const size_t internLiveNodes = internStats().terms;

    // The corpus side path: every kernel against a fresh corpus, then
    // every kernel again against the corpus the first sweep primed.
    corpus::Corpus store;
    for (const char* phase : {"corpus.cold_ms", "corpus.warm_ms"}) {
        for (const std::string& k : opts.kernels) {
            layers[k][phase] = timeMs([&] {
                corpus::identifyInstructions(analyzed.at(k), library, config,
                                             store);
            });
        }
    }

    JsonObject("process")
        .num("rules.library_ms", libraryMs)
        .num("dsl.intern_live_nodes", static_cast<double>(internLiveNodes))
        .print();
    for (const std::string& k : opts.kernels) {
        JsonObject out("kernel");
        out.add("kernel", quote(k));
        for (const auto& [name, value] : layers[k]) {
            out.num(name, value);
        }
        out.print();
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opts;
    if (!parseOptions(argc, argv, opts)) {
        std::cerr << "usage: perfbench_driver run --kernels <k,...> "
                     "--seconds <s>\n"
                     "       perfbench_driver probe --kernels <k,...>\n"
                     "       perfbench_driver setup --kernels <k,...>\n";
        return 2;
    }
    if (opts.mode == "setup") {
        return setupMode(opts);
    }
    return opts.mode == "run" ? runMode(opts) : probeMode(opts);
}
