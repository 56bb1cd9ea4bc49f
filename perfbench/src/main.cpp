// si_perfbench — the repository benchmark: .g text to verdict and
// verified netlist, one spec at a time, through the public entry point
// of each layer.
//
//   si_perfbench --workload csc|wide|symbolic --seed N
//                --seconds S --trace 0|1
//
// Explicit flow per spec (each call timed on its own):
//   stg::read_g -> sg::build_state_graph_outcome -> sg::RegionAnalysis
//   -> mc::check_requirement_outcome -> synth::synthesize_outcome
//   (verify_result = false, deterministic Budget) ->
//   verify::verify_speed_independence (the gate-level oracle).
// Symbolic flow: stg::read_g -> mc::check_stg(Engine::Symbolic).
//
// --trace 0 measures the end-to-end metrics with observability off.
// --trace 1 alternates untraced and traced passes; the traced passes run
// under obs::Mode::Metrics and read the Stable counters before and after
// every call, so per-layer time and work come from the call boundaries
// without any tracing inside the library.
//
// Human-readable report lines go to stdout first; the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. A
// failed correctness gate prints it with "correct": false and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "si/bench_stgs/table1.hpp"
#include "si/gen/gen.hpp"
#include "si/mc/requirement.hpp"
#include "si/mc/symbolic.hpp"
#include "si/netlist/builder.hpp"
#include "si/netlist/print.hpp"
#include "si/obs/obs.hpp"
#include "si/sg/from_stg.hpp"
#include "si/sg/regions.hpp"
#include "si/stg/parse.hpp"
#include "si/synth/sharing.hpp"
#include "si/synth/synthesize.hpp"
#include "si/util/budget.hpp"
#include "si/util/parallel.hpp"
#include "si/verify/verifier.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload definitions

/// Deterministic budget of one spec. Never a wall-clock deadline: a
/// verdict must not depend on the machine.
struct Caps {
    std::uint64_t states, steps, conflicts, attempts, bdd_nodes;
    std::size_t max_inserted_signals, max_search_nodes;
};

// The fuzz_diff default budget (si::gen::DiffOptions).
constexpr Caps kFuzzCaps{1u << 15, 1u << 19, 1u << 14, 128, 0, 4, 24};
// Generous caps for the Table 1 STGs, wide and symbolic: no spec of
// these comes near them.
constexpr Caps kGenerousCaps{1u << 22, 1u << 26, 1u << 20, 4096, 1u << 24, 8, 500};

struct Spec {
    std::string name;   ///< Table 1 name or recipe string
    std::string g_text; ///< what the program sees
    Caps caps = kGenerousCaps;
    int paper_added = -1; ///< Table 1 "added signals" column, -1 elsewhere
    // Pinned symbolic verdict: satisfied with no region missing, over
    // exactly these regions and reachable states.
    std::size_t expect_regions = 0;
    double expect_states = 0;
    std::string why; ///< why a symbolic rung is on the ladder
};

struct Workload {
    std::string name;
    bool symbolic = false;
    bool expect_no_insertion = false;
    /// Tail percentile reported as spec_latency_p95_ms (see tail_rank).
    double tail = 0.95;
    std::vector<Spec> specs;
};

/// splitmix64 step.
std::uint64_t mix(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
    std::uint64_t s = seed;
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[mix(s) % i]);
}

/// Builds a recipe's net and writes its .g text: the program under test
/// only ever sees the text.
Spec from_recipe(const std::string& text) {
    const auto recipe = si::gen::Recipe::parse(text);
    if (!recipe) throw std::runtime_error("bad recipe " + text);
    Spec s;
    s.name = recipe->to_string();
    s.g_text = si::stg::write_g(si::gen::build(*recipe));
    return s;
}

// The recipe lists are fixed; the seed draws the order in which the
// specs are fed. Block order inside a recipe renames and reorders the
// signals, which moves insertion cost by up to 2x (on a 4-vCPU Xeon:
// par:seq3,pipe1 195 ms against par:pipe1,seq3 102 ms), so it is not
// drawn: a seed must not change how much work a pass is.

// csc, generated part: parallel nets with a Seq block, so CSC is violated
// and the SAT insertion engine must add state signals, under the
// fuzz_diff default budget. 8 to 112 states; every net is decided within
// the budget.
const std::vector<std::string> kGenCscRecipes = {
    "par:seq2",       "par:seq2,pipe1", "par:seq3",         "par:seq2,pipe2", "par:seq2,ring1",
    "par:pipe1,seq3", "par:ring2,seq2", "par:seq2,choice2", "par:seq2,ring3",
};

// wide: parallel compositions without Seq blocks, 1.9k to 9.5k states:
// CSC holds, nothing is inserted, and explore / regions / MC / netlist
// build / the gate-level verifier do the work.
const std::vector<std::string> kWideRecipes = {
    "par:ring3,fork3,pipe3", "par:ring4,ring3,pipe2", "par:ring3,ring3,ring3",
    "par:fork3,fork3,fork3", "par:ring4,ring4,pipe3", "par:ring3,ring3,pipe3,pipe2",
    "par:ring4,ring4,fork3",
};

struct Rung {
    const char* recipe;
    std::size_t regions; ///< pinned: non-input excitation regions
    double states;       ///< pinned: exact reachable markings
    const char* why;
};

// symbolic: a fixed ladder of CSC-clean recipes checked by the BDD engine
// only. Every rung is expected to satisfy the MC requirement with no
// region missing; regions and reachable states are pinned (and agree with
// the explicit engine's unfolding).
const std::vector<Rung> kSymbolicLadder = {
    {"par:ring2", 6, 9, "one block: manager set-up and relation-build fixed cost"},
    {"par:pipe2,pipe2", 8, 36, "two marked-graph pipelines: shallow reach fixpoint"},
    {"par:ring2,pipe2", 10, 54, "mixed block kinds in one product"},
    {"par:ring2,ring2", 12, 81, "the smallest ring product"},
    {"par:ring3,ring3", 16, 196, "wider rings: deeper ER/QR fixpoints; the largest rung "
                                 "that keeps a pass near 0.5 s"},
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
    Workload w;
    w.name = name;
    if (name == "csc") {
        // The paper's Table 1 STGs and generated Seq nets in one stream;
        // all but mp-forward-pkt force insertion. As a workload of its
        // own, Table 1 had its median on 2 ms specs, and that median
        // swung with the host's load more than any other metric.
        for (const auto& e : si::bench::table1_suite()) {
            Spec s;
            s.name = e.name;
            s.g_text = e.g_text;
            s.paper_added = e.paper_added;
            w.specs.push_back(std::move(s));
        }
        for (const auto& r : kGenCscRecipes) {
            Spec s = from_recipe(r);
            s.caps = kFuzzCaps;
            w.specs.push_back(std::move(s));
        }
    } else if (name == "wide") {
        w.expect_no_insertion = true;
        w.tail = 0.90;
        for (const auto& r : kWideRecipes) w.specs.push_back(from_recipe(r));
    } else if (name == "symbolic") {
        w.symbolic = true;
        w.tail = 0.90;
        for (const Rung& r : kSymbolicLadder) {
            Spec s = from_recipe(r.recipe);
            s.expect_regions = r.regions;
            s.expect_states = r.states;
            s.why = r.why;
            w.specs.push_back(std::move(s));
        }
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    shuffle(w.specs, seed);
    return w;
}

// ---------------------------------------------------------------------------
// One spec through the flow

enum Layer { kParse, kExplore, kRegions, kMc, kSynth, kVerify, kSymbolic, kNumLayers };
const char* const kLayerName[kNumLayers] = {"stg.parse_ms",    "sg.explore_ms",
                                            "sg.regions_ms",   "mc.check_ms",
                                            "synth.synthesize_ms", "verify.verify_ms",
                                            "bdd.check_stg_ms"};

Counters read_counters() {
    // obs::metrics_json() is a flat, name-sorted {"name": value, ...}.
    Counters c;
    const std::string j = si::obs::metrics_json();
    std::size_t p = 0;
    while ((p = j.find('"', p)) != std::string::npos) {
        const std::size_t q = j.find('"', p + 1);
        if (q == std::string::npos) break;
        std::string key = j.substr(p + 1, q - p - 1);
        std::size_t v = j.find(':', q);
        if (v == std::string::npos) break;
        c[key] = std::strtoull(j.c_str() + v + 1, nullptr, 10);
        p = j.find_first_of(",}", v);
        if (p == std::string::npos) break;
    }
    return c;
}

/// Counter deltas of one call, keyed by counter name.
void add_delta(Counters& into, const Counters& before, const Counters& after) {
    for (const auto& [k, v] : after) {
        const auto it = before.find(k);
        into[k] += v - (it == before.end() ? 0 : it->second);
    }
}

struct Trace {
    double layer_ms[kNumLayers] = {};
    double netlist_ms = 0;  ///< netlist build of the rebuild below
    double rebuild_ms = 0;  ///< whole netlist rebuild and comparison
    double snapshot_ms = 0; ///< counter reads (trace bookkeeping)
    Counters per_layer[kNumLayers]; ///< counter deltas inside each call
};

struct Outcome {
    bool decided = false;
    bool wrong = false;        ///< a correctness gate failed
    std::string message;       ///< why undecided / wrong
    std::string fingerprint;   ///< netlist equations or symbolic verdict text
    std::size_t states = 0;
    std::size_t inserted = 0;
    std::size_t signals = 0;   ///< implemented (non-input) signals
    std::size_t regions = 0;   ///< implemented non-input excitation regions
    std::size_t literals = 0;
};

si::util::Budget make_budget(const Caps& c) {
    si::util::Budget b;
    b.cap(si::util::Resource::States, c.states)
        .cap(si::util::Resource::Steps, c.steps)
        .cap(si::util::Resource::Conflicts, c.conflicts)
        .cap(si::util::Resource::Attempts, c.attempts);
    if (c.bdd_nodes) b.cap(si::util::Resource::BddNodes, c.bdd_nodes);
    return b;
}

/// Runs `f` as one timed layer call; under tracing also takes the
/// counter snapshots around it (their cost is recorded separately).
template <class F>
auto timed(Trace* tr, Layer layer, F&& f) {
    Counters before;
    if (tr) {
        const auto s0 = Clock::now();
        before = read_counters();
        tr->snapshot_ms += ms_since(s0);
    }
    const auto t0 = Clock::now();
    auto result = f();
    const double ms = ms_since(t0);
    if (tr) {
        tr->layer_ms[layer] += ms;
        const auto s0 = Clock::now();
        add_delta(tr->per_layer[layer], before, read_counters());
        tr->snapshot_ms += ms_since(s0);
    }
    return result;
}

/// Frees a layer's result inside that layer's timed window: tearing down
/// a state graph or a verifier result is library work of that layer.
template <class T>
void release(Trace* tr, Layer layer, T& owner) {
    timed(tr, layer, [&] {
        owner.reset();
        return 0;
    });
}

Outcome run_symbolic(const Workload& w, const Spec& spec, Trace* tr) {
    Outcome out;
    si::util::Budget budget = make_budget(spec.caps);
    auto net = timed(tr, kParse, [&] {
        return std::make_unique<si::stg::Stg>(si::stg::read_g(spec.g_text));
    });
    const auto r = timed(tr, kSymbolic, [&] {
        return si::mc::check_stg(*net, si::mc::Engine::Symbolic, {}, &budget);
    });
    if (!r.complete()) {
        out.message = r.exhaustion->describe();
        return out;
    }
    out.decided = true;
    out.states = static_cast<std::size_t>(r.reachable_states);
    out.regions = r.regions;
    out.signals = net->signals().size() - net->signals().count(si::SignalKind::Input);
    out.fingerprint = r.describe();
    release(tr, kParse, net);
    if (!r.satisfied || r.missing != 0 || r.regions != spec.expect_regions ||
        r.reachable_states != spec.expect_states) {
        out.wrong = true;
        out.message = "symbolic verdict differs from the pinned value: " + r.describe();
    }
    return out;
}

Outcome run_explicit(const Workload& w, const Spec& spec, Trace* tr) {
    Outcome out;
    si::util::Budget budget = make_budget(spec.caps);
    auto net = timed(tr, kParse, [&] {
        return std::make_unique<si::stg::Stg>(si::stg::read_g(spec.g_text));
    });
    auto sgo = timed(tr, kExplore, [&] {
        return std::make_unique<si::util::Outcome<si::sg::StateGraph>>(
            si::sg::build_state_graph_outcome(*net, {spec.caps.states, &budget}));
    });
    if (!sgo->is_complete()) {
        out.message = sgo->why().describe();
        return out;
    }
    const si::sg::StateGraph& graph = sgo->value();
    out.states = graph.num_states();
    auto ra = timed(tr, kRegions, [&] { return std::make_unique<si::sg::RegionAnalysis>(graph); });
    auto mco = timed(tr, kMc, [&] {
        return std::make_unique<si::util::Outcome<si::mc::McReport>>(
            si::mc::check_requirement_outcome(*ra, {}, &budget));
    });
    if (!mco->is_complete()) {
        out.message = mco->why().describe();
        return out;
    }
    si::synth::SynthOptions so;
    so.verify_result = false;
    so.max_inserted_signals = spec.caps.max_inserted_signals;
    so.max_search_nodes = spec.caps.max_search_nodes;
    auto syn = timed(tr, kSynth, [&] {
        return std::make_unique<si::util::Outcome<si::synth::SynthesisResult>>(
            si::synth::synthesize_outcome(graph, so, &budget));
    });
    if (!syn->is_complete()) {
        out.message = syn->why().describe();
        return out;
    }
    const si::synth::SynthesisResult& res = syn->value();
    auto vr = timed(tr, kVerify, [&] {
        return std::make_unique<si::verify::VerifyResult>(
            si::verify::verify_speed_independence(res.netlist, res.graph, {}));
    });
    if (!vr->complete()) {
        // A completed synthesis must be proven SI; a verifier cap is no proof.
        out.wrong = true;
        out.message = "verifier gave no verdict on a completed synthesis: " +
                      vr->exhaustion->describe();
        return out;
    }
    out.decided = true;
    out.inserted = res.inserted.size();
    out.signals = res.graph.signals().size() - res.graph.signals().count(si::SignalKind::Input);
    out.regions = res.mc.regions.size();
    out.literals = res.netlist.stats().literals;
    out.fingerprint = si::net::to_equations(res.netlist);
    if (!vr->ok) {
        out.wrong = true;
        out.message = "synthesized netlist is not speed-independent: " + vr->describe();
    } else if (spec.paper_added >= 0 && static_cast<int>(out.inserted) != spec.paper_added) {
        out.wrong = true;
        out.message = "inserted " + std::to_string(out.inserted) + " signals, Table 1 has " +
                      std::to_string(spec.paper_added);
    } else if (w.expect_no_insertion && (out.inserted != 0 || !mco->value().satisfied())) {
        out.wrong = true;
        out.message = "CSC-clean spec needed insertion";
    }
    if (tr) {
        // netlist.build_ms: rebuild the netlist from the synthesis result
        // and check it is the same. Trace-only work: the whole block is
        // kept out of the spec's wall time.
        const auto r0 = Clock::now();
        {
            const si::sg::RegionAnalysis final_ra(res.graph);
            const auto t0 = Clock::now();
            const auto networks = si::synth::build_networks(final_ra, res.mc, so.enable_sharing);
            const auto rebuilt =
                si::net::build_standard_implementation(res.graph, networks, so.build);
            tr->netlist_ms += ms_since(t0);
            if (si::net::to_equations(rebuilt) != out.fingerprint) {
                out.wrong = true;
                out.message = "rebuilt netlist differs from the synthesis result";
            }
        }
        tr->rebuild_ms += ms_since(r0);
    }
    release(tr, kVerify, vr);
    release(tr, kSynth, syn);
    release(tr, kMc, mco);
    release(tr, kRegions, ra);
    release(tr, kExplore, sgo);
    release(tr, kParse, net);
    return out;
}

/// A spec whose result is pinned (Table 1 count, symbolic verdict and
/// state count, or no insertion on wide) must reach a verdict: ending
/// Unknown or throwing there fails the gate, not just the spec.
bool has_pinned_result(const Workload& w, const Spec& spec) {
    return spec.paper_added >= 0 || spec.expect_states > 0 || w.expect_no_insertion;
}

Outcome run_spec(const Workload& w, const Spec& spec, Trace* tr) {
    Outcome out;
    try {
        out = w.symbolic ? run_symbolic(w, spec, tr) : run_explicit(w, spec, tr);
    } catch (const std::exception& e) {
        out = Outcome{};
        out.message = std::string("threw: ") + e.what();
    }
    if (!out.decided && !out.wrong && has_pinned_result(w, spec)) {
        out.wrong = true;
        out.message = "no verdict on a spec with a pinned result: " + out.message;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile of an ascending vector.
double pct(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0;
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Percentile estimate for the latency metrics: the mean of the samples
/// ranked within 2.5% of the sample count around the nearest rank. A
/// single order statistic jumps between the modes of a bimodal spec
/// (nowick runs at either ~1.5 or ~2.1 ms) and across the boundary of
/// two specs of the stream; the window average moves smoothly instead.
double window_pct(const std::vector<double>& sorted, double p) {
    const double n = static_cast<double>(sorted.size());
    const auto lo = static_cast<std::size_t>(std::max(0.0, std::floor((p - 0.025) * n)));
    const auto hi = static_cast<std::size_t>(std::min(n, std::ceil((p + 0.025) * n)));
    if (hi <= lo) return pct(sorted, p);
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += sorted[i];
    return sum / static_cast<double>(hi - lo);
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    if (v.empty()) return 0;
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The reported tail percentile: the workload's target, lowered along a
/// fixed grid until at least 10 samples lie beyond it.
double tail_rank(double target, std::size_t n) {
    for (const double p : {0.95, 0.90, 0.80, 0.75, 0.50}) {
        if (p > target) continue;
        const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
        if (n >= rank + 10) return p;
    }
    return 0.5;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    std::string j = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) j += ", ";
        j += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
             ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    j += "}}";
    std::printf("%s\n", j.c_str());
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false, have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value after " + k);
            return argv[++i];
        };
        if (k == "--workload") a.workload = next(), have_workload = true;
        else if (k == "--seed") a.seed = std::stoull(next()), have_seed = true;
        else if (k == "--seconds") a.seconds = std::stod(next());
        else if (k == "--trace") a.trace = next() != "0";
        else throw std::runtime_error("unknown argument " + k);
    }
    if (!have_workload || !have_seed)
        throw std::runtime_error("usage: si_perfbench --workload W --seed N [--seconds S] "
                                 "[--trace 0|1]");
    return a;
}

/// The correctness gate: a spec's own checks, and byte-identical output
/// on every pass against the first warm-up pass.
struct Gate {
    bool correct = true;
    std::map<std::string, std::string> reference; ///< spec name -> fingerprint

    void check(const Spec& spec, const Outcome& o, const char* where) {
        if (o.wrong) {
            correct = false;
            std::fprintf(stderr, "WRONG %s [%s]: %s\n", spec.name.c_str(), where,
                         o.message.c_str());
            return;
        }
        const std::string fp = o.decided ? o.fingerprint : "undecided: " + o.message;
        const auto [it, fresh] = reference.emplace(spec.name, fp);
        if (!fresh && it->second != fp) {
            correct = false;
            std::fprintf(stderr, "WRONG %s [%s]: output differs from the first pass\n",
                         spec.name.c_str(), where);
        }
    }
};

int run(const Args& args) {
    const auto process_start = Clock::now();
    si::obs::set_mode(si::obs::Mode::Off);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    si::util::set_num_threads(hw);

    // Set-up: input generation plus one warm-up pass, repeated; the
    // median repetition is setup_s. The first repetition's outputs are
    // the reference every later pass must reproduce byte for byte.
    constexpr int kSetupReps = 9;
    Gate gate;
    std::vector<double> setup_s;
    Workload w;
    std::vector<Outcome> warm;
    std::vector<double> warm_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = rep == 0 ? process_start : Clock::now();
        w = make_workload(args.workload, args.seed);
        warm.clear();
        warm_ms.clear();
        for (const Spec& s : w.specs) {
            const auto s0 = Clock::now();
            warm.push_back(run_spec(w, s, nullptr));
            warm_ms.push_back(ms_since(s0));
            gate.check(s, warm.back(), "warm-up");
        }
        setup_s.push_back(ms_since(t0) / 1000.0);
    }

    std::printf("workload %s seed %llu pool_width %zu host_threads %zu specs %zu\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                si::util::num_threads(), hw, w.specs.size());
    std::size_t inserted = 0, signals = 0, regions = 0, literals = 0;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const Outcome& o = warm[i];
        inserted += o.inserted;
        signals += o.signals;
        regions += o.regions;
        literals += o.literals;
        std::printf("  spec %-28s states %-7zu inserted %zu literals %-4zu %9.3f ms %s %s\n",
                    w.specs[i].name.c_str(), o.states, o.inserted, o.literals, warm_ms[i],
                    o.decided ? "decided" : ("UNKNOWN: " + o.message).c_str(),
                    w.specs[i].why.c_str());
    }

    // Timed passes: whole passes until --seconds elapsed, closed loop.
    std::vector<double> latency, untraced_pass_ms, traced_pass_ms;
    std::vector<std::vector<double>> spec_ms_all(w.specs.size());
    std::vector<double> layer_pass[kNumLayers], netlist_pass, coverage_pass;
    Counters deltas[kNumLayers];
    std::size_t attempted = 0, failed = 0, traced_specs = 0;
    const auto timed_start = Clock::now();
    double timed_ms = 0;
    for (std::size_t pass = 0; timed_ms < args.seconds * 1000.0 || pass < 2; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        si::obs::set_mode(traced ? si::obs::Mode::Metrics : si::obs::Mode::Off);
        double pass_ms = 0, pass_layers = 0, pass_cover = 0;
        double layer_ms[kNumLayers] = {}, netlist_ms = 0;
        for (std::size_t i = 0; i < w.specs.size(); ++i) {
            const Spec& s = w.specs[i];
            Trace tr;
            const auto t0 = Clock::now();
            const Outcome o = run_spec(w, s, traced ? &tr : nullptr);
            double spec_ms = ms_since(t0);
            gate.check(s, o, traced ? "traced" : "timed");
            if (traced) {
                // The netlist rebuild is extra trace work, not part of the
                // spec; the counter reads are tracing overhead and stay in
                // the traced time but out of the coverage denominator.
                spec_ms -= tr.rebuild_ms;
                double sum = 0;
                for (int l = 0; l < kNumLayers; ++l) {
                    sum += tr.layer_ms[l];
                    layer_ms[l] += tr.layer_ms[l];
                    for (const auto& [k, v] : tr.per_layer[l]) deltas[l][k] += v;
                }
                netlist_ms += tr.netlist_ms;
                pass_layers += sum;
                pass_cover += spec_ms - tr.snapshot_ms;
                ++traced_specs;
            } else if (!args.trace) {
                latency.push_back(spec_ms);
                spec_ms_all[i].push_back(spec_ms);
            }
            if (traced || !args.trace) {
                ++attempted;
                failed += o.decided ? 0 : 1;
            }
            pass_ms += spec_ms;
        }
        (traced ? traced_pass_ms : untraced_pass_ms).push_back(pass_ms);
        if (traced) {
            for (int l = 0; l < kNumLayers; ++l) layer_pass[l].push_back(layer_ms[l]);
            netlist_pass.push_back(netlist_ms);
            coverage_pass.push_back(pass_layers / pass_cover);
        }
        timed_ms = ms_since(timed_start);
    }
    si::obs::set_mode(si::obs::Mode::Off);

    std::vector<Metric> metrics;
    if (!args.trace) {
        std::vector<double> sorted = latency;
        std::sort(sorted.begin(), sorted.end());
        const double tail = tail_rank(w.tail, sorted.size());
        std::printf("timed %zu passes, %zu spec samples over %.3f s; tail percentile p%.0f\n",
                    untraced_pass_ms.size(), sorted.size(), timed_ms / 1000.0, tail * 100);
        std::printf("per pass: inserted_signals %zu netlist_literals %zu unknown_share %.4f\n",
                    inserted, literals,
                    attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0);
        for (std::size_t i = 0; i < w.specs.size(); ++i)
            std::printf("  latency %-28s median %9.3f ms over %zu passes\n",
                        w.specs[i].name.c_str(), median(spec_ms_all[i]), spec_ms_all[i].size());
        metrics = {
            {"spec_latency_p50_ms", window_pct(sorted, 0.5), "ms"},
            {"spec_latency_p95_ms", window_pct(sorted, tail), "ms"},
            // Specs of one pass over the median pass time: the median keeps
            // short bursts of interference from other processes out.
            {"specs_per_s",
             static_cast<double>(w.specs.size()) / (median(untraced_pass_ms) / 1000.0), "1/s"},
            {"decided_share",
             1.0 - static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted)),
             "ratio"},
            {"implemented_signals", static_cast<double>(signals), "count"},
            {"implemented_regions", static_cast<double>(regions), "count"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"setup_s", median(setup_s), "s"},
        };
    } else {
        const double per_spec = 1.0 / static_cast<double>(w.specs.size());
        const auto sum = [&](Layer l, const char* k) {
            const auto it = deltas[l].find(k);
            return it == deltas[l].end() ? 0.0 : static_cast<double>(it->second);
        };
        const auto all = [&](const char* k) {
            double s = 0;
            for (int l = 0; l < kNumLayers; ++l) s += sum(static_cast<Layer>(l), k);
            return s;
        };
        const auto prefixed = [&](Layer l, const std::string& prefix) {
            double s = 0;
            for (const auto& [k, v] : deltas[l])
                if (k.rfind(prefix, 0) == 0) s += static_cast<double>(v);
            return s;
        };
        const double n = static_cast<double>(traced_specs);
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        const auto layer_total_s = [&](Layer l) {
            double s = 0;
            for (double v : layer_pass[l]) s += v;
            return s / 1000.0;
        };
        for (int l = 0; l < kNumLayers; ++l) {
            std::vector<double> v = layer_pass[l];
            std::sort(v.begin(), v.end());
            std::printf("layer %-20s per spec ms: p25 %.4f p50 %.4f p75 %.4f\n", kLayerName[l],
                        pct(v, 0.25) * per_spec, pct(v, 0.5) * per_spec, pct(v, 0.75) * per_spec);
            metrics.push_back({kLayerName[l], median(layer_pass[l]) * per_spec, "ms"});
        }
        metrics.push_back({"netlist.build_ms", median(netlist_pass) * per_spec, "ms"});
        metrics.push_back({"sg.explore_states_per_s",
                           ratio(sum(kExplore, "sg.markings"), layer_total_s(kExplore)), "1/s"});
        metrics.push_back({"sg.store.probes", sum(kExplore, "sg.store.probes") / n, "count"});
        metrics.push_back({"mc.cube_candidates", sum(kMc, "mc.cube_candidates") / n, "count"});
        // Every region search examines its Lemma-3 smallest cover cube
        // first; mc.cube_candidates counts only the cubes probed after it.
        metrics.push_back({"mc.cube_yield",
                           ratio(sum(kMc, "mc.cubes_found"),
                                 sum(kMc, "mc.cubes_found") + sum(kMc, "mc.cubes_missing") +
                                     sum(kMc, "mc.cube_candidates")),
                           "ratio"});
        metrics.push_back({"synth.rounds", sum(kSynth, "synth.rounds") / n, "count"});
        metrics.push_back({"synth.spec.attempts", sum(kSynth, "synth.spec.attempts") / n, "count"});
        metrics.push_back({"synth.spec.yield",
                           ratio(sum(kSynth, "synth.spec.accepted"),
                                 sum(kSynth, "synth.spec.attempts")),
                           "ratio"});
        metrics.push_back({"synth.inserted_signals", sum(kSynth, "synth.inserted_signals") / n,
                           "count"});
        metrics.push_back({"sat.solves", sum(kSynth, "sat.solves") / n, "count"});
        metrics.push_back({"sat.conflicts", sum(kSynth, "sat.conflicts") / n, "count"});
        metrics.push_back({"sat.propagations", sum(kSynth, "sat.propagations") / n, "count"});
        metrics.push_back({"sat.propagations_per_solve",
                           ratio(sum(kSynth, "sat.propagations"), sum(kSynth, "sat.solves")),
                           "count"});
        metrics.push_back({"netlist.literals", static_cast<double>(literals) * per_spec, "count"});
        metrics.push_back({"verify.states", sum(kVerify, "verify.states") / n, "count"});
        metrics.push_back({"verify.transitions", sum(kVerify, "verify.transitions") / n, "count"});
        metrics.push_back({"verify.states_per_s",
                           ratio(sum(kVerify, "verify.states"), layer_total_s(kVerify)), "1/s"});
        metrics.push_back({"bdd.ite_calls", sum(kSymbolic, "bdd.ite_calls") / n, "count"});
        metrics.push_back({"bdd.ite_cache_hit_rate",
                           ratio(sum(kSymbolic, "bdd.ite_cache_hits"),
                                 sum(kSymbolic, "bdd.ite_calls")),
                           "ratio"});
        metrics.push_back({"bdd.nodes", sum(kSymbolic, "bdd.nodes") / n, "count"});
        metrics.push_back({"mc.symbolic.iterations",
                           prefixed(kSymbolic, "mc.symbolic.iterations") / n, "count"});
        metrics.push_back({"pool.fan_outs", all("pool.fan_outs") / n, "count"});
        metrics.push_back({"pool.tasks", all("pool.tasks") / n, "count"});
        metrics.push_back({"budget.exhaustions", all("budget.exhaustions") / n, "count"});
        metrics.push_back({"trace.coverage", median(coverage_pass), "ratio"});
        metrics.push_back({"trace.overhead",
                           ratio(median(traced_pass_ms), median(untraced_pass_ms)), "ratio"});
        metrics.push_back({"pool.width", static_cast<double>(si::util::num_threads()), "count"});
        std::printf("traced %zu passes, untraced %zu passes over %.3f s\n", traced_pass_ms.size(),
                    untraced_pass_ms.size(), timed_ms / 1000.0);
        for (int l = 0; l < kNumLayers; ++l)
            for (const auto& [k, v] : deltas[l])
                std::printf("counter %-18s %-32s per spec %.2f\n", kLayerName[l], k.c_str(),
                            static_cast<double>(v) / n);
    }
    print_result(gate.correct, attempted, failed, metrics);
    return gate.correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "si_perfbench: %s\n", e.what());
        return 2;
    }
}
