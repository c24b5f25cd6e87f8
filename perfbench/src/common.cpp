#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "rete/trace_export.hpp"

namespace perfbench {

std::size_t
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    for (Entry &e : entries_)
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    entries_.push_back({name, value, unit});
}

Report
Report::select(const std::vector<std::string> &names) const
{
    Report out;
    for (const std::string &n : names)
        for (const Entry &e : entries_)
            if (e.name == n)
                out.entries_.push_back(e);
    return out;
}

void
Report::print(const char *title) const
{
    std::printf("%s\n", title);
    for (const Entry &e : entries_)
        std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
Report::json() const
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
           << jsonNumber(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << '}';
    return os.str();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_tracer_generation{0};
std::atomic<std::uint64_t> g_span_ids{0};
thread_local std::uint64_t t_current_span = 0;

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

} // namespace

Tracer::Tracer() : generation_(++g_tracer_generation) {}

Tracer::Lane &
Tracer::lane()
{
    thread_local std::uint64_t cached_generation = 0;
    thread_local Lane *cached = nullptr;
    if (cached_generation != generation_) {
        std::lock_guard<std::mutex> lk(mu_);
        lanes_.push_back(std::make_unique<Lane>());
        cached = lanes_.back().get();
        cached_generation = generation_;
    }
    return *cached;
}

Tracer::Scope::Scope(Tracer *t, const char *name, std::uint64_t req)
    : t_(t)
{
    if (!t_)
        return;
    span_.name = name;
    span_.req = req;
    span_.id = ++g_span_ids;
    span_.parent = t_current_span;
    saved_parent_ = t_current_span;
    t_current_span = span_.id;
    span_.start_ns = nowNanos();
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    span_.end_ns = nowNanos();
    t_current_span = saved_parent_;
    t_->lane().spans.push_back(span_);
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, double> out;
    for (const auto &lane : lanes_) {
        // Children close before their parent, so one pass in record
        // order accumulates each parent's covered time first.
        std::map<std::uint64_t, std::uint64_t> child_ns;
        for (const Span &s : lane->spans) {
            const std::uint64_t dur = s.end_ns - s.start_ns;
            std::uint64_t covered = 0;
            auto it = child_ns.find(s.id);
            if (it != child_ns.end()) {
                covered = std::min(it->second, dur);
                child_ns.erase(it);
            }
            out[s.name] += static_cast<double>(dur - covered) * 1e-9;
            if (s.parent != 0)
                child_ns[s.parent] += dur;
        }
    }
    return out;
}

double
Tracer::rootSeconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    double total = 0.0;
    for (const auto &lane : lanes_)
        for (const Span &s : lane->spans)
            if (s.parent == 0)
                total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    return total;
}

double
Tracer::laneWallSeconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    double total = 0.0;
    for (const auto &lane : lanes_) {
        if (lane->spans.empty())
            continue;
        std::uint64_t lo = ~0ULL, hi = 0;
        for (const Span &s : lane->spans) {
            lo = std::min(lo, s.start_ns);
            hi = std::max(hi, s.end_ns);
        }
        total += static_cast<double>(hi - lo) * 1e-9;
    }
    return total;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto &lane : lanes_)
        n += lane->spans.size();
    return n;
}

bool
Tracer::save(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t t0 = ~0ULL;
    for (const auto &lane : lanes_)
        for (const Span &s : lane->spans)
            t0 = std::min(t0, s.start_ns);
    std::vector<rete::ChromeEvent> events;
    for (std::size_t l = 0; l < lanes_.size(); ++l)
        for (const Span &s : lanes_[l]->spans) {
            rete::ChromeEvent ev;
            ev.name = s.name;
            ev.cat = "perfbench";
            ev.ts_us = static_cast<double>(s.start_ns - t0) * 1e-3;
            ev.dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
            ev.pid = 1;
            ev.tid = static_cast<int>(l);
            ev.args_json = "{\"id\": " + std::to_string(s.id) +
                           ", \"parent\": " + std::to_string(s.parent) +
                           ", \"req\": " + std::to_string(s.req) + "}";
            events.push_back(std::move(ev));
        }
    return rete::saveChromeTrace(path, events);
}

// ---------------------------------------------------------------------------
// Host and process facts
// ---------------------------------------------------------------------------

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

/** Reads one `Key:  value` field of /proc/<pid>/status. */
double
procStatusField(pid_t pid, const char *key)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return std::strtod(line.c_str() + prefix.size(), nullptr);
    return 0.0;
}

} // namespace

std::string
hostJson()
{
    const std::string build = PERFBENCH_BUILD_TYPE;
    bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
    const bool optimized = build == "Release" || build == "RelWithDebInfo";
    std::ostringstream os;
    os << "{\"nproc\": " << hostThreads()
       << ", \"cpu\": " << quoted(cpuModel())
       << ", \"compiler\": " << quoted(std::string("gcc ") + __VERSION__)
       << ", \"build_type\": " << quoted(build)
       << ", \"psm_telemetry\": " << PERFBENCH_TELEMETRY
       << ", \"git_commit\": " << quoted(PERFBENCH_GIT_COMMIT)
       << ", \"comparable\": "
       << (optimized && !sanitized ? "true" : "false") << "}";
    return os.str();
}

double
selfPeakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
procPeakRssMb(pid_t pid)
{
    return procStatusField(pid, "VmHWM") / 1024.0;
}

int
procThreads(pid_t pid)
{
    return static_cast<int>(procStatusField(pid, "Threads"));
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

std::uint64_t
conflictDigest(const ops5::ConflictSet &cs)
{
    std::vector<ops5::InstantiationKey> keys;
    for (const ops5::Instantiation &inst : cs.contents())
        keys.push_back(ops5::InstantiationKey::of(inst));
    std::sort(keys.begin(), keys.end(),
              [](const ops5::InstantiationKey &a,
                 const ops5::InstantiationKey &b) {
                  return a.production_id != b.production_id
                             ? a.production_id < b.production_id
                             : a.tags < b.tags;
              });
    Digest d;
    d.add(keys.size());
    for (const ops5::InstantiationKey &k : keys) {
        d.add(static_cast<std::uint64_t>(k.production_id));
        for (ops5::TimeTag t : k.tags)
            d.add(t);
    }
    return d.value();
}

std::uint64_t
wmDigest(const ops5::WorkingMemory &wm)
{
    std::vector<const ops5::Wme *> live = wm.liveElements();
    std::sort(live.begin(), live.end(),
              [](const ops5::Wme *a, const ops5::Wme *b) {
                  return a->timeTag() < b->timeTag();
              });
    Digest d;
    d.add(live.size());
    for (const ops5::Wme *w : live) {
        d.add(w->timeTag());
        d.add(w->className());
        for (int f = 0; f < w->fieldCount(); ++f)
            d.add(w->field(f).hash());
    }
    return d.value();
}

void
addFiring(Digest &d, const ops5::Instantiation &inst)
{
    ops5::InstantiationKey k = ops5::InstantiationKey::of(inst);
    d.add(static_cast<std::uint64_t>(k.production_id));
    for (ops5::TimeTag t : k.tags)
        d.add(t);
}

} // namespace perfbench
