#include "serve/session.hpp"

#include "core/parallel_matcher.hpp"
#include "rete/matcher.hpp"
#include "treat/fullstate.hpp"
#include "treat/naive.hpp"
#include "treat/treat.hpp"

namespace psm::serve {

std::unique_ptr<core::Matcher>
makeMatcher(std::shared_ptr<const ops5::Program> program,
            const MatcherSpec &spec)
{
    switch (spec.kind) {
      case MatcherSpec::Kind::Rete:
        return std::make_unique<rete::ReteMatcher>(std::move(program));
      case MatcherSpec::Kind::Treat:
        return std::make_unique<treat::TreatMatcher>(
            std::move(program));
      case MatcherSpec::Kind::Naive:
        return std::make_unique<treat::NaiveMatcher>(
            std::move(program));
      case MatcherSpec::Kind::FullState:
        return std::make_unique<treat::FullStateMatcher>(
            std::move(program));
      case MatcherSpec::Kind::Parallel: {
        core::ParallelOptions opt;
        opt.n_workers = spec.workers;
        return std::make_unique<core::ParallelReteMatcher>(
            std::move(program), opt);
      }
    }
    return nullptr;
}

bool
parseMatcherKind(const std::string &text, MatcherSpec::Kind &out)
{
    if (text == "rete") {
        out = MatcherSpec::Kind::Rete;
    } else if (text == "treat") {
        out = MatcherSpec::Kind::Treat;
    } else if (text == "naive") {
        out = MatcherSpec::Kind::Naive;
    } else if (text == "fullstate") {
        out = MatcherSpec::Kind::FullState;
    } else if (text == "parallel") {
        out = MatcherSpec::Kind::Parallel;
    } else {
        return false;
    }
    return true;
}

const char *
matcherKindName(MatcherSpec::Kind kind)
{
    switch (kind) {
      case MatcherSpec::Kind::Rete: return "rete";
      case MatcherSpec::Kind::Treat: return "treat";
      case MatcherSpec::Kind::Naive: return "naive";
      case MatcherSpec::Kind::FullState: return "fullstate";
      case MatcherSpec::Kind::Parallel: return "parallel";
    }
    return "unknown";
}

Session::Session(std::size_t id,
                 std::shared_ptr<const ops5::Program> program,
                 const MatcherSpec &spec, ops5::Strategy strategy,
                 const durable::DurableOptions &durability,
                 bool restore, telemetry::Registry *metrics)
    : id_(id), matcher_(makeMatcher(program, spec)),
      engine_(std::make_unique<core::Engine>(std::move(program),
                                             *matcher_, strategy))
{
    // Construction happens on the pool's constructing thread, before
    // any server thread can touch the engine — so recovery and the
    // initial load need no locking either.
    if (durability.enabled()) {
        durable_ = std::make_unique<durable::Manager>(
            *engine_, durability, metrics);
        if (restore && durable::Manager::hasState(durability.dir))
            recovery_ = durable_->recover();
        durable_->begin();
    }
    // A recovered session already holds its working memory; loading
    // the program's initial WM on top would double it. Recovery keeps
    // every element's time tag, so tags a migrated or failed-over
    // client took from the previous incarnation still retract here.
    if (!recovery_.recovered)
        engine_->loadInitialWorkingMemory();
}

} // namespace psm::serve
