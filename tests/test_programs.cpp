/**
 * @file
 * End-to-end tests of the OPS5 programs shipped under
 * examples/programs/, run with every matcher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/engine.hpp"
#include "core/parallel_matcher.hpp"
#include "ops5/parser.hpp"
#include "rete/matcher.hpp"
#include "treat/fullstate.hpp"
#include "treat/treat.hpp"

#ifndef PSM_PROGRAMS_DIR
#define PSM_PROGRAMS_DIR "examples/programs"
#endif

using namespace psm;

namespace {

std::string
readFile(const std::string &name)
{
    std::ifstream f(std::string(PSM_PROGRAMS_DIR) + "/" + name);
    EXPECT_TRUE(f.good()) << "missing program file " << name;
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

struct ProgramCase
{
    const char *file;
    const char *matcher;
    std::uint64_t expected_firings;
    const char *expected_output;
    bool expect_halt = true; ///< false: the program quiesces instead
};

/** Names a case by file and matcher, so its ctest name carries no
 *  pointer or padding bytes. */
void
PrintTo(const ProgramCase &c, std::ostream *os)
{
    *os << c.file << "/" << c.matcher;
}

class ShippedProgramTest : public ::testing::TestWithParam<ProgramCase>
{};

TEST_P(ShippedProgramTest, RunsToExpectedResult)
{
    const ProgramCase &c = GetParam();
    auto parsed = ops5::parseProgram(readFile(c.file));
    auto program = parsed.program;

    std::unique_ptr<core::Matcher> matcher;
    std::string which = c.matcher;
    if (which == "rete") {
        matcher = std::make_unique<rete::ReteMatcher>(program);
    } else if (which == "treat") {
        matcher = std::make_unique<treat::TreatMatcher>(program);
    } else if (which == "fullstate") {
        matcher = std::make_unique<treat::FullStateMatcher>(program);
    } else {
        core::ParallelOptions opt;
        opt.n_workers = 2;
        matcher =
            std::make_unique<core::ParallelReteMatcher>(program, opt);
    }

    core::Engine engine(program, *matcher,
                        parsed.strategy == ops5::StrategyKind::Mea
                            ? ops5::Strategy::Mea
                            : ops5::Strategy::Lex);
    std::ostringstream out;
    engine.setOutput(&out);
    engine.loadInitialWorkingMemory();
    core::RunResult result = engine.run(1000);

    if (c.expect_halt)
        EXPECT_TRUE(result.halted) << c.file << " with " << c.matcher;
    else
        EXPECT_TRUE(result.quiescent) << c.file << " with " << c.matcher;
    EXPECT_EQ(result.firings, c.expected_firings);
    if (c.expected_output) {
        EXPECT_NE(out.str().find(c.expected_output), std::string::npos)
            << "output was:\n"
            << out.str();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, ShippedProgramTest,
    ::testing::Values(
        ProgramCase{"fibonacci.ops", "rete", 15, "fib 15 is 610"},
        ProgramCase{"fibonacci.ops", "treat", 15, "fib 15 is 610"},
        ProgramCase{"fibonacci.ops", "fullstate", 15, "fib 15 is 610"},
        ProgramCase{"fibonacci.ops", "parallel", 15, "fib 15 is 610"},
        ProgramCase{"ancestors.ops", "rete", 12, nullptr, false},
        ProgramCase{"ancestors.ops", "treat", 12, nullptr, false},
        ProgramCase{"ancestors.ops", "fullstate", 12, nullptr, false},
        ProgramCase{"ancestors.ops", "parallel", 12, nullptr, false},
        ProgramCase{"bagger.ops", "rete", 11, "order bagged in 2 bags"},
        ProgramCase{"bagger.ops", "treat", 11, "order bagged in 2 bags"},
        ProgramCase{"bagger.ops", "fullstate", 11,
                    "order bagged in 2 bags"},
        ProgramCase{"bagger.ops", "parallel", 11,
                    "order bagged in 2 bags"},
        ProgramCase{"r1-mini.ops", "rete", 8, "configured with load 60"},
        ProgramCase{"r1-mini.ops", "treat", 8, "configured with load 60"},
        ProgramCase{"r1-mini.ops", "fullstate", 8,
                    "configured with load 60"},
        ProgramCase{"r1-mini.ops", "parallel", 8,
                    "configured with load 60"},
        ProgramCase{"towers.ops", "rete", 8, "solved in 7 moves"},
        ProgramCase{"towers.ops", "treat", 8, "solved in 7 moves"},
        ProgramCase{"towers.ops", "fullstate", 8, "solved in 7 moves"},
        ProgramCase{"towers.ops", "parallel", 8, "solved in 7 moves"}),
    [](const auto &info) {
        std::string file = info.param.file;
        std::string name = file.substr(0, file.find('.')) + "_" +
                           info.param.matcher;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
