/**
 * @file
 * unet-explore: command-line front end for the model checker.
 *
 *   unet-explore --list
 *   unet-explore fig5
 *   unet-explore retransmit --max-depth 12 --max-width 3
 *   unet-explore demux --replay-out demux.replay
 *   unet-explore --replay demux.replay
 *
 * Exit status: 0 when the explored space (or replayed schedule) holds
 * every invariant, 1 on a violation, 2 on usage or I/O errors.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "check/explore/explore.hh"
#include "check/explore/replay.hh"

namespace check = unet::check;
namespace explore = unet::check::explore;

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: unet-explore <scenario> [options]\n"
          "       unet-explore --replay <file>\n"
          "       unet-explore --list\n"
          "\n"
          "options:\n"
          "  --salt N          construction perturbation salt "
          "(default 0)\n"
          "  --max-runs N      stop after N schedules\n"
          "  --max-steps N     per-run event bound (default 2^20)\n"
          "  --max-depth N     stop branching past N choice points\n"
          "  --max-width N     explore at most N branches per choice "
          "point\n"
          "  --sampling-salt N pick which branches survive "
          "--max-width\n"
          "  --no-prune        disable state-digest pruning\n"
          "  --keep-going      collect all violations, not just the "
          "first\n"
          "  --replay-out F    write the first violation to F\n";
    return status;
}

bool
parseCount(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end && *end == '\0' && end != text;
}

int
replayFile(const std::string &path)
{
    auto replay = explore::loadReplay(path);
    if (!replay) {
        std::cerr << "unet-explore: cannot parse replay file " << path
                  << "\n";
        return 2;
    }
    const check::ScenarioEntry *scenario =
        check::findScenario(replay->config);
    if (!scenario) {
        std::cerr << "unet-explore: replay names unknown scenario '"
                  << replay->config << "'\n";
        return 2;
    }
    std::cout << "replaying " << replay->schedule.size()
              << "-decision schedule of scenario '" << replay->config
              << "' (salt " << replay->configSalt << ")\n";
    explore::RunOutcome out = explore::runSchedule(
        *scenario, replay->schedule, replay->configSalt);
    if (out.violated) {
        std::cout << "reproduced after " << out.steps
                  << " events:\n  " << out.message << "\n";
        return 1;
    }
    std::cout << "schedule ran clean (" << out.steps
              << " events, end digest " << std::hex << out.digest
              << std::dec << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario_name;
    std::string replay_path;
    std::string replay_out;
    explore::Options options;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "unet-explore: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        std::uint64_t n = 0;
        if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (arg == "--list") {
            check::listScenarios(std::cout);
            return 0;
        } else if (arg == "--replay") {
            replay_path = value();
        } else if (arg == "--replay-out") {
            replay_out = value();
        } else if (arg == "--salt" && parseCount(value(), n)) {
            options.configSalt = n;
        } else if (arg == "--max-runs" && parseCount(value(), n)) {
            options.bounds.maxRuns = n;
        } else if (arg == "--max-steps" && parseCount(value(), n)) {
            options.bounds.maxStepsPerRun = n;
        } else if (arg == "--max-depth" && parseCount(value(), n)) {
            options.bounds.maxChoiceDepth = n;
        } else if (arg == "--max-width" && parseCount(value(), n)) {
            options.bounds.maxBranchWidth = n;
        } else if (arg == "--sampling-salt" && parseCount(value(), n)) {
            options.bounds.samplingSalt = n;
        } else if (arg == "--no-prune") {
            options.prune = false;
        } else if (arg == "--keep-going") {
            options.stopAtFirstViolation = false;
        } else if (!arg.empty() && arg[0] != '-' &&
                   scenario_name.empty()) {
            scenario_name = arg;
        } else {
            std::cerr << "unet-explore: bad argument '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (!replay_path.empty())
        return replayFile(replay_path);
    if (scenario_name.empty())
        return usage(std::cerr, 2);

    const check::ScenarioEntry *scenario =
        check::findScenario(scenario_name);
    if (!scenario) {
        std::cerr << "unet-explore: unknown scenario '" << scenario_name
                  << "' (try --list)\n";
        return 2;
    }

    std::cout << "exploring '" << scenario->name
              << "': " << scenario->description << "\n";
    explore::Result res = explore::explore(*scenario, options);

    std::cout << "runs " << res.runs << ", pruned " << res.prunedRuns
              << ", choice points " << res.choicePoints
              << ", widest " << res.maxEligible << ", deferred "
              << res.deferredBranches << "\n";
    std::cout << (res.complete
                      ? "schedule space exhausted"
                      : "exploration bounded (not exhaustive)")
              << "\n";

    if (res.violations.empty()) {
        std::cout << "no violations\n";
        return 0;
    }

    for (const explore::Violation &v : res.violations)
        std::cout << "violation in run " << v.runIndex << " ("
                  << v.schedule.size() << " decisions):\n  "
                  << v.message << "\n";
    if (!replay_out.empty()) {
        const explore::Violation &v = res.violations.front();
        if (explore::saveReplay(replay_out, scenario->name,
                                options.configSalt, v.message,
                                v.schedule))
            std::cout << "replay written to " << replay_out << "\n";
        else
            std::cerr << "unet-explore: cannot write " << replay_out
                      << "\n";
    }
    return 1;
}
