#include "check/explore/replay.hh"

#include <fstream>
#include <sstream>

namespace unet::check::explore {

namespace {

constexpr const char *magic = "unet-explore-replay v1";

} // namespace

void
writeReplay(std::ostream &os, const std::string &config_name,
            std::uint64_t config_salt, const std::string &violation,
            const Schedule &schedule)
{
    os << magic << "\n";
    os << "config " << config_name << "\n";
    os << "salt " << config_salt << "\n";
    if (!violation.empty()) {
        // The message is free text; keep it one line.
        std::string one_line = violation;
        for (char &c : one_line)
            if (c == '\n' || c == '\r')
                c = ' ';
        os << "violation " << one_line << "\n";
    }
    os << "decisions " << schedule.size() << "\n";
    for (const Decision &d : schedule)
        os << d.step << " " << d.when << " " << d.width << " "
           << d.index << " " << d.seq << "\n";
}

std::optional<Replay>
readReplay(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != magic)
        return std::nullopt;

    Replay replay;
    std::size_t count = 0;
    bool have_count = false;
    while (!have_count && std::getline(is, line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "config") {
            ls >> replay.config;
        } else if (key == "salt") {
            ls >> replay.configSalt;
            if (ls.fail())
                return std::nullopt;
        } else if (key == "violation") {
            std::getline(ls, replay.violation);
            if (!replay.violation.empty() &&
                replay.violation.front() == ' ')
                replay.violation.erase(0, 1);
        } else if (key == "decisions") {
            ls >> count;
            if (ls.fail())
                return std::nullopt;
            have_count = true;
        } else {
            return std::nullopt; // unknown header line
        }
    }
    if (!have_count || replay.config.empty())
        return std::nullopt;

    // The count is untrusted: grow with the lines actually read, so a
    // huge count fails at end of input instead of sizing an allocation.
    for (std::size_t i = 0; i < count; ++i) {
        Decision d;
        if (!(is >> d.step >> d.when >> d.width >> d.index >> d.seq))
            return std::nullopt;
        replay.schedule.push_back(d);
    }
    return replay;
}

bool
saveReplay(const std::string &path, const std::string &config_name,
           std::uint64_t config_salt, const std::string &violation,
           const Schedule &schedule)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeReplay(out, config_name, config_salt, violation, schedule);
    return static_cast<bool>(out);
}

std::optional<Replay>
loadReplay(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    return readReplay(in);
}

} // namespace unet::check::explore
