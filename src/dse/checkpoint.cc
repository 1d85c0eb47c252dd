#include "checkpoint.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"

namespace acs {
namespace dse {

namespace {

/** Doubles travel as IEEE-754 bit patterns: bit-exact round trips. */
std::uint64_t
doubleBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
bitsDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
parseHex64(const std::string &text, const std::string &what)
{
    std::uint64_t v = 0;
    std::istringstream in(text);
    in >> std::hex >> v;
    fatalIf(in.fail() || !in.eof(),
            "checkpoint: malformed hex field (" + what + "): " + text);
    return v;
}

} // anonymous namespace

ShardSpec
parseShardSpec(const std::string &text)
{
    const std::size_t slash = text.find('/');
    fatalIf(slash == std::string::npos,
            "shard spec must be i/n (e.g. 2/8): " + text);
    ShardSpec shard;
    shard.index = parseNumber<std::size_t>(
        std::string_view(text).substr(0, slash), "shard spec index");
    shard.count = parseNumber<std::size_t>(
        std::string_view(text).substr(slash + 1), "shard spec count");
    fatalIf(shard.count == 0, "shard spec: n must be >= 1: " + text);
    fatalIf(shard.index >= shard.count,
            "shard spec: i must be < n: " + text);
    return shard;
}

std::pair<std::size_t, std::size_t>
shardOuterRange(const ShardSpec &shard, std::size_t outer_count)
{
    fatalIf(shard.count == 0, "shardOuterRange: shard count is 0");
    fatalIf(shard.index >= shard.count,
            "shardOuterRange: shard index out of range");
    // Earlier shards absorb the remainder: sizes differ by at most 1
    // and the ranges partition [0, outer_count) in order.
    const std::size_t base = outer_count / shard.count;
    const std::size_t extra = outer_count % shard.count;
    const std::size_t first =
        shard.index * base + std::min(shard.index, extra);
    const std::size_t len = base + (shard.index < extra ? 1 : 0);
    return {first, first + len};
}

void
writeCheckpoint(const std::string &path, const Checkpoint &ck)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        fatalIf(!out, "checkpoint: cannot open for writing: " + tmp);
        out << "acs-dse-checkpoint v" << ck.version << "\n";
        out << "fingerprint " << std::hex << ck.fingerprint << std::dec
            << "\n";
        out << "shard " << ck.shard.index << " " << ck.shard.count
            << "\n";
        out << "space_points " << ck.spacePoints << "\n";
        out << "complete " << (ck.complete ? 1 : 0) << "\n";
        out << "waves " << ck.waves << "\n";
        out << "points " << ck.points.size() << "\n";
        out << std::hex;
        for (const CheckpointPoint &p : ck.points) {
            out << "p " << std::dec << p.index << std::hex << " "
                << doubleBits(p.ttftS) << " " << doubleBits(p.tbtS)
                << " " << p.flags << "\n";
        }
        out << std::dec << "end\n";
        out.flush();
        fatalIf(!out, "checkpoint: write failed: " + tmp);
    }
    fatalIf(std::rename(tmp.c_str(), path.c_str()) != 0,
            "checkpoint: rename failed: " + tmp + " -> " + path);
}

bool
readCheckpoint(const std::string &path, Checkpoint *out)
{
    std::ifstream in(path);
    if (!in)
        return false;

    Checkpoint ck;
    std::string line;
    const auto next = [&](const char *what) {
        fatalIf(!std::getline(in, line),
                std::string("checkpoint: truncated file (expected ") +
                    what + "): " + path);
        return line;
    };
    const auto expectKey = [&](const std::string &got,
                               const std::string &key) -> std::string {
        fatalIf(got.rfind(key + " ", 0) != 0,
                "checkpoint: expected '" + key + " ...', got '" + got +
                    "': " + path);
        return got.substr(key.size() + 1);
    };

    const std::string header = next("header");
    fatalIf(header.rfind("acs-dse-checkpoint v", 0) != 0,
            "checkpoint: not a checkpoint file: " + path);
    ck.version = static_cast<std::uint32_t>(
        std::stoul(header.substr(std::string("acs-dse-checkpoint v")
                                     .size())));
    fatalIf(ck.version != CHECKPOINT_VERSION,
            "checkpoint: unsupported version " +
                std::to_string(ck.version) + " (reader supports v" +
                std::to_string(CHECKPOINT_VERSION) + "): " + path);

    ck.fingerprint =
        parseHex64(expectKey(next("fingerprint"), "fingerprint"),
                   "fingerprint");
    {
        std::istringstream sh(expectKey(next("shard"), "shard"));
        sh >> ck.shard.index >> ck.shard.count;
        fatalIf(sh.fail(), "checkpoint: malformed shard line: " + path);
    }
    ck.spacePoints =
        std::stoull(expectKey(next("space_points"), "space_points"));
    ck.complete =
        std::stoul(expectKey(next("complete"), "complete")) != 0;
    ck.waves = std::stoull(expectKey(next("waves"), "waves"));
    const std::size_t n_points =
        std::stoull(expectKey(next("points"), "points"));

    ck.points.reserve(n_points);
    for (std::size_t i = 0; i < n_points; ++i) {
        std::istringstream ps(next("point"));
        std::string tag, ttft_hex, tbt_hex, flags_hex;
        CheckpointPoint p;
        ps >> tag >> p.index >> ttft_hex >> tbt_hex >> flags_hex;
        fatalIf(ps.fail() || tag != "p",
                "checkpoint: malformed point line " + std::to_string(i) +
                    ": " + path);
        p.ttftS = bitsDouble(parseHex64(ttft_hex, "ttft"));
        p.tbtS = bitsDouble(parseHex64(tbt_hex, "tbt"));
        p.flags =
            static_cast<std::uint32_t>(parseHex64(flags_hex, "flags"));
        ck.points.push_back(p);
    }
    fatalIf(next("end") != "end",
            "checkpoint: missing end marker: " + path);

    *out = std::move(ck);
    return true;
}

std::string
checkpointShardFile(const std::string &dir, const ShardSpec &shard)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "shard-" + std::to_string(shard.index) + "-of-" +
            std::to_string(shard.count) + ".ckpt";
    return path;
}

Checkpoint
mergeShardCheckpoints(const std::vector<Checkpoint> &shards)
{
    fatalIf(shards.empty(), "mergeShardCheckpoints: no shards");

    const std::size_t count = shards.front().shard.count;
    std::vector<const Checkpoint *> by_index(count, nullptr);
    for (const Checkpoint &ck : shards) {
        fatalIf(ck.shard.count != count,
                "mergeShardCheckpoints: shard counts disagree (" +
                    std::to_string(ck.shard.count) + " vs " +
                    std::to_string(count) + ")");
        fatalIf(ck.shard.index >= count,
                "mergeShardCheckpoints: shard index out of range");
        fatalIf(by_index[ck.shard.index] != nullptr,
                "mergeShardCheckpoints: duplicate shard " +
                    std::to_string(ck.shard.index));
        fatalIf(ck.fingerprint != shards.front().fingerprint,
                "mergeShardCheckpoints: fingerprint mismatch on shard " +
                    std::to_string(ck.shard.index) +
                    " (checkpoints come from different searches)");
        fatalIf(ck.spacePoints != shards.front().spacePoints,
                "mergeShardCheckpoints: space size mismatch on shard " +
                    std::to_string(ck.shard.index));
        fatalIf(!ck.complete,
                "mergeShardCheckpoints: shard " +
                    std::to_string(ck.shard.index) +
                    " is incomplete (resume it first)");
        by_index[ck.shard.index] = &ck;
    }
    for (std::size_t i = 0; i < count; ++i)
        fatalIf(by_index[i] == nullptr,
                "mergeShardCheckpoints: missing shard " +
                    std::to_string(i) + "/" + std::to_string(count));

    Checkpoint merged;
    merged.fingerprint = shards.front().fingerprint;
    merged.shard = ShardSpec{0, 1};
    merged.spacePoints = shards.front().spacePoints;
    merged.complete = true;
    for (std::size_t i = 0; i < count; ++i) {
        merged.waves = std::max(merged.waves, by_index[i]->waves);
        // Shard flat-index ranges are disjoint and ascending, so
        // appending in shard order keeps points sorted by index.
        merged.points.insert(merged.points.end(),
                             by_index[i]->points.begin(),
                             by_index[i]->points.end());
    }
    return merged;
}

} // namespace dse
} // namespace acs
