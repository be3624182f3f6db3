#include "vm/convert.hh"

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "isa/encode.hh"
#include "isa/regs.hh"
#include "prog/program.hh"
#include "util/error.hh"

namespace ddsim::vm {

using isa::Inst;
using isa::OpCode;

namespace {

/** One parsed input line. */
struct TextRecord
{
    std::size_t off = 0;  ///< Byte offset of the line (for errors).
    std::uint32_t pc = 0; ///< Source PC (arbitrary; only identity used).
    int type = 0;         ///< 0 ALU, 1 long-latency, 2 memory.
    long long dest = -1;
    long long src1 = -1;
    long long src2 = -1;
    Addr addr = 0;        ///< Source memory address (type 2 only).
};

/** Everything known about one static source PC after pass 1. */
struct PcInfo
{
    bool seen = false;
    int type = 0;
    long long dest = -1, src1 = -1, src2 = -1;
    std::size_t firstOff = 0;
    bool stackAll = true;            ///< Mem: every address in-range.
    std::set<std::uint32_t> succPcs; ///< Observed successor PCs.
};

/** How a source PC was rebuilt as a MISA instruction. */
enum class Kind : std::uint8_t
{
    Alu,      ///< ADD
    Mul,      ///< MUL (long-latency)
    Load,     ///< LW
    Store,    ///< SW
    Jump,     ///< J constant target
    Branch,   ///< BNE fall-through/target pair
    Indirect, ///< JR, dynamic target per record
};

[[noreturn]] void
corrupt(const std::string &path, std::size_t off, const std::string &msg)
{
    raise(TraceCorruptError(path, off, msg));
}

bool
parseHex(const std::string &tok, std::uint32_t &v)
{
    std::size_t i = 0;
    if (tok.size() > 2 && tok[0] == '0' &&
        (tok[1] == 'x' || tok[1] == 'X'))
        i = 2;
    if (i == tok.size())
        return false;
    std::uint64_t acc = 0;
    for (; i < tok.size(); ++i) {
        const char c = tok[i];
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        else
            return false;
        acc = acc * 16 + static_cast<std::uint64_t>(d);
        if (acc > UINT32_MAX)
            return false;
    }
    v = static_cast<std::uint32_t>(acc);
    return true;
}

bool
parseDec(const std::string &tok, long long &v)
{
    std::size_t i = 0;
    bool neg = false;
    if (!tok.empty() && tok[0] == '-') {
        neg = true;
        i = 1;
    }
    if (i == tok.size())
        return false;
    long long acc = 0;
    for (; i < tok.size(); ++i) {
        const char c = tok[i];
        if (c < '0' || c > '9')
            return false;
        acc = acc * 10 + (c - '0');
        if (acc > (1ll << 31))
            return false;
    }
    v = neg ? -acc : acc;
    return true;
}

/**
 * Remap a source register number into the MISA temporary range
 * t0..t9/s0..s7 (8..25), keeping clear of zero/at/kN/gp/sp/fp/ra so
 * the reconstructed program never aliases the registers the
 * annotation pass gives meaning to. -1 (none) maps to the zero
 * register.
 */
RegId
mapReg(long long r)
{
    if (r < 0)
        return isa::reg::zero;
    return static_cast<RegId>(8 + r % 18);
}

} // namespace

std::shared_ptr<const ExternalTrace>
convertTextTrace(const std::string &path, const ConvertOptions &opts)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        raise(IoError(path, "cannot open trace file '" + path + "'"));
    std::string buf((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    if (is.bad())
        raise(IoError(path, "read error on trace file '" + path + "'"));
    return convertTextTraceBuffer(buf, path, opts);
}

std::shared_ptr<const ExternalTrace>
convertTextTraceBuffer(const std::string &buf, const std::string &path,
                       const ConvertOptions &opts)
{
    if (opts.stackHi) {
        if (opts.stackHi < opts.stackLo)
            raise(ConfigError("stack-range",
                              "stack range upper bound below lower"));
        if (opts.stackHi - opts.stackLo > 0x0800'0000u)
            raise(ConfigError("stack-range",
                              "stack range wider than 128 MB"));
    }
    const auto inStackRange = [&opts](Addr a) {
        return opts.stackHi != 0 && a >= opts.stackLo &&
               a <= opts.stackHi;
    };
    const auto mapAddr = [&](Addr a) -> Addr {
        if (inStackRange(a))
            return (layout::StackBase - (opts.stackHi - a)) & ~3u;
        return (layout::HeapBase + (a & 0x0fff'ffffu)) & ~3u;
    };

    // ---- Pass 1: tokenize every line into TextRecords -------------
    std::vector<TextRecord> recs;
    std::size_t lineStart = 0;
    while (lineStart < buf.size()) {
        std::size_t lineEnd = buf.find('\n', lineStart);
        if (lineEnd == std::string::npos)
            lineEnd = buf.size();
        std::size_t end = lineEnd;
        for (std::size_t i = lineStart; i < end; ++i) {
            if (buf[i] == '#') {
                end = i;
                break;
            }
        }
        std::vector<std::pair<std::size_t, std::string>> toks;
        std::size_t i = lineStart;
        while (i < end) {
            if (buf[i] == ' ' || buf[i] == '\t' || buf[i] == '\r') {
                ++i;
                continue;
            }
            const std::size_t tokStart = i;
            while (i < end && buf[i] != ' ' && buf[i] != '\t' &&
                   buf[i] != '\r')
                ++i;
            toks.emplace_back(tokStart,
                              buf.substr(tokStart, i - tokStart));
        }
        if (!toks.empty()) {
            TextRecord rec;
            rec.off = toks[0].first;
            if (toks.size() != 5 && toks.size() != 6)
                corrupt(path, rec.off,
                        "expected 5 or 6 fields, got " +
                            std::to_string(toks.size()));
            if (!parseHex(toks[0].second, rec.pc))
                corrupt(path, toks[0].first,
                        "bad pc '" + toks[0].second + "'");
            long long type;
            if (!parseDec(toks[1].second, type) || type < 0 || type > 2)
                corrupt(path, toks[1].first,
                        "bad op type '" + toks[1].second + "'");
            rec.type = static_cast<int>(type);
            const char *fields[3] = {"dest", "src1", "src2"};
            long long *out[3] = {&rec.dest, &rec.src1, &rec.src2};
            for (int f = 0; f < 3; ++f) {
                if (!parseDec(toks[2 + f].second, *out[f]) ||
                    *out[f] < -1)
                    corrupt(path, toks[2 + f].first,
                            std::string("bad ") + fields[f] + " '" +
                                toks[2 + f].second + "'");
            }
            if (rec.type == 2) {
                if (toks.size() != 6)
                    corrupt(path, rec.off,
                            "memory record without an address field");
                if (!parseHex(toks[5].second, rec.addr))
                    corrupt(path, toks[5].first,
                            "bad memory address '" + toks[5].second +
                                "'");
            } else if (toks.size() == 6) {
                corrupt(path, toks[5].first,
                        "address field on a non-memory record");
            }
            recs.push_back(rec);
        }
        lineStart = lineEnd + 1;
    }
    if (recs.empty())
        corrupt(path, 0, "no instruction records");

    // ---- Pass 2: static PC table, consistency, successor sets -----
    std::map<std::uint32_t, PcInfo> pcs;
    for (std::size_t k = 0; k < recs.size(); ++k) {
        const TextRecord &rec = recs[k];
        PcInfo &info = pcs[rec.pc];
        if (!info.seen) {
            info.seen = true;
            info.type = rec.type;
            info.dest = rec.dest;
            info.src1 = rec.src1;
            info.src2 = rec.src2;
            info.firstOff = rec.off;
        } else if (info.type != rec.type || info.dest != rec.dest ||
                   info.src1 != rec.src1 || info.src2 != rec.src2) {
            corrupt(path, rec.off,
                    "pc reused with different instruction fields");
        }
        if (rec.type == 2)
            info.stackAll = info.stackAll && inStackRange(rec.addr);
        if (k > 0)
            pcs[recs[k - 1].pc].succPcs.insert(rec.pc);
    }
    if (pcs.size() > static_cast<std::size_t>(isa::JumpTargetMax) + 1)
        corrupt(path, 0, "too many distinct pcs to index");

    std::map<std::uint32_t, std::uint32_t> rank;
    for (const auto &[pc, info] : pcs)
        rank.emplace(pc, static_cast<std::uint32_t>(rank.size()));

    // ---- Pass 3: classify and rebuild each static instruction -----
    const std::uint32_t numPcs = static_cast<std::uint32_t>(pcs.size());
    std::vector<Kind> kinds(numPcs);
    std::vector<Inst> insts(numPcs);
    std::vector<std::uint32_t> branchTarget(numPcs, 0);
    for (const auto &[pc, info] : pcs) {
        const std::uint32_t p = rank.at(pc);
        const std::uint32_t seq = p + 1;
        std::set<std::uint32_t> succs;
        for (std::uint32_t s : info.succPcs)
            succs.insert(rank.at(s));
        const bool sequential =
            succs.empty() || (succs.size() == 1 && *succs.begin() == seq);

        Kind kind;
        std::uint32_t target = 0;
        if (info.type == 2) {
            if (!sequential)
                corrupt(path, info.firstOff,
                        "memory instruction has a non-sequential "
                        "successor");
            kind = info.dest >= 0 ? Kind::Load : Kind::Store;
        } else if (sequential) {
            kind = info.type == 1 ? Kind::Mul : Kind::Alu;
        } else if (succs.size() == 1) {
            kind = Kind::Jump;
            target = *succs.begin();
        } else if (succs.size() == 2 && succs.count(seq)) {
            target = *succs.begin() == seq ? *succs.rbegin()
                                           : *succs.begin();
            const std::int64_t disp =
                static_cast<std::int64_t>(target) - seq;
            kind = (disp >= isa::Imm16Min && disp <= isa::Imm16Max)
                       ? Kind::Branch
                       : Kind::Indirect;
        } else {
            kind = Kind::Indirect;
        }

        Inst in;
        switch (kind) {
          case Kind::Alu:
          case Kind::Mul:
            in.op = kind == Kind::Mul ? OpCode::MUL : OpCode::ADD;
            in.rd = mapReg(info.dest);
            in.rs = mapReg(info.src1);
            in.rt = mapReg(info.src2);
            break;
          case Kind::Load:
          case Kind::Store: {
            // A PC whose every dynamic address falls in the declared
            // stack window is rebuilt as a frame reference off fp, so
            // the sp-tracking annotation recognises it.
            const RegId base = (opts.stackHi && info.stackAll)
                                   ? isa::reg::fp
                                   : mapReg(info.src1);
            in.op = kind == Kind::Load ? OpCode::LW : OpCode::SW;
            in.rs = base;
            in.rt = kind == Kind::Load ? mapReg(info.dest)
                                       : mapReg(info.src2);
            in.imm = 0;
            break;
          }
          case Kind::Jump:
            in.op = OpCode::J;
            in.target = target;
            break;
          case Kind::Branch:
            in.op = OpCode::BNE;
            in.rs = mapReg(info.src1);
            in.rt = mapReg(info.src2);
            in.imm =
                static_cast<std::int32_t>(target) -
                static_cast<std::int32_t>(seq);
            break;
          case Kind::Indirect:
            in.op = OpCode::JR;
            in.rs = mapReg(info.src1);
            break;
        }
        kinds[p] = kind;
        insts[p] = in;
        branchTarget[p] = target;
    }

    // ---- Pass 4: dynamic records with synthesized base versions ---
    std::vector<XRecord> xrecs;
    xrecs.reserve(recs.size());
    std::uint32_t versions[NumGprs] = {};
    for (std::size_t k = 0; k < recs.size(); ++k) {
        const std::uint32_t p = rank.at(recs[k].pc);
        const Inst &in = insts[p];
        XRecord x;
        x.pcIdx = p;
        switch (kinds[p]) {
          case Kind::Alu:
          case Kind::Mul:
            break;
          case Kind::Load:
          case Kind::Store:
            x.mem = true;
            x.effAddr = mapAddr(recs[k].addr);
            x.baseVersion = versions[in.rs];
            break;
          case Kind::Jump:
            x.taken = true;
            break;
          case Kind::Branch:
            x.taken = k + 1 < recs.size() &&
                      rank.at(recs[k + 1].pc) == branchTarget[p];
            break;
          case Kind::Indirect:
            x.taken = true;
            x.indirect = true;
            x.nextPcIdx = k + 1 < recs.size()
                              ? rank.at(recs[k + 1].pc)
                              : p; // halting convention
            break;
        }
        xrecs.push_back(x);
        const isa::RegRef dest = isa::destReg(in);
        if (dest.file == isa::RegFile::Gpr)
            ++versions[dest.idx];
    }

    const auto buildProgram = [&](const std::vector<Inst> &list) {
        auto program = std::make_shared<prog::Program>(opts.name);
        for (const Inst &in : list)
            program->append(isa::encode(in));
        program->setEntry(rank.at(recs[0].pc));
        return program;
    };

    auto ext = ExternalTrace::make(buildProgram(insts), xrecs, "text",
                                   /*hintsValid=*/false);
    if (!opts.burnHints)
        return ext;

    // Burn the annotation verdicts into the localHint bits and
    // rebuild; the hints don't feed back into the annotation, so the
    // verdict table of the re-made trace is identical.
    std::vector<Inst> hinted = insts;
    for (std::uint32_t p = 0; p < numPcs; ++p) {
        if (isa::isMem(hinted[p].op))
            hinted[p].localHint =
                ext->verdicts()[p] == isa::Verdict::Local;
    }
    return ExternalTrace::make(buildProgram(hinted), xrecs, "text",
                               /*hintsValid=*/true);
}

} // namespace ddsim::vm
