#include "obs/pipeline_trace.hh"

#include <cstring>

#include "util/log.hh"
#include "util/varint.hh"

namespace ddsim::obs {

namespace {

void
putU16(std::ostream &os, std::uint16_t v)
{
    char b[2] = {static_cast<char>(v & 0xff),
                 static_cast<char>((v >> 8) & 0xff)};
    os.write(b, 2);
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 4);
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 8);
}

void
putString(std::ostream &os, const std::string &s)
{
    if (s.size() > 0xffff)
        fatal("trace header string too long (%zu bytes)", s.size());
    putU16(os, static_cast<std::uint16_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
getU16(std::istream &is, std::uint16_t &v)
{
    unsigned char b[2];
    if (!is.read(reinterpret_cast<char *>(b), 2))
        return false;
    v = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
    return true;
}

bool
getU32(std::istream &is, std::uint32_t &v)
{
    unsigned char b[4];
    if (!is.read(reinterpret_cast<char *>(b), 4))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    unsigned char b[8];
    if (!is.read(reinterpret_cast<char *>(b), 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
}

bool
getString(std::istream &is, std::string &s)
{
    std::uint16_t len;
    if (!getU16(is, len))
        return false;
    s.resize(len);
    return len == 0 ||
           static_cast<bool>(is.read(s.data(), len));
}

/** Backward offset encoding: 0 = unknown, else commit - cycle + 1. */
std::uint64_t
encodeBack(std::uint64_t commit, std::uint64_t cycle)
{
    if (cycle == kNoCycle)
        return 0;
    if (cycle > commit)
        panic("trace event cycle %llu after its commit cycle %llu",
              (unsigned long long)cycle, (unsigned long long)commit);
    return commit - cycle + 1;
}

std::uint64_t
decodeBack(std::uint64_t commit, std::uint64_t back)
{
    return back == 0 ? kNoCycle : commit - (back - 1);
}

} // namespace

// ---- Writer ----------------------------------------------------------------

PipelineTracer::PipelineTracer(const std::string &path,
                               const std::string &workload,
                               const std::string &notation,
                               const std::string &label, int robSize)
    : file(path, /*binary=*/true), os(file.stream()),
      slots(static_cast<std::size_t>(robSize))
{
    os.write(kTraceMagic, sizeof(kTraceMagic));
    putU32(os, kTraceVersion);
    putString(os, workload);
    putString(os, notation);
    putString(os, label);
    countPos = os.tellp();
    putU64(os, ~std::uint64_t{0}); // Patched by finish().
}

PipelineTracer::~PipelineTracer()
{
    // A destructor must not throw; if the final flush/rename fails
    // here (rather than in an explicit finish() call), warn and leave
    // only the .tmp behind.
    try {
        finish();
    } catch (const SimError &e) {
        warn("discarding pipeline trace: %s", e.what());
    }
}

void
PipelineTracer::onDispatch(int robIdx, std::uint64_t seq,
                           std::uint64_t cycle)
{
    SlotState &s = slots[static_cast<std::size_t>(robIdx)];
    s.seq = seq;
    s.issue = kNoCycle;
    if (fetchFifo.empty()) {
        // Fetched before the tracer attached (warmup overlap).
        s.fetch = kNoCycle;
    } else {
        s.fetch = fetchFifo.front();
        fetchFifo.pop_front();
    }
    (void)cycle; // Dispatch cycle reaches onCommit via the ROB entry.
}

void
PipelineTracer::onCommit(int robIdx, TraceRecord rec)
{
    SlotState &s = slots[static_cast<std::size_t>(robIdx)];
    if (s.seq == rec.seq) {
        rec.fetchCycle = s.fetch;
        rec.issueCycle = s.issue;
    }
    // else: dispatched before the tracer attached; leave unknown.

    varint::put(os, rec.seq - prevSeq);
    prevSeq = rec.seq;
    varint::put(os, rec.pcIdx);
    std::uint8_t flags = 0;
    flags |= rec.isLoad ? 0x01 : 0;
    flags |= rec.isStore ? 0x02 : 0;
    flags |= rec.lvaqStream ? 0x04 : 0;
    flags |= rec.replicated ? 0x08 : 0;
    flags |= rec.forwarded ? 0x10 : 0;
    flags |= rec.fastForwarded ? 0x20 : 0;
    flags |= rec.combined ? 0x40 : 0;
    flags |= rec.missteered ? 0x80 : 0;
    os.put(static_cast<char>(flags));
    varint::put(os, rec.commitCycle - prevCommit);
    prevCommit = rec.commitCycle;
    varint::put(os, encodeBack(rec.commitCycle, rec.fetchCycle));
    varint::put(os, encodeBack(rec.commitCycle, rec.dispatchCycle));
    varint::put(os, encodeBack(rec.commitCycle, rec.queueCycle));
    varint::put(os, encodeBack(rec.commitCycle, rec.issueCycle));
    varint::put(os, encodeBack(rec.commitCycle, rec.accessCycle));
    varint::put(os, encodeBack(rec.commitCycle, rec.wbCycle));
    ++numRecords;
}

void
PipelineTracer::finish()
{
    if (finished)
        return;
    finished = true;
    os.seekp(countPos);
    putU64(os, numRecords);
    file.commit();
}

void
PipelineTracer::abandon()
{
    finished = true;
    file.abandon();
}

// ---- Reader ----------------------------------------------------------------

std::uint64_t
TraceReader::offset()
{
    // After a failed read the stream position is lost (tellg() is -1
    // with failbit set); report the last known-good position instead.
    if (!is) {
        is.clear();
        is.seekg(0, std::ios::end);
    }
    std::streampos p = is.tellg();
    return p < 0 ? 0 : static_cast<std::uint64_t>(p);
}

void
TraceReader::corrupt(std::uint64_t off, const std::string &msg)
{
    raise(TraceCorruptError(
        path_, off,
        format("'%s' at byte %llu: %s", path_.c_str(),
               (unsigned long long)off, msg.c_str())));
}

TraceReader::TraceReader(const std::string &path)
    : is(path, std::ios::binary), path_(path)
{
    if (!is)
        raise(IoError(path, format("cannot open trace file '%s'",
                                   path.c_str())));
    char magic[sizeof(kTraceMagic)];
    if (!is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        corrupt(0, "not a ddtrace file (bad magic)");
    if (!getU32(is, hdr.version))
        corrupt(offset(), "truncated trace header (version)");
    if (hdr.version != kTraceVersion)
        corrupt(sizeof(kTraceMagic),
                format("unsupported trace version %u", hdr.version));
    if (!getString(is, hdr.workload) || !getString(is, hdr.notation) ||
        !getString(is, hdr.label))
        corrupt(offset(), "truncated trace header (strings)");
    std::uint64_t countOff = offset();
    if (!getU64(is, hdr.recordCount))
        corrupt(countOff, "truncated trace header (record count)");
    if (hdr.recordCount == ~std::uint64_t{0})
        corrupt(countOff,
                "trace was never finalized (writer died mid-run)");
}

bool
TraceReader::getVarint(std::uint64_t &v)
{
    // istream::get() returns EOF, a negative value, at the end.
    const varint::Status st = varint::get([&] { return is.get(); }, v);
    if (st == varint::Status::Overflow)
        corrupt(offset(), "malformed varint (overflows 64 bits)");
    if (st == varint::Status::TooLong)
        corrupt(offset(), "malformed varint (continuation past 64 bits)");
    return st == varint::Status::Ok;
}

bool
TraceReader::next(TraceRecord &rec)
{
    if (decodedCount >= hdr.recordCount)
        return false;
    std::uint64_t seqDelta, pcIdx, commitDelta;
    std::uint64_t back[6];
    if (!getVarint(seqDelta))
        corrupt(offset(),
                format("truncated after %llu of %llu records",
                       (unsigned long long)decodedCount,
                       (unsigned long long)hdr.recordCount));
    if (!getVarint(pcIdx))
        corrupt(offset(), "record truncated (pc)");
    if (pcIdx > 0xffffffffu)
        corrupt(offset(), "pc index exceeds 32 bits");
    int flagsByte = is.get();
    if (flagsByte == std::char_traits<char>::eof())
        corrupt(offset(), "record truncated (flags)");
    if (!getVarint(commitDelta))
        corrupt(offset(), "record truncated (commit)");
    for (std::uint64_t &b : back)
        if (!getVarint(b))
            corrupt(offset(), "record truncated (stage offsets)");

    rec = TraceRecord{};
    rec.seq = prevSeq + seqDelta;
    prevSeq = rec.seq;
    rec.pcIdx = static_cast<std::uint32_t>(pcIdx);
    auto flags = static_cast<std::uint8_t>(flagsByte);
    rec.isLoad = flags & 0x01;
    rec.isStore = flags & 0x02;
    rec.lvaqStream = flags & 0x04;
    rec.replicated = flags & 0x08;
    rec.forwarded = flags & 0x10;
    rec.fastForwarded = flags & 0x20;
    rec.combined = flags & 0x40;
    rec.missteered = flags & 0x80;
    rec.commitCycle = prevCommit + commitDelta;
    prevCommit = rec.commitCycle;
    // A backward stage offset beyond the commit cycle would wrap the
    // subtraction in decodeBack; a bit-flipped offset must not turn
    // into a 10^19-cycle "event".
    for (std::uint64_t b : back)
        if (b != 0 && b - 1 > rec.commitCycle)
            corrupt(offset(),
                    format("stage offset %llu before cycle 0 "
                           "(commit cycle %llu)",
                           (unsigned long long)b,
                           (unsigned long long)rec.commitCycle));
    rec.fetchCycle = decodeBack(rec.commitCycle, back[0]);
    rec.dispatchCycle = decodeBack(rec.commitCycle, back[1]);
    rec.queueCycle = decodeBack(rec.commitCycle, back[2]);
    rec.issueCycle = decodeBack(rec.commitCycle, back[3]);
    rec.accessCycle = decodeBack(rec.commitCycle, back[4]);
    rec.wbCycle = decodeBack(rec.commitCycle, back[5]);
    ++decodedCount;
    return true;
}

} // namespace ddsim::obs
