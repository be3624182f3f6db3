/**
 * @file
 * The portable external trace frontend: "ddsim-xtrace-v1", a
 * versioned, self-contained on-disk form of a program plus its full
 * dynamic instruction stream, and ExternalTrace, the object that
 * ingests such files (or in-memory recordings) and makes them behave
 * exactly like a built-in workload — replayable by every engine, with
 * a local/non-local annotation pass so the static-hybrid classifier
 * and the oracle both work on streams ddsim never executed itself.
 *
 * Binary format "ddsim-xtrace-v1" (magic "ddxtrac1"; all varints are
 * LEB128, 7 bits per byte, high bit = continuation; fixed-width
 * integers little-endian):
 *
 *   magic      8 bytes  "ddxtrac1"
 *   version    varint   currently 1
 *   flags      varint   bit0 = localHint bits in the text are valid
 *                       (burned by the converter's annotation pass);
 *                       all other bits must be zero
 *   name       varint len + bytes   program name
 *   entry      varint   entry point (text word index)
 *   textCount  varint   instructions in the text segment (> 0)
 *   text       textCount x u32 LE   encoded MISA instructions
 *   instCount  varint   dynamic records that follow
 *   then per record:
 *     head     varint   (pcIdx << 3) | taken | mem << 1 | indirect << 2
 *     effAddr  varint   memory ops only
 *     baseVer  varint   memory ops only: base-register version
 *     nextPc   varint   register-indirect jumps (JR/JALR) only
 *
 * The record fields are exactly the payload RecordedTrace keeps
 * internally, so decoding is a straight repack and an
 * encode -> decode -> re-encode round trip is byte-identical.
 * Decoding validates everything: magic/version/flags, instruction
 * encodings, flag/opcode agreement, in-bounds pc indices, and
 * record-to-record control-flow chaining. Corrupt input of any kind
 * raises TraceCorruptError with the byte offset of the first
 * undecodable input — never a crash, never an out-of-bounds read.
 */

#ifndef DDSIM_VM_XTRACE_HH_
#define DDSIM_VM_XTRACE_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "util/types.hh"
#include "vm/trace.hh"

namespace ddsim::prog {
class Program;
}

namespace ddsim::vm {

/** xtrace format version written by this build. */
inline constexpr std::uint32_t kXtraceVersion = 1;
/** xtrace file magic. */
inline constexpr char kXtraceMagic[8] = {'d', 'd', 'x', 't',
                                         'r', 'a', 'c', '1'};
/** Header flag: localHint bits in the text segment are trustworthy. */
inline constexpr std::uint64_t kXtraceFlagHintsValid = 1;

/** Summary of the annotation pass over one external trace. */
struct XAnnotation
{
    std::uint64_t memPcs = 0;        ///< Static memory instructions.
    std::uint64_t localPcs = 0;      ///< Verdict Local.
    std::uint64_t nonLocalPcs = 0;   ///< Verdict NonLocal.
    std::uint64_t ambiguousPcs = 0;  ///< Verdict Ambiguous.
    std::uint64_t memOps = 0;        ///< Dynamic memory accesses.
    /** Dynamic accesses where the sp-tracking verdict (base register
     *  is stack-derived) agrees with the runtime oracle
     *  (layout::isStackAddr on the effective address). */
    std::uint64_t spAgree = 0;
    std::uint64_t spDisagree = 0;
};

/**
 * One dynamic record in converter-friendly form: exactly what the
 * xtrace format stores per instruction. Converters build a vector of
 * these; ExternalTrace::make packs them into the internal encoding.
 */
struct XRecord
{
    std::uint32_t pcIdx = 0;
    bool taken = false;
    bool mem = false;
    bool indirect = false;          ///< JR/JALR: nextPcIdx follows.
    Addr effAddr = 0;               ///< Memory ops only.
    std::uint32_t baseVersion = 0;  ///< Memory ops only.
    std::uint32_t nextPcIdx = 0;    ///< Indirect jumps only.
};

/**
 * A program and its dynamic stream ingested from outside the
 * simulator (an xtrace file, a converted public-format trace, or an
 * in-memory recording), plus the local/non-local annotation computed
 * at ingest. Owns the program; the replay trace aliases it, so the
 * "trace must be recorded from the same program object" invariant the
 * engines panic on holds by construction. Immutable after
 * construction and safe to share across threads.
 */
class ExternalTrace
{
  public:
    /**
     * Decode an xtrace file. Raises IoError if @p path cannot be
     * read and TraceCorruptError (with byte offset) on any malformed
     * content.
     */
    static std::shared_ptr<const ExternalTrace>
    load(const std::string &path);

    /**
     * load() through a process-global cache keyed by path, so a bench
     * grid or a farm worker claiming many jobs over the same trace
     * decodes it once. Thread-safe.
     */
    static std::shared_ptr<const ExternalTrace>
    loadCached(const std::string &path);

    /**
     * Build from a program by functionally executing it (@p maxInsts
     * 0 = to completion) — the synthetic/adversarial-workload path.
     * @p hintsValid marks the program's localHint bits as
     * compiler-provided.
     */
    static std::shared_ptr<const ExternalTrace>
    fromProgram(std::shared_ptr<const prog::Program> program,
                std::uint64_t maxInsts, std::string format,
                bool hintsValid);

    /**
     * Build from converter output: a program plus explicit dynamic
     * records. Validates the records against the program exactly like
     * the file decoder does; a converter handing over an impossible
     * stream raises ProgramError.
     */
    static std::shared_ptr<const ExternalTrace>
    make(std::shared_ptr<const prog::Program> program,
         const std::vector<XRecord> &records, std::string format,
         bool hintsValid);

    /** Encode as ddsim-xtrace-v1, atomically (write-temp-then-rename). */
    void save(const std::string &path) const;

    const prog::Program &program() const { return *prog_; }
    std::shared_ptr<const prog::Program> sharedProgram() const
    {
        return prog_;
    }

    /**
     * The replay trace, aliased to @p self so it keeps the whole
     * ExternalTrace (and the program the trace points into) alive.
     */
    static std::shared_ptr<const RecordedTrace>
    sharedTrace(const std::shared_ptr<const ExternalTrace> &self)
    {
        return {self, &self->trace_};
    }

    std::uint64_t instCount() const { return trace_.instCount(); }

    /**
     * Per-pc annotation verdicts, indexed by text word index: Local
     * when every access had a stack-derived base and a stack-region
     * address, NonLocal when every access had a non-stack base and
     * address, Ambiguous on conflicting or missing evidence.
     */
    const std::vector<isa::Verdict> &verdicts() const
    {
        return verdicts_;
    }
    const XAnnotation &annotation() const { return annotation_; }

    /** File this trace came from ("" for in-memory builds). */
    const std::string &path() const { return path_; }
    /** Provenance tag: "xtrace", "text", "workload", ... */
    const std::string &format() const { return format_; }
    bool hintsValid() const { return hintsValid_; }

  private:
    ExternalTrace() = default;

    /** Run the sp-tracking annotation pass over the finished trace. */
    void annotate();

    std::shared_ptr<const prog::Program> prog_;
    RecordedTrace trace_;            ///< trace_.prog == prog_.get().
    std::vector<isa::Verdict> verdicts_;
    XAnnotation annotation_;
    std::string path_;
    std::string format_;
    bool hintsValid_ = false;
};

} // namespace ddsim::vm

#endif // DDSIM_VM_XTRACE_HH_
