/**
 * @file
 * A loadable MISA program image: encoded text, an initial data segment
 * and a symbol table. Produced by ProgramBuilder or AsmParser and
 * consumed by the functional executor.
 */

#ifndef DDSIM_PROG_PROGRAM_HH_
#define DDSIM_PROG_PROGRAM_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "util/types.hh"

namespace ddsim::prog {

/** A complete program image. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : progName(std::move(name)) {}

    const std::string &name() const { return progName; }
    void setName(std::string n) { progName = std::move(n); }

    /** Number of instructions in the text segment. */
    std::size_t textSize() const { return text.size(); }

    /** Encoded instruction at word index @p idx. */
    std::uint32_t fetchRaw(std::uint32_t idx) const;

    /**
     * Decoded instruction at word index @p idx. Instructions are
     * decoded eagerly on append()/patch(), so a finished Program is
     * immutable through its const interface and safe to share
     * read-only across concurrently running simulations.
     */
    const isa::Inst &
    fetch(std::uint32_t idx) const
    {
        if (idx >= decoded.size()) [[unlikely]]
            fetchPastEnd(idx);
        return decoded[idx];
    }

    /** Append one encoded instruction; returns its word index. */
    std::uint32_t append(std::uint32_t word);

    /** Overwrite the instruction at @p idx (used for label fixups). */
    void patch(std::uint32_t idx, std::uint32_t word);

    /** Entry point as a text word index. */
    std::uint32_t entry() const { return entryIdx; }
    void setEntry(std::uint32_t idx) { entryIdx = idx; }

    /** Initial data segment, loaded at layout::DataBase. */
    const std::vector<std::uint8_t> &dataSegment() const { return data; }
    std::vector<std::uint8_t> &dataSegment() { return data; }

    /** Define symbol @p name at text word index @p idx. */
    void defineSymbol(const std::string &name, std::uint32_t idx);

    /** Look up a symbol; calls fatal() if missing. */
    std::uint32_t symbol(const std::string &name) const;
    bool hasSymbol(const std::string &name) const;
    const std::map<std::string, std::uint32_t> &symbols() const
    {
        return symtab;
    }

    /** Byte address of the first text word (layout::TextBase). */
    static Addr textAddr(std::uint32_t idx)
    {
        return layout::TextBase + idx * WordBytes;
    }

  private:
    std::string progName;
    std::vector<std::uint32_t> text;
    std::vector<isa::Inst> decoded;
    std::vector<std::uint8_t> data;
    std::map<std::string, std::uint32_t> symtab;
    std::uint32_t entryIdx = 0;

    /** fatal(): control flow ran off the end of the text. */
    [[noreturn]] void fetchPastEnd(std::uint32_t idx) const;
};

} // namespace ddsim::prog

#endif // DDSIM_PROG_PROGRAM_HH_
