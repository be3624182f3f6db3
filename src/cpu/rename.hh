/**
 * @file
 * RUU-style register renaming: a map table from architectural register
 * to the ROB entry that will produce it. Producers are identified by
 * (ROB index, sequence number) so stale indices from reused ROB slots
 * are detected.
 */

#ifndef DDSIM_CPU_RENAME_HH_
#define DDSIM_CPU_RENAME_HH_

#include <array>

#include "isa/inst.hh"
#include "util/types.hh"

namespace ddsim::cpu {

/** A producer tag: ROB index plus the instruction's sequence number. */
struct ProducerTag
{
    int robIdx = -1;
    InstSeq seq = 0;

    bool valid() const { return robIdx >= 0; }
};

/** Architectural register -> in-flight producer map. */
class RenameTable
{
  public:
    RenameTable() { reset(); }

    void reset();

    /** Current in-flight producer of @p r (invalid if in regfile). */
    ProducerTag
    producer(isa::RegRef r) const
    {
        return table[index(r)];
    }

    /** Instruction @p tag now produces @p r. */
    void
    setProducer(isa::RegRef r, ProducerTag tag)
    {
        table[index(r)] = tag;
    }

    /**
     * Called at commit: if @p tag is still the newest producer of
     * @p r, the value is now in the register file.
     */
    void
    clearIfProducer(isa::RegRef r, ProducerTag tag)
    {
        ProducerTag &slot = table[index(r)];
        if (slot.robIdx == tag.robIdx && slot.seq == tag.seq)
            slot = ProducerTag{};
    }

  private:
    // 0..31 GPRs, 32..63 FPRs.
    std::array<ProducerTag, 64> table;

    static std::size_t
    index(isa::RegRef r)
    {
        if (r.file == isa::RegFile::None)
            invalidRef();
        return (r.file == isa::RegFile::Fpr ? 32 : 0) +
               static_cast<std::size_t>(r.idx);
    }
    [[noreturn]] static void invalidRef();
};

} // namespace ddsim::cpu

#endif // DDSIM_CPU_RENAME_HH_
