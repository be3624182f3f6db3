#include "cpu/rename.hh"

#include "util/log.hh"

namespace ddsim::cpu {

void
RenameTable::reset()
{
    table.fill(ProducerTag{});
}

void
RenameTable::invalidRef()
{
    panic("rename: invalid register reference");
}

} // namespace ddsim::cpu
