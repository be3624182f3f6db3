#include "cpu/rob.hh"

#include "util/log.hh"

namespace ddsim::cpu {

Rob::Rob(int size)
    : entries(static_cast<std::size_t>(size)), capacity(size)
{
    if (size < 1)
        panic("ROB needs at least one entry");
}

void
Rob::allocateFull()
{
    panic("Rob::allocate on a full ROB");
}

void
Rob::releaseEmpty()
{
    panic("Rob::releaseHead on an empty ROB");
}

} // namespace ddsim::cpu
