#include "isa/opcode.hh"

#include <array>
#include <cstring>

#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::isa {

namespace {

// Latencies follow the MIPS R10000 (Table 1 of the paper): integer
// ALU 1, integer multiply 5, integer divide 34 (unpipelined), FP
// add/compare/convert 2, FP multiply 2, FP divide 19 (unpipelined).
constexpr std::uint8_t LatIntAlu = 1;
constexpr std::uint8_t LatIntMult = 5;
constexpr std::uint8_t LatIntDiv = 34;
constexpr std::uint8_t LatFpAlu = 2;
constexpr std::uint8_t LatFpMult = 2;
constexpr std::uint8_t LatFpDiv = 19;

struct Entry
{
    OpCode op;
    OpInfo info;
};

// One row per opcode:        mnem      fmt              fu             lat        pipe  ld     st     br     jmp    call   fp     sz
constexpr Entry table[] = {
    {OpCode::NOP,     {"nop",     Format::None,     FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::HALT,    {"halt",    Format::None,     FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::PRINT,   {"print",   Format::Print,    FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::ADD,     {"add",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SUB,     {"sub",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::MUL,     {"mul",     Format::R3,       FuClass::IntMult, LatIntMult, true, false, false, false, false, false, false, 0}},
    {OpCode::DIV,     {"div",     Format::R3,       FuClass::IntDiv,  LatIntDiv,  false, false, false, false, false, false, false, 0}},
    {OpCode::AND,     {"and",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::OR,      {"or",      Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::XOR,     {"xor",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::NOR,     {"nor",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLLV,    {"sllv",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRLV,    {"srlv",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRAV,    {"srav",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLT,     {"slt",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLTU,    {"sltu",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::SLL,     {"sll",     Format::RShift,   FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRL,     {"srl",     Format::RShift,   FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRA,     {"sra",     Format::RShift,   FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::ADDI,    {"addi",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::ANDI,    {"andi",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::ORI,     {"ori",     Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::XORI,    {"xori",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLTI,    {"slti",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::LUI,     {"lui",     Format::I1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::LW,      {"lw",      Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, false, 4}},
    {OpCode::LB,      {"lb",      Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, false, 1}},
    {OpCode::LBU,     {"lbu",     Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, false, 1}},
    {OpCode::SW,      {"sw",      Format::Mem,      FuClass::MemPort, 0,          true, false, true,  false, false, false, false, 4}},
    {OpCode::SB,      {"sb",      Format::Mem,      FuClass::MemPort, 0,          true, false, true,  false, false, false, false, 1}},
    {OpCode::LD,      {"ld",      Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, true,  8}},
    {OpCode::SD,      {"sd",      Format::Mem,      FuClass::MemPort, 0,          true, false, true,  false, false, false, true,  8}},

    {OpCode::BEQ,     {"beq",     Format::B2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BNE,     {"bne",     Format::B2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BLEZ,    {"blez",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BGTZ,    {"bgtz",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BLTZ,    {"bltz",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BGEZ,    {"bgez",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},

    {OpCode::J,       {"j",       Format::Jmp,      FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  false, false, 0}},
    {OpCode::JAL,     {"jal",     Format::Jmp,      FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  true,  false, 0}},
    {OpCode::JR,      {"jr",      Format::JmpR,     FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  false, false, 0}},
    {OpCode::JALR,    {"jalr",    Format::JmpLinkR, FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  true,  false, 0}},

    {OpCode::ADD_D,   {"add.d",   Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::SUB_D,   {"sub.d",   Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::MUL_D,   {"mul.d",   Format::R3,       FuClass::FpMult,  LatFpMult,  true, false, false, false, false, false, true,  0}},
    {OpCode::DIV_D,   {"div.d",   Format::R3,       FuClass::FpDiv,   LatFpDiv,   false, false, false, false, false, false, true,  0}},
    {OpCode::MOV_D,   {"mov.d",   Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::NEG_D,   {"neg.d",   Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::CVT_D_W, {"cvt.d.w", Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::CVT_W_D, {"cvt.w.d", Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::C_LT_D,  {"c.lt.d",  Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::C_LE_D,  {"c.le.d",  Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::C_EQ_D,  {"c.eq.d",  Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
};

constexpr int tableSize = sizeof(table) / sizeof(table[0]);

static_assert(tableSize == NumOpcodesInt,
              "opcode table must cover every OpCode exactly once");

// The dense table indexed by opcode value, built at compile time.
constexpr std::array<OpInfo, NumOpcodesInt>
denseTable()
{
    std::array<OpInfo, NumOpcodesInt> d{};
    for (const Entry &e : table)
        d[static_cast<std::size_t>(e.op)] = e.info;
    return d;
}

constexpr bool
everyOpcodeHasARow()
{
    for (const OpInfo &info : denseTable())
        if (info.mnemonic == nullptr)
            return false;
    return true;
}

static_assert(everyOpcodeHasARow(),
              "opcode table is missing an entry (and so repeats one)");

} // namespace

constinit const std::array<OpInfo, NumOpcodesInt> OpInfoTable =
    denseTable();

void
badOpcode(int idx)
{
    panic("opInfo: invalid opcode %d", idx);
}

const char *
mnemonic(OpCode op)
{
    return opInfo(op).mnemonic;
}

OpCode
parseMnemonic(const char *name)
{
    std::string lower = toLower(name);
    for (int i = 0; i < NumOpcodesInt; ++i) {
        OpCode op = static_cast<OpCode>(i);
        if (lower == opInfo(op).mnemonic)
            return op;
    }
    return OpCode::NumOpcodes;
}

} // namespace ddsim::isa
