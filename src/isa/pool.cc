/**
 * @file
 * Instruction pool implementation and built-in ARM/x86 pools.
 *
 * Effective energies are calibrated so that a core model sustaining
 * two short integer ops per cycle at ~1 GHz and 1 V draws on the
 * order of half an amp — representative of the mobile/desktop cores
 * in the paper. Long-latency instructions spread less energy per
 * cycle, making them the GA's "low-current" phase material.
 */

#include "isa/pool.h"

#include <fstream>
#include <sstream>

#include "isa/xml.h"
#include "util/error.h"
#include "util/units.h"

namespace emstress {
namespace isa {

std::string
isaFamilyName(IsaFamily isa)
{
    switch (isa) {
      case IsaFamily::ArmV8:  return "armv8";
      case IsaFamily::X86_64: return "x86-64";
    }
    return "unknown";
}

InstructionPool::InstructionPool(IsaFamily isa, int int_regs, int fp_regs,
                                 int simd_regs, int mem_slots)
    : isa_(isa), int_regs_(int_regs), fp_regs_(fp_regs),
      simd_regs_(simd_regs), mem_slots_(mem_slots)
{
    requireConfig(int_regs >= 1 && fp_regs >= 0 && simd_regs >= 0
                      && mem_slots >= 0,
                  "invalid pool resource counts");
}

InstructionPool
InstructionPool::armV8()
{
    InstructionPool pool(IsaFamily::ArmV8, 8, 8, 8, 4);
    using C = InstrClass;
    using R = RegFile;
    // Short-latency integer: the high-current filler.
    pool.addInstruction({"MOV", C::IntShort, 1, 1, true, R::Int,
                         nano(0.18)});
    pool.addInstruction({"ADD", C::IntShort, 1, 2, true, R::Int,
                         nano(0.20)});
    pool.addInstruction({"SUB", C::IntShort, 1, 2, true, R::Int,
                         nano(0.20)});
    pool.addInstruction({"EOR", C::IntShort, 1, 2, true, R::Int,
                         nano(0.19)});
    // Long-latency integer: pipeline-stalling, low current.
    pool.addInstruction({"MUL", C::IntLong, 4, 2, true, R::Int,
                         nano(0.30)});
    pool.addInstruction({"SDIV", C::IntLong, 12, 2, true, R::Int,
                         nano(0.40)});
    // Floating point.
    pool.addInstruction({"FADD", C::FpShort, 3, 2, true, R::Fp,
                         nano(0.40)});
    pool.addInstruction({"FMUL", C::FpShort, 4, 2, true, R::Fp,
                         nano(0.45)});
    pool.addInstruction({"FDIV", C::FpLong, 10, 2, true, R::Fp,
                         nano(0.50)});
    pool.addInstruction({"FSQRT", C::FpLong, 12, 1, true, R::Fp,
                         nano(0.50)});
    // SIMD (wide datapath: highest per-op energy).
    pool.addInstruction({"VADD", C::SimdShort, 3, 2, true, R::Simd,
                         nano(0.60)});
    pool.addInstruction({"VMUL", C::SimdShort, 4, 2, true, R::Simd,
                         nano(0.65)});
    pool.addInstruction({"VSQRT", C::SimdLong, 12, 1, true, R::Simd,
                         nano(0.70)});
    // Memory (always L1 hits). Loads/stores engage pipeline + L1.
    pool.addInstruction({"LDR", C::Load, 3, 0, true, R::Int,
                         nano(0.35)});
    pool.addInstruction({"STR", C::Store, 1, 1, false, R::Int,
                         nano(0.32)});
    // Dummy unconditional branch to the next instruction.
    pool.addInstruction({"B", C::Branch, 1, 0, false, R::None,
                         nano(0.10)});
    return pool;
}

InstructionPool
InstructionPool::x86Sse2()
{
    InstructionPool pool(IsaFamily::X86_64, 8, 8, 8, 4);
    using C = InstrClass;
    using R = RegFile;
    pool.addInstruction({"MOV", C::IntShort, 1, 1, true, R::Int,
                         nano(0.20)});
    pool.addInstruction({"ADD", C::IntShort, 1, 2, true, R::Int,
                         nano(0.22)});
    pool.addInstruction({"SUB", C::IntShort, 1, 2, true, R::Int,
                         nano(0.22)});
    pool.addInstruction({"XOR", C::IntShort, 1, 2, true, R::Int,
                         nano(0.21)});
    pool.addInstruction({"IMUL", C::IntLong, 3, 2, true, R::Int,
                         nano(0.33)});
    pool.addInstruction({"IDIV", C::IntLong, 20, 2, true, R::Int,
                         nano(0.50)});
    // Scalar SSE2 floating point.
    pool.addInstruction({"ADDSD", C::FpShort, 3, 2, true, R::Fp,
                         nano(0.45)});
    pool.addInstruction({"MULSD", C::FpShort, 5, 2, true, R::Fp,
                         nano(0.50)});
    pool.addInstruction({"DIVSD", C::FpLong, 15, 2, true, R::Fp,
                         nano(0.55)});
    pool.addInstruction({"SQRTSD", C::FpLong, 20, 1, true, R::Fp,
                         nano(0.55)});
    // Packed SSE2.
    pool.addInstruction({"PADDD", C::SimdShort, 2, 2, true, R::Simd,
                         nano(0.65)});
    pool.addInstruction({"MULPD", C::SimdShort, 5, 2, true, R::Simd,
                         nano(0.70)});
    pool.addInstruction({"SQRTPD", C::SimdLong, 20, 1, true, R::Simd,
                         nano(0.75)});
    // x86 memory operands: integer ops reading/writing memory
    // (Section 3.3: "memory operations are implemented by using
    // memory address operands for integer instructions").
    pool.addInstruction({"ADDmem", C::IntShortMem, 4, 1, true, R::Int,
                         nano(0.48)});
    pool.addInstruction({"IMULmem", C::IntLongMem, 8, 1, true, R::Int,
                         nano(0.58)});
    return pool;
}

std::size_t
InstructionPool::addInstruction(const InstrDef &def)
{
    requireConfig(!def.mnemonic.empty(), "instruction needs a mnemonic");
    requireConfig(def.latency >= 1, def.mnemonic + ": latency >= 1");
    requireConfig(def.sources <= 2, def.mnemonic + ": at most 2 sources");
    requireConfig(def.energy >= 0.0,
                  def.mnemonic + ": energy must be non-negative");
    for (const auto &d : defs_)
        requireConfig(d.mnemonic != def.mnemonic,
                      "duplicate mnemonic " + def.mnemonic);
    defs_.push_back(def);
    return defs_.size() - 1;
}

const InstrDef &
InstructionPool::def(std::size_t index) const
{
    requireConfig(index < defs_.size(), "definition index out of range");
    return defs_[index];
}

std::size_t
InstructionPool::defIndex(const std::string &mnemonic) const
{
    for (std::size_t i = 0; i < defs_.size(); ++i)
        if (defs_[i].mnemonic == mnemonic)
            return i;
    throw ConfigError("no instruction named " + mnemonic);
}

int
InstructionPool::regCount(RegFile file) const
{
    switch (file) {
      case RegFile::Int:  return int_regs_;
      case RegFile::Fp:   return fp_regs_;
      case RegFile::Simd: return simd_regs_;
      case RegFile::None: return 0;
    }
    return 0;
}

Instruction
InstructionPool::randomInstruction(Rng &rng) const
{
    requireConfig(!defs_.empty(), "pool has no instructions");
    Instruction instr;
    instr.def_index = rng.index(defs_.size());
    randomizeOperands(instr, rng);
    return instr;
}

void
InstructionPool::randomizeOperands(Instruction &instr, Rng &rng) const
{
    const InstrDef &d = def(instr.def_index);
    const int regs = regCount(d.reg_file);
    instr.dest = -1;
    instr.src = {-1, -1};
    instr.mem_slot = -1;
    if (d.has_dest && regs > 0)
        instr.dest = rng.uniformInt(0, regs - 1);
    for (unsigned s = 0; s < d.sources; ++s)
        if (regs > 0)
            instr.src[s] = rng.uniformInt(0, regs - 1);
    if (isMemoryClass(d.cls) && mem_slots_ > 0)
        instr.mem_slot = rng.uniformInt(0, mem_slots_ - 1);
}

void
InstructionPool::validate(const Instruction &instr) const
{
    const InstrDef &d = def(instr.def_index);
    const int regs = regCount(d.reg_file);
    // Runs for every instruction of every simulated kernel: build the
    // message only on failure.
    if (d.has_dest && !(instr.dest >= 0 && instr.dest < regs))
        throw ConfigError(d.mnemonic + ": bad destination register");
    for (unsigned s = 0; s < d.sources; ++s)
        if (!(instr.src[s] >= 0 && instr.src[s] < regs))
            throw ConfigError(d.mnemonic + ": bad source register");
    if (isMemoryClass(d.cls)
        && !(instr.mem_slot >= 0 && instr.mem_slot < mem_slots_))
        throw ConfigError(d.mnemonic + ": bad memory slot");
}

std::string
InstructionPool::toAssembly(const Instruction &instr) const
{
    const InstrDef &d = def(instr.def_index);
    const char prefix = d.reg_file == RegFile::Fp ? 'f'
        : d.reg_file == RegFile::Simd            ? 'v'
                                                 : 'r';
    std::ostringstream os;
    os << d.mnemonic;
    bool first = true;
    auto sep = [&]() {
        os << (first ? " " : ", ");
        first = false;
    };
    if (d.cls == InstrClass::Branch) {
        os << " .next";
        return os.str();
    }
    if (d.has_dest) {
        sep();
        os << prefix << instr.dest;
    }
    if (isX86MemOperandClass(d.cls) || d.cls == InstrClass::Load
        || d.cls == InstrClass::Store) {
        sep();
        os << "[mem" << instr.mem_slot << "]";
    }
    for (unsigned s = 0; s < d.sources; ++s) {
        sep();
        os << prefix << instr.src[s];
    }
    return os.str();
}

InstructionPool
InstructionPool::fromXmlString(const std::string &xml)
{
    const XmlNode root = parseXml(xml);
    requireConfig(root.name == "pool", "pool XML root must be <pool>");
    const std::string isa_name = root.attr("isa");
    IsaFamily isa;
    if (isa_name == "armv8")
        isa = IsaFamily::ArmV8;
    else if (isa_name == "x86-64")
        isa = IsaFamily::X86_64;
    else
        throw ConfigError("unknown isa: " + isa_name);

    const XmlNode &regs = root.child("registers");
    InstructionPool pool(
        isa, static_cast<int>(regs.attrNumber("int")),
        static_cast<int>(regs.attrNumber("fp")),
        static_cast<int>(regs.attrNumber("simd")),
        static_cast<int>(regs.attrNumber("mem_slots")));

    for (const XmlNode *in : root.childrenNamed("instruction")) {
        InstrDef d;
        d.mnemonic = in->attr("mnemonic");
        d.cls = instrClassFromName(in->attr("class"));
        d.latency = static_cast<unsigned>(in->attrNumber("latency"));
        d.sources = static_cast<unsigned>(in->attrNumber("sources"));
        d.has_dest = in->attrOr("dest", "true") == "true";
        d.energy = in->attrNumber("energy");
        const std::string rf = in->attrOr("regfile", "int");
        if (rf == "int")
            d.reg_file = RegFile::Int;
        else if (rf == "fp")
            d.reg_file = RegFile::Fp;
        else if (rf == "simd")
            d.reg_file = RegFile::Simd;
        else if (rf == "none")
            d.reg_file = RegFile::None;
        else
            throw ConfigError("unknown regfile: " + rf);
        pool.addInstruction(d);
    }
    requireConfig(!pool.defs().empty(),
                  "pool XML contains no <instruction> elements");
    return pool;
}

InstructionPool
InstructionPool::fromXmlFile(const std::string &path)
{
    std::ifstream f(path);
    requireConfig(f.good(), "cannot open pool XML file: " + path);
    std::ostringstream buf;
    buf << f.rdbuf();
    return fromXmlString(buf.str());
}

std::string
InstructionPool::toXmlString() const
{
    std::ostringstream os;
    os << "<pool isa=\"" << isaFamilyName(isa_) << "\">\n";
    os << "  <registers int=\"" << int_regs_ << "\" fp=\"" << fp_regs_
       << "\" simd=\"" << simd_regs_ << "\" mem_slots=\"" << mem_slots_
       << "\"/>\n";
    for (const auto &d : defs_) {
        const char *rf = d.reg_file == RegFile::Int ? "int"
            : d.reg_file == RegFile::Fp             ? "fp"
            : d.reg_file == RegFile::Simd           ? "simd"
                                                    : "none";
        os << "  <instruction mnemonic=\"" << d.mnemonic
           << "\" class=\"" << instrClassName(d.cls) << "\" latency=\""
           << d.latency << "\" sources=\"" << d.sources << "\" dest=\""
           << (d.has_dest ? "true" : "false") << "\" regfile=\"" << rf
           << "\" energy=\"" << d.energy << "\"/>\n";
    }
    os << "</pool>\n";
    return os.str();
}

} // namespace isa
} // namespace emstress
