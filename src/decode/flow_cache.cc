#include "decode/flow_cache.hh"

namespace csd
{

SbHandler
sbHandlerFor(MicroOpcode op)
{
    switch (op) {
      case MicroOpcode::Load:        return SbHandler::Load;
      case MicroOpcode::Store:       return SbHandler::Store;
      case MicroOpcode::StoreImm:    return SbHandler::StoreImm;
      case MicroOpcode::LoadVec:     return SbHandler::LoadVec;
      case MicroOpcode::StoreVec:    return SbHandler::StoreVec;
      case MicroOpcode::Br:          return SbHandler::Br;
      case MicroOpcode::BrInd:       return SbHandler::BrInd;
      case MicroOpcode::CacheFlush:  return SbHandler::CacheFlush;
      case MicroOpcode::ReadCycles:  return SbHandler::ReadCycles;
      case MicroOpcode::Nop:         return SbHandler::Nop;
      case MicroOpcode::VAdd: case MicroOpcode::VSub:
      case MicroOpcode::VAnd: case MicroOpcode::VOr:
      case MicroOpcode::VXor: case MicroOpcode::VMulLo16:
      case MicroOpcode::VShlI: case MicroOpcode::VShrI:
      case MicroOpcode::VMov:
      case MicroOpcode::FAddPs: case MicroOpcode::FMulPs:
      case MicroOpcode::FSubPs: case MicroOpcode::FAddPd:
      case MicroOpcode::FMulPd: case MicroOpcode::FSubPd:
      case MicroOpcode::FDivPs: case MicroOpcode::FSqrtPs:
      case MicroOpcode::VInsert:
        return SbHandler::Vector;
      case MicroOpcode::VExtract:    return SbHandler::VExtract;
      case MicroOpcode::FAddS: case MicroOpcode::FSubS:
      case MicroOpcode::FMulS: case MicroOpcode::FDivS:
      case MicroOpcode::FSqrtS:
      case MicroOpcode::FAddSd: case MicroOpcode::FSubSd:
      case MicroOpcode::FMulSd:
        return SbHandler::ScalarFp;
      case MicroOpcode::Halt:        return SbHandler::Halt;
      default:
        return SbHandler::ScalarAlu;
    }
}

namespace
{

/**
 * Append uops [@p lo, @p hi) of @p flow to @p ops, counting delivered
 * uops and front-end slots. Forced inline: the uncached path resolves
 * once per interpreted macro.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline void
emitUops(const UopFlow &flow, const EnergyModel &energy, std::size_t lo,
         std::size_t hi, std::vector<SbOp> &ops, std::uint32_t &delivered,
         std::uint32_t &slots)
{
    for (std::size_t i = lo; i < hi; ++i) {
        const Uop &uop = flow.uops[i];
        const UopTimingRec rec = timingRecordFor(uop);
        ops.push_back({&uop, rec, energy.fuEnergy(rec.fu),
                       sbHandlerFor(uop.op)});
        if (!uop.eliminated) {
            ++delivered;
            slots += uop.fusedFollower ? 0 : 1;
        }
    }
}

} // namespace

SbMacro
resolveMacro(const MacroOp &op, const UopFlow &flow, unsigned ctx,
             const EnergyModel &energy, std::vector<SbOp> &ops)
{
    std::uint32_t delivered = 0;
    std::uint32_t slots = 0;
    ops.clear();
    // The expansion: prologue, body x tripCount, epilogue.
    if (!flow.loop) {
        ops.reserve(flow.uops.size());
        emitUops(flow, energy, 0, flow.uops.size(), ops, delivered, slots);
    } else {
        const MicroLoop &loop = *flow.loop;
        const std::size_t body = loop.bodyEnd - loop.bodyStart;
        ops.reserve(flow.uops.size() - body + body * loop.tripCount);
        emitUops(flow, energy, 0, loop.bodyStart, ops, delivered, slots);
        if (loop.tripCount > 0) {
            // Resolve the body once; later trips copy its ops (a decoy
            // flow's trip count is a range's block count, and the
            // uncached path resolves it per step).
            const std::size_t first = ops.size();
            std::uint32_t body_delivered = 0;
            std::uint32_t body_slots = 0;
            emitUops(flow, energy, loop.bodyStart, loop.bodyEnd, ops,
                     body_delivered, body_slots);
            for (std::uint32_t trip = 1; trip < loop.tripCount; ++trip)
                for (std::size_t i = first; i < first + body; ++i)
                    ops.push_back(ops[i]);
            delivered += body_delivered * loop.tripCount;
            slots += body_slots * loop.tripCount;
        }
        emitUops(flow, energy, loop.bodyEnd, flow.uops.size(), ops,
                 delivered, slots);
    }
    return {.op = &op,
            .flow = &flow,
            .ops = ops.data(),
            .fallThrough = op.nextPc(),
            .fetchFirst = blockAlign(op.pc),
            .fetchLast = blockAlign(op.pc + op.length - 1),
            .dynCount = static_cast<std::uint32_t>(ops.size()),
            .delivered = delivered,
            .frontEndSlots = slots,
            .ctx = static_cast<std::uint16_t>(ctx),
            // Provenance: the tier performs the full guard sequence
            // before every compiled macro (sim/retire.cc); the prover
            // audits these bits against the span's effects.
            .guards = sbGuardAll};
}

} // namespace csd
