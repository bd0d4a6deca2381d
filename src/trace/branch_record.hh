/**
 * @file
 * The unit of a branch trace.
 *
 * The paper's evaluation is trace-driven over streams of conditional
 * branch outcomes. Every predictor reads only (pc, outcome) of the
 * conditional records, which the simulator, the packer and the trace
 * statistics select by class. The target stays in the record (and in
 * the BBT1 trace format) because the generator emits whole control
 * flow, calls and returns included; no predictor reads it.
 */

#ifndef BPSIM_TRACE_BRANCH_RECORD_HH
#define BPSIM_TRACE_BRANCH_RECORD_HH

#include <cstdint>
#include <string>

namespace bpsim
{

/** Architectural class of a branch instruction. */
enum class BranchType : std::uint8_t
{
    Conditional = 0,
    Unconditional = 1,
    Call = 2,
    Return = 3,
    IndirectJump = 4,
};

/** Human-readable name of a BranchType. */
const char *branchTypeName(BranchType type);

/** Parses branchTypeName() output back to the enum; fatal on error. */
BranchType branchTypeFromName(const std::string &name);

/**
 * One dynamic branch instance.
 *
 * Addresses are byte addresses; synthetic workloads emit 4-byte
 * aligned instruction addresses like the MIPS/Alpha machines the
 * paper traced.
 */
struct BranchRecord
{
    /** Address of the branch instruction. */
    std::uint64_t pc = 0;
    /** Address control transfers to when the branch is taken. */
    std::uint64_t target = 0;
    /** Architectural class. */
    BranchType type = BranchType::Conditional;
    /** Resolved direction; always true for unconditional classes. */
    bool taken = false;

    bool
    operator==(const BranchRecord &other) const
    {
        return pc == other.pc && target == other.target &&
               type == other.type && taken == other.taken;
    }

    /** True for the records the predictors in this project handle. */
    bool isConditional() const { return type == BranchType::Conditional; }
};

/* The AoS record pads 18 bytes of payload to 24; replay-heavy code
 * streams PackedTrace (trace/packed_trace.hh) instead, which keeps
 * only the fields the direction-prediction loop reads. A changed
 * size here means the packing trade-off should be re-examined. */
static_assert(sizeof(BranchRecord) == 24,
              "BranchRecord is expected to be a padded 24-byte record");

} // namespace bpsim

#endif // BPSIM_TRACE_BRANCH_RECORD_HH
