#include "trace/trace_stats.hh"

#include <algorithm>

namespace bpsim
{

double
StaticBranchStats::takenFraction() const
{
    if (executions == 0)
        return 0.0;
    return static_cast<double>(takenCount) /
           static_cast<double>(executions);
}

bool
StaticBranchStats::isStronglyBiased(double threshold) const
{
    const double f = takenFraction();
    return f >= threshold || f <= 1.0 - threshold;
}

void
TraceStats::observe(const BranchRecord &record)
{
    if (!record.isConditional()) {
        ++otherCount;
        return;
    }
    ++dynamicCount;
    takenCount += record.taken;
    StaticBranchStats &entry = siteFor(record.pc);
    ++entry.executions;
    entry.takenCount += record.taken;
}

StaticBranchStats &
TraceStats::siteFor(std::uint64_t pc)
{
    for (;;) {
        StaticBranchStats *table = slots.data();
        const std::size_t mask = slots.size() - 1;
        std::size_t slot = homeSlot(pc);
        while (table[slot].executions != 0) {
            if (table[slot].pc == pc)
                return table[slot];
            slot = (slot + 1) & mask;
        }
        if (2 * (sites + 1) <= slots.size()) {
            ++sites;
            table[slot].pc = pc;
            return table[slot];
        }
        grow();
    }
}

void
TraceStats::grow()
{
    std::vector<StaticBranchStats> old(slots.size() * 2);
    old.swap(slots);
    ++log2Slots;
    const std::size_t mask = slots.size() - 1;
    for (const StaticBranchStats &site : old) {
        if (site.executions == 0)
            continue;
        std::size_t slot = homeSlot(site.pc);
        while (slots[slot].executions != 0)
            slot = (slot + 1) & mask;
        slots[slot] = site;
    }
}

void
TraceStats::observeAll(TraceReader &reader)
{
    BranchRecord record;
    while (reader.next(record))
        observe(record);
}

std::uint64_t
TraceStats::staticConditional() const
{
    return sites;
}

double
TraceStats::takenFraction() const
{
    if (dynamicCount == 0)
        return 0.0;
    return static_cast<double>(takenCount) /
           static_cast<double>(dynamicCount);
}

double
TraceStats::stronglyBiasedDynamicFraction(double threshold) const
{
    if (dynamicCount == 0)
        return 0.0;
    std::uint64_t biased = 0;
    for (const StaticBranchStats &site : slots) {
        if (site.executions != 0 && site.isStronglyBiased(threshold))
            biased += site.executions;
    }
    return static_cast<double>(biased) / static_cast<double>(dynamicCount);
}

std::vector<StaticBranchStats>
TraceStats::perBranch() const
{
    std::vector<StaticBranchStats> result;
    result.reserve(sites);
    for (const StaticBranchStats &site : slots) {
        if (site.executions != 0)
            result.push_back(site);
    }
    std::sort(result.begin(), result.end(),
              [](const StaticBranchStats &a, const StaticBranchStats &b) {
                  if (a.executions != b.executions)
                      return a.executions > b.executions;
                  return a.pc < b.pc;
              });
    return result;
}

} // namespace bpsim
